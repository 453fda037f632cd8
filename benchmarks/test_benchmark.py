"""The benchmark's own test, on small inputs.

* Two traced runs give exactly the same counts, and each reaches every
  layer its workload names (``run.trace`` exits otherwise).
* Every check passes on correct output, and the ledger and graph checks
  catch a wrong answer.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import run

SMALL = {
    "covid-10k": lambda work: run.Covid(run.DEFAULT_SEED, work, n=600, count=24),
    "fsri-2k": lambda work: run.Fsri(run.DEFAULT_SEED, work, n=150),
    "io-100k": lambda work: run.Io(run.DEFAULT_SEED, work, n=3000),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat(name, tmp_path):
    runs = [run.trace(SMALL[name](tmp_path / str(k)), seconds=0) for k in (1, 2)]
    assert [op.problems for ops, _ in runs for op in ops] == [[]] * sum(len(ops) for ops, _ in runs)
    first, second = (
        {k: v["value"] for k, v in metrics.items() if not k.endswith(run.TIMED_SUFFIXES)}
        for _, metrics in runs
    )
    assert first == second
    assert all(v == 0 for k, v in first.items() if k.endswith("unconverged"))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_measured_run_passes_its_checks(name, tmp_path):
    ops, metrics = run.measure(SMALL[name](tmp_path), seconds=0)
    assert len(ops) == run.MIN_OPS and all(op.problems == [] for op in ops)
    assert all(m["value"] > 0 for m in metrics.values())


def test_ledger_check_catches_a_missing_interbank_loss():
    row = {"di": "0.2", "sc": "0.1", "ib_wo": "0.05", "ib_w": "0.1", "total_wo": "0.25", "total_w": "0.4"}
    assert run.ledger_problems([row], 1) == []
    assert run.ledger_problems([dict(row, total_w="0.25")], 1) != []
    assert run.ledger_problems([row], 2) != []


def test_graph_check_catches_a_changed_value(tmp_path):
    workload = SMALL["io-100k"](tmp_path)
    workload.setup()
    g = workload.graph
    assert run.graph_differences(g, g) == []
    changed = dataclasses.replace(g)
    changed.__dict__.update(g.__dict__)
    changed.__dict__["revenue"] = np.nextafter(g.revenue, np.inf)
    assert run.graph_differences(g, changed) == ["revenue differ"]
