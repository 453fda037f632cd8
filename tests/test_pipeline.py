"""Scenario batches: the same arrays for any worker count, chunk width and batch kind."""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from netstress import (
    DefaultFlags,
    PropagationConfig,
    ShockBatch,
    SyntheticParams,
    bank_losses,
    bank_seed,
    covid_style_batch,
    default_flags,
    generate_synthetic_economy,
    pipeline,
    profit_shock,
    propagate,
    propagation,
    run_batch,
    synthetic_shock_table,
)

from .conftest import random_economy

PER_BANK = ("di", "sc", "ib_wo", "ib_w", "sc_converged", "dr_wo_converged", "dr_w_converged")


def _run(g, batch, cfg=PropagationConfig(), path=None, **kw):
    """``run_batch`` writing ``defaults.csv`` to ``path`` if one is given; the result and the file's bytes."""
    result = run_batch(g, batch, cfg, defaults=path, **kw)
    return result, path.read_bytes() if path is not None else None


@pytest.mark.parametrize("trace", [False, True])
def test_worker_count_does_not_change_results(tmp_path, trace):
    rng = np.random.default_rng(5)
    g = random_economy(rng, n=30, m=5)
    psi = np.where(rng.random((9, g.n)) < 0.3, rng.uniform(0.0, 1.0, (9, g.n)), 1.0)
    batch = ShockBatch.dense(psi=psi, provenance="test", scenario_ids=list(range(10, 19)))
    serial, serial_defaults = _run(g, batch, path=tmp_path / "serial.csv" if trace else None, workers=1)
    pooled, pooled_defaults = _run(g, batch, path=tmp_path / "pooled.csv" if trace else None, workers=2)
    assert serial.scenario_ids == pooled.scenario_ids == list(range(10, 19))
    for name in PER_BANK:
        assert getattr(serial, name).shape[0] == 9
        np.testing.assert_array_equal(getattr(pooled, name), getattr(serial, name))
    assert pooled_defaults == serial_defaults
    if trace:
        lines = serial_defaults.decode().splitlines()
        assert len(lines) == 1 + 9 * g.n and lines[1].startswith("10,") and lines[-1].startswith("18,")
        assert any(line.split(",")[3] == "1" for line in lines[1:])  # the shocks make some firms default


def test_results_are_row_major():
    # a column-major ledger changed the last digits of the system rows of risk_summary.csv:
    # ``losses @ share`` sums each row in another order
    g, table = _covid_case()
    result = run_batch(g, covid_style_batch(g, table, count=20, seed=4))
    assert all(getattr(result, name).flags.c_contiguous for name in PER_BANK)


def test_empty_batch_rejected():
    g = random_economy(np.random.default_rng(1), n=5, m=2)
    with pytest.raises(ValueError, match="no scenarios"):
        run_batch(g, ShockBatch.dense(psi=np.ones((0, g.n)), provenance="test"))


def _covid_case(n=300, seed=3):
    g = generate_synthetic_economy(SyntheticParams(n=n, m=5), seed=seed)
    return g, synthetic_shock_table(g, seed=seed + 1)


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("chunk", [1, 100])
def test_streamed_batch_matches_dense(monkeypatch, tmp_path, workers, chunk):
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=24, seed=9)
    dense = ShockBatch.dense(psi=covid_style_batch(g, table, count=24, seed=9).psi, provenance="test")
    reference, reference_defaults = _run(g, dense, path=tmp_path / "reference.csv", workers=1)
    monkeypatch.setattr(pipeline, "CHUNK", chunk)
    for b in (batch, dense):
        result, defaults = _run(g, b, path=tmp_path / "defaults.csv", workers=workers)
        for name in PER_BANK:
            assert getattr(result, name).shape[0] == 24
            np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
        assert defaults == reference_defaults


def test_residuals_are_kept_once_per_batch():
    g, table = _covid_case(n=400)
    nace2 = {fid: sector[:2] for fid, sector in zip(g.firm_ids, g.sectors)}
    industry = nace2[g.firm_ids[0]]
    rng = np.random.default_rng(0)
    table.reductions = {
        fid: float(rng.random() < 0.1) if nace2[fid] == industry else value
        for fid, value in table.reductions.items()
    }
    expected = covid_style_batch(g, table, count=12, seed=1)
    dense = expected.psi
    assert expected.residuals  # the case needs some
    batch = covid_style_batch(g, table, count=12, seed=1)
    assert batch.residuals == []  # nothing is drawn before the batch is read
    run_batch(g, batch, workers=2)
    assert batch.residuals == expected.residuals
    np.testing.assert_array_equal(batch.psi, dense)  # a second pass
    assert batch.residuals == expected.residuals


def test_streamed_run_holds_one_block_at_a_time():
    g, table = _covid_case(n=2000, seed=5)
    count = 400  # drawn a chunk of 8 scenarios (128 kB) at a time; stacked, 6.4 MB
    run_batch(g, ShockBatch.dense(psi=np.ones((1, g.n)), provenance="warm-up"))
    tracemalloc.start()
    try:
        batch = covid_style_batch(g, table, count=count, seed=2)
        result = run_batch(g, batch, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == count
    assert peak < count * g.n * 8 / 2


def test_traced_run_writes_one_block_at_a_time(tmp_path):
    g, table = _covid_case(n=2000, seed=5)
    count = 400  # stacked, the two default flags and the profit shock take 10 bytes a firm: 8 MB
    run_batch(g, ShockBatch.dense(psi=np.ones((1, g.n)), provenance="warm-up"), defaults=tmp_path / "warm-up.csv")
    tracemalloc.start()
    try:
        batch = covid_style_batch(g, table, count=count, seed=2)
        result = run_batch(g, batch, workers=1, defaults=tmp_path / "defaults.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == count
    with open(tmp_path / "defaults.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + count * g.n
    assert peak < count * g.n * 10 / 2


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_chunks_do_not_change_results(monkeypatch, tmp_path, chunk, sigma):
    g, table = _covid_case()
    batch = ShockBatch.dense(psi=covid_style_batch(g, table, count=20, seed=4).psi, provenance="test")
    cfg = PropagationConfig(nonessential_weight=sigma)
    reference, reference_defaults = _run(g, batch, cfg, tmp_path / "reference.csv")
    monkeypatch.setattr(pipeline, "CHUNK", chunk)
    for workers in (1, 2):
        result, defaults = _run(g, batch, cfg, tmp_path / "defaults.csv", workers=workers)
        for name in PER_BANK:
            np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
        assert defaults == reference_defaults
    assert np.any(reference.sc > 0.0)  # the cascade adds defaults


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize(("count", "workers", "widths"), [(16, 2, [8, 8]), (100, 1, [8] * 12 + [4])])
def test_every_chunk_but_the_last_is_full(monkeypatch, tmp_path, trace, count, workers, widths):
    # a narrow chunk steps little faster than one scenario, so no batch, pool or trace narrows it
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=count, seed=4)
    seen, run_chunk = [], pipeline._run_chunk

    def spy(*args):
        seen.append(next(len(arg) for arg in args if isinstance(arg, np.ndarray)))  # the shocks
        return run_chunk(*args)

    monkeypatch.setattr(pipeline, "_run_chunk", spy)
    run_batch(g, batch, workers=workers, defaults=tmp_path / "defaults.csv" if trace else None)
    assert seen == widths


@pytest.mark.parametrize("chunk", [1, 8])
def test_convergence_flags_follow_each_scenario(monkeypatch, chunk):
    g, table = _covid_case()
    batch = ShockBatch.dense(psi=covid_style_batch(g, table, count=20, seed=4).psi, provenance="test")
    cfg = PropagationConfig(max_iter=8)  # these cascades take 7 to 9 steps
    monkeypatch.setattr(pipeline, "CHUNK", chunk)
    expected = [propagate(g, psi, cfg).converged for psi in batch.psi]
    assert 0 < sum(expected) < len(expected)
    assert run_batch(g, batch, cfg).sc_converged.tolist() == expected


def test_credit_on_a_block_matches_its_rows():
    g, table = _covid_case()
    psi = covid_style_batch(g, table, count=6, seed=8).psi
    h = propagate(g, psi).h
    shock_wo, shock_w = profit_shock(g, psi), profit_shock(g, h)
    chi_wo, chi_w = default_flags(g, shock_wo), default_flags(g, shock_w)
    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    assert chi_w.chi.shape == (6, g.n) and ledger.di.shape == ledger.sc.shape == (6, g.m)
    assert chi_w.count() > chi_wo.count() > 0
    for k in range(6):
        row_wo, row_w = profit_shock(g, psi[k]), profit_shock(g, h[k])
        assert row_wo.dp.tobytes() == shock_wo.dp[k].tobytes() and row_w.dp.tobytes() == shock_w.dp[k].tobytes()
        flags_wo, flags_w = default_flags(g, row_wo), default_flags(g, row_w)
        assert np.array_equal(flags_wo.chi, chi_wo.chi[k]) and np.array_equal(flags_w.chi, chi_w.chi[k])
        assert bank_seed(g, flags_w).tobytes() == bank_seed(g, chi_w)[k].tobytes()
        row = bank_losses(g, chi_w=flags_w, chi_wo=flags_wo)
        assert row.di.tobytes() == ledger.di[k].tobytes() and row.sc.tobytes() == ledger.sc[k].tobytes()


def test_regression_names_the_firm_in_a_later_row():
    g, _ = _covid_case(n=50)
    chi_w = np.ones((3, g.n), dtype=bool)
    chi_w[2, 17] = False
    with pytest.raises(ValueError, match=f"firm {g.firm_ids[17]!r} defaults without"):
        bank_losses(g, chi_w=DefaultFlags(chi_w), chi_wo=DefaultFlags(np.ones((3, g.n), dtype=bool)))


class _InlinePool:
    """Stands in for the thread pool: runs each chunk when its result is read."""

    def __init__(self, max_workers):
        self.in_flight = self.most_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, block):
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        return self._Future(self, fn, block)

    class _Future:
        def __init__(self, pool, fn, block):
            self.pool, self.fn, self.block = pool, fn, block

        def result(self):
            self.pool.in_flight -= 1
            return self.fn(self.block)


def test_pool_keeps_at_most_two_blocks_per_worker_in_flight(monkeypatch):
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=40, seed=9)
    reference = run_batch(g, batch, workers=1)
    pools = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", lambda **kw: pools.append(_InlinePool(**kw)) or pools[-1])
    monkeypatch.setattr(pipeline, "CHUNK", 1)  # one scenario a chunk
    result = run_batch(g, batch, workers=3)
    assert [pool.most_in_flight for pool in pools] == [6]
    for name in PER_BANK:
        np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))


def test_pooled_run_holds_the_blocks_in_flight(monkeypatch):
    g, table = _covid_case(n=2000, seed=5)
    count = 400  # 6.4 MB of shocks, drawn a chunk at a time
    run_batch(g, ShockBatch.dense(psi=np.ones((1, g.n)), provenance="warm-up"), workers=2)
    tracemalloc.start()
    try:
        batch = covid_style_batch(g, table, count=count, seed=2)
        result = run_batch(g, batch, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == count
    # four chunks in flight, one being drawn and two chunks' work arrays peak at about 3.5 MB;
    # with every chunk submitted at once the run peaks at 6.8 MB or more
    assert peak < count * g.n * 8 * 3 / 4


def test_pooled_run_builds_the_plan_once(monkeypatch):
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=40, seed=9)
    builds, build = [], propagation._build_plan

    def slow_build(graph):
        builds.append(threading.current_thread())
        time.sleep(0.2)  # long enough for both threads to ask for the plan
        return build(graph)

    monkeypatch.setattr(propagation, "_build_plan", slow_build)
    monkeypatch.setattr(pipeline, "CHUNK", 1)
    run_batch(g, batch, workers=2)
    assert builds == [threading.main_thread()]


def test_worker_error_reaches_the_caller(monkeypatch):
    g, _ = _covid_case(n=50)
    lone = np.ones((g.n, g.n)) - np.eye(g.n)
    firm = next(i for i in range(g.n) if default_flags(g, profit_shock(g, lone[i])).chi[i])
    psi = np.ones((40, g.n))
    psi[30] = lone[firm]  # a later chunk: one scenario a chunk below
    batch = ShockBatch.dense(psi=psi, provenance="test")
    # no cascade at all: the shocked firm defaults without supply-chain contagion but not with it
    monkeypatch.setattr(pipeline, "propagate", lambda g, psi, cfg: SimpleNamespace(h=np.ones_like(psi), done=None))
    monkeypatch.setattr(pipeline, "CHUNK", 1)
    threads = threading.active_count()
    raised = []
    for workers in (1, 2):
        with pytest.raises(ValueError, match=f"firm {g.firm_ids[firm]!r} defaults without") as info:
            run_batch(g, batch, workers=workers)
        raised.append((type(info.value), str(info.value)))
        assert threading.active_count() == threads
    assert raised[0] == raised[1]


def test_more_threads_than_cores_on_a_fresh_graph(monkeypatch, tmp_path):
    # the graph's cached columns are first read from the threads, which switch every few bytecodes
    (g, table), (fresh, _) = _covid_case(), _covid_case()
    batch = ShockBatch.dense(psi=covid_style_batch(g, table, count=40, seed=6).psi, provenance="test")
    reference, reference_defaults = _run(g, batch, path=tmp_path / "reference.csv", workers=1)
    monkeypatch.setattr(pipeline, "CHUNK", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result, defaults = _run(fresh, batch, path=tmp_path / "defaults.csv", workers=8)
    finally:
        sys.setswitchinterval(interval)
    for name in PER_BANK:
        np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
    assert defaults == reference_defaults
