#!/usr/bin/env python3
"""The netstress benchmark: three workloads through the public CLI entry point.

    python3 benchmarks/run.py --workload covid-10k --seed 7 --seconds 45 --trace 0

Workloads (see README.md for why each exists):

* ``covid-10k``: ``stress`` of 1000 pandemic-style scenarios on a 10 000-firm
  / 19-bank economy read from CSV, at ``--workers 2``.
* ``fsri-2k``: ``fsri`` on a 2000-firm / 19-bank economy (2000 single-firm
  sweeps); not in BENCHMARK.json: too noisy on a shared host to gate a change.
* ``io-100k``: ``generate --n 100000`` and then ``validate`` of what it wrote.

``--seed S`` makes the inputs: shock-table seed S-4 and batch seed S+4
(mod 2**32) on the criterion-9 economy (seed 7) for ``covid-10k``, and
economy seed S for the other two. The default S=7 is the acceptance
criterion-9 triple (7, 3, 11). Reference fingerprints exist for S=7 only;
other seeds are checked by the invariants alone.

With ``--trace 0`` the run repeats the workload's operation for
``--seconds`` and reports end-to-end medians. With ``--trace 1`` it runs the
operation untraced and traced in turn and reports per-layer numbers from
the traced runs. Either way every operation's output is checked, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "netstress" / "__init__.py").is_file():
    sys.exit(f"run.py: no netstress sources under {SRC}; run it from a netstress checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from netstress import (  # noqa: E402
    SyntheticParams,
    economy_files,
    fsri,
    fsri_plus,
    generate_synthetic_economy,
    load_economy,
)
from netstress import cli  # noqa: E402
from netstress.cli import main as cli_main  # noqa: E402

import tracing  # noqa: E402

BANKS = 19
EXPOSURE_RATIO = 12.5
DEFAULT_SEED = 7
ORACLE_TOL = 1e-9        # reference fingerprints (last-bit changes pass)
PUBLIC_API_TOL = 1e-12   # CLI output against the public functions
FSRI_SAMPLE = 10
MIN_OPS = 3              # operations per timed run, however long they take
FINGERPRINTS = Path(__file__).resolve().with_name("fingerprints.json")
SPEC = ROOT / "BENCHMARK.json"


def seeds_for(seed: int) -> dict[str, int]:
    return {"economy": seed, "shocks": (seed - 4) % 2**32, "batch": (seed + 4) % 2**32}


# covid-10k draws its scenarios on one economy: other economies change its
# cascade lengths by several per cent, which would swamp a change's effect
COVID_ECONOMY_SEED = DEFAULT_SEED


@dataclass
class Op:
    """One checked operation: its wall time, timed parts and any failed checks."""

    wall: float
    parts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    out_bytes: int = 0


def run_cli(args: list[str]) -> tuple[int | None, float, str]:
    """Call ``netstress.cli.main``; return its exit code, wall time and output.

    The exit code is None when the command raised instead of returning.
    """
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = cli_main(args)
        except Exception:  # an escaped exception is a failed operation, not a crash
            code = None
            traceback.print_exc(file=captured)
        wall = time.perf_counter() - start
    return code, wall, captured.getvalue()


def expect_ok(what: str, code: int | None, output: str) -> list[str]:
    if code == 0:
        return []
    tail = output.strip().splitlines()[-1:] or [""]
    return [f"{what} exited {code}: {tail[0]}"]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def sha256(paths) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(Path(p).read_bytes())
    return digest.hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_fingerprint(workload: str, inputs: dict):
    """The reference outputs recorded for exactly these inputs, if any."""
    ref = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload)
    return ref if ref is not None and ref["inputs"] == inputs else None


def close_enough(name: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name} is {got!r}, reference {want!r}"]


class Workload:
    """A workload: set-up, then one operation that ``run.py`` repeats and checks."""

    name: str
    layers: tuple[str, ...]   # layers the traced operation must reach
    setups: int               # set-ups per run; setup_s is their median
    n: int
    economy: Path

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.seeds = seeds_for(seed)
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def generate_and_validate(self) -> tuple[float, float]:
        code, gen, out = run_cli([
            "generate", "--n", str(self.n), "--m", str(BANKS), "--ratio", str(EXPOSURE_RATIO),
            "--economy-seed", str(self.seeds["economy"]), "--out", str(self.economy),
        ])
        problems = expect_ok("generate", code, out)
        code, val, out = run_cli(["validate", "--economy-dir", str(self.economy)])
        problems += expect_ok("validate", code, out)
        if problems:
            raise RuntimeError(f"{self.name} set-up failed: {problems}")
        return gen, val

    def setup(self) -> list[dict[str, float]]:
        """Write and validate the workload's economy files, ``setups`` times."""
        timings = []
        for _ in range(self.setups):
            gen, val = self.generate_and_validate()
            timings.append({"generate_s": gen, "validate_s": val})
        return timings

    def op(self, tracer: tracing.Tracer | None, workers: int | None = None) -> Op:
        raise NotImplementedError


class Covid(Workload):
    name = "covid-10k"
    layers = tracing.LAYERS
    setups = 8

    workers = 2   # the machine's core count

    def __init__(self, seed: int, work: Path, n: int = 10_000, count: int = 1000):
        super().__init__(seed, work)
        self.seeds["economy"] = COVID_ECONOMY_SEED
        self.n, self.count = n, count
        self.economy = work / "economy"
        self.out = work / "stress"
        self.config = work / "config.json"
        self.ledger_digest: str | None = None
        self.reference = load_fingerprint(self.name, {"seed": seed, "n": n, "count": count})

    def setup(self) -> list[dict[str, float]]:
        self.config.write_text(json.dumps({"scenarios": {"shocks_seed": self.seeds["shocks"]}}))
        return super().setup()

    def op(self, tracer=None, workers=None) -> Op:
        args = [
            "stress", "--config", str(self.config), "--economy-dir", str(self.economy),
            "--count", str(self.count), "--seed", str(self.seeds["batch"]),
            "--workers", str(workers or self.workers), "--out", str(self.out),
        ]
        with tracer or contextlib.nullcontext():
            code, wall, output = run_cli(args)
        op = Op(wall=wall, problems=expect_ok("stress", code, output), tracer=tracer)
        if code not in (0, 2):   # 2 still writes its reports: unconverged scenarios
            return op
        op.out_bytes = dir_bytes(self.out)
        op.problems += self.check_outputs()
        return op

    def check_outputs(self) -> list[str]:
        problems = []
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        if not manifest["convergence"]["complete"]:
            problems.append("not every scenario converged")

        ledgers = self.out / "ledgers.csv"
        digest = sha256([ledgers])
        if self.ledger_digest is None:
            self.ledger_digest = digest
        elif digest != self.ledger_digest:
            problems.append("ledgers.csv differs from the run's first operation")
        problems += ledger_problems(read_rows(ledgers), self.count * BANKS)

        if self.reference is not None:
            system = {r["channel"]: r for r in read_rows(self.out / "risk_summary.csv") if r["bank"] == "system"}
            for channel, values in self.reference["system"].items():
                for key, want in zip(("el", "var95", "es95"), values):
                    problems += close_enough(f"system {channel} {key}", float(system[channel][key]), want, ORACLE_TOL)
        return problems


def ledger_problems(rows: list[dict[str, str]], expected_rows: int) -> list[str]:
    """Channel invariants of every ledger row.

    ``di <= di_sc <= di_sc_ib`` and ``di <= di_ib``, all within [0, 1], where
    ``di_ib`` and ``di_sc_ib`` are the ledger's ``total_wo`` / ``total_w``.
    """
    if len(rows) != expected_rows:
        return [f"ledgers.csv has {len(rows)} rows, expected {expected_rows}"]
    cols = {c: np.array([float(r[c]) for r in rows]) for c in ("di", "sc", "ib_wo", "ib_w", "total_wo", "total_w")}
    di = np.minimum(cols["di"], 1.0)
    di_sc = np.minimum(cols["di"] + cols["sc"], 1.0)
    di_ib, di_sc_ib = cols["total_wo"], cols["total_w"]
    checks = {
        "raw channel losses are finite and >= 0": all(
            np.all(np.isfinite(cols[c]) & (cols[c] >= 0.0)) for c in ("di", "sc", "ib_wo", "ib_w")
        ),
        "di <= di_sc": np.all(di <= di_sc),
        "di_sc <= di_sc_ib": np.all(di_sc <= di_sc_ib + PUBLIC_API_TOL),
        "di <= di_ib": np.all(di <= di_ib + PUBLIC_API_TOL),
        "totals within [0, 1]": np.all((di_ib >= 0) & (di_ib <= 1) & (di_sc_ib >= 0) & (di_sc_ib <= 1)),
        "total_wo = min(di + ib_wo, 1)": np.allclose(di_ib, np.minimum(di + cols["ib_wo"], 1.0), rtol=0, atol=PUBLIC_API_TOL),
        "total_w = min(di + sc + ib_w, 1)": np.allclose(di_sc_ib, np.minimum(di_sc + cols["ib_w"], 1.0), rtol=0, atol=PUBLIC_API_TOL),
    }
    return [f"ledger invariant fails: {name}" for name, ok in checks.items() if not ok]


class Fsri(Workload):
    name = "fsri-2k"
    layers = ("ingest", "economy", "propagation", "credit", "debtrank", "metrics", "cli")
    setups = 10

    def __init__(self, seed: int, work: Path, n: int = 2000):
        super().__init__(seed, work)
        self.n = n
        self.economy = work / "economy"
        self.out = work / "fsri"
        self.reference = load_fingerprint(self.name, {"seed": seed, "n": n})
        self.sample: dict[str, tuple[float, float]] = {}

    def setup(self) -> list[dict[str, float]]:
        timings = super().setup()
        # the public functions give the reference values for a seeded sample
        g = load_economy(economy_files(self.economy))
        rng = np.random.default_rng(self.seed)
        for i in sorted(rng.choice(g.n, size=min(FSRI_SAMPLE, g.n), replace=False)):
            fid = g.firm_ids[i]
            self.sample[fid] = (fsri(g, fid), fsri_plus(g, fid))
        self.firm_order = {fid: i for i, fid in enumerate(g.firm_ids)}
        return timings

    def op(self, tracer=None, workers=None) -> Op:
        args = ["fsri", "--economy-dir", str(self.economy), "--out", str(self.out)]
        with tracer or contextlib.nullcontext():
            code, wall, output = run_cli(args)
        op = Op(wall=wall, problems=expect_ok("fsri", code, output), tracer=tracer)
        if code != 0:
            return op
        op.out_bytes = dir_bytes(self.out)
        op.problems += self.check_outputs(read_rows(self.out / "fsri_profile.csv"))
        return op

    def check_outputs(self, rows: list[dict[str, str]]) -> list[str]:
        problems = []
        if sorted(r["firm_id"] for r in rows) != sorted(self.firm_order):
            return ["fsri_profile.csv does not list every firm once"]
        base = np.array([float(r["fsri"]) for r in rows])
        plus = np.array([float(r["fsri_plus"]) for r in rows])
        if not np.all((base >= 0.0) & (base <= plus + PUBLIC_API_TOL) & (plus <= 1.0)):
            problems.append("0 <= fsri <= fsri_plus <= 1 fails")
        ranks = [int(r["rank"]) for r in rows]
        keys = [(-b, self.firm_order[r["firm_id"]]) for b, r in zip(base, rows)]
        if ranks != list(range(1, len(rows) + 1)) or keys != sorted(keys):
            problems.append("rank order is not by descending fsri, then firm order")
        by_id = {r["firm_id"]: (float(r["fsri"]), float(r["fsri_plus"])) for r in rows}
        for fid, (want_base, want_plus) in self.sample.items():
            problems += close_enough(f"fsri({fid})", by_id[fid][0], want_base, PUBLIC_API_TOL)
            problems += close_enough(f"fsri_plus({fid})", by_id[fid][1], want_plus, PUBLIC_API_TOL)
        if self.reference is not None:
            for label, got, want in zip(("sum of fsri", "sum of fsri_plus"),
                                        (math.fsum(base), math.fsum(plus)), self.reference["sums"]):
                problems += close_enough(label, got, want, ORACLE_TOL)
            # most firms tie at the top, so a last-bit change may reorder
            # them: check the values at each rank and each listed firm's own
            for rank, (fid, want_base, want_plus) in enumerate(self.reference["top20"]):
                for label, got in ((f"rank {rank + 1}", (base[rank], plus[rank])), (fid, by_id[fid])):
                    problems += close_enough(f"top-20 fsri {label}", got[0], want_base, ORACLE_TOL)
                    problems += close_enough(f"top-20 fsri_plus {label}", got[1], want_plus, ORACLE_TOL)
        return problems


class Io(Workload):
    name = "io-100k"
    layers = ("synthetic", "ingest", "economy", "cli")
    setups = 1

    def __init__(self, seed: int, work: Path, n: int = 100_000):
        super().__init__(seed, work)
        self.n = n
        self.economy = work / "economy"
        self.files_digest: str | None = None
        self.graph = None

    def setup(self) -> list[dict[str, float]]:
        # the in-memory economy the written and reloaded one must equal
        timings = []
        params = SyntheticParams(n=self.n, m=BANKS, target_exposure_ratio=EXPOSURE_RATIO)
        for _ in range(self.setups):
            start = time.perf_counter()
            self.graph = generate_synthetic_economy(params, seed=self.seeds["economy"])
            timings.append({"generate_s": time.perf_counter() - start})
        return timings

    def op(self, tracer=None, workers=None) -> Op:
        loaded = []
        with keep_result(cli, "load_economy", loaded), tracer or contextlib.nullcontext():
            code, gen, output = run_cli([
                "generate", "--n", str(self.n), "--m", str(BANKS), "--ratio", str(EXPOSURE_RATIO),
                "--economy-seed", str(self.seeds["economy"]), "--out", str(self.economy),
            ])
            problems = expect_ok("generate", code, output)
            code, val, output = run_cli(["validate", "--economy-dir", str(self.economy)])
        problems += expect_ok("validate", code, output)
        op = Op(wall=gen + val, parts={"generate_s": gen, "validate_s": val}, problems=problems, tracer=tracer)
        if problems:
            return op
        op.out_bytes = dir_bytes(self.economy)
        digest = sha256(sorted(self.economy.glob("*.csv")))
        if self.files_digest is None:
            self.files_digest = digest
        elif digest != self.files_digest:
            op.problems.append("economy files differ from the run's first operation")
        op.problems += graph_differences(self.graph, loaded[0])
        return op


@contextlib.contextmanager
def keep_result(module, name: str, results: list):
    """Append what ``module.name`` returns to ``results`` while the block runs."""
    original = getattr(module, name)

    def keeping(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, name, keeping)
    try:
        yield
    finally:
        setattr(module, name, original)


def graph_differences(a, b) -> list[str]:
    """Where two economies differ: ids, sectors, arrays and sparse matrices."""
    problems = [f"{name} differ" for name in ("firm_ids", "sectors", "bank_ids") if getattr(a, name) != getattr(b, name)]
    for name in ("revenue", "op_cost", "equity", "short_assets", "short_liabs",
                 "financials_present", "eligible_for_default", "bank_equity"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            problems.append(f"{name} differ")
    for name, x, y in (
        ("supply", a.supply.weights, b.supply.weights),
        ("interbank", a.interbank.liabilities, b.interbank.liabilities),
        ("loans", a.loans.principals, b.loans.principals),
    ):
        if x.shape != y.shape or x.nnz != y.nnz or (x != y).nnz:
            problems.append(f"{name} matrix differs")
    if a.loans.lgd != b.loans.lgd:
        problems.append("loss given default differs")
    if (a.essentiality.overrides, a.essentiality.default_essential) != (
        b.essentiality.overrides, b.essentiality.default_essential
    ):
        problems.append("essentiality table differs")
    return problems


WORKLOADS = {cls.name: cls for cls in (Covid, Fsri, Io)}


def cache_bytes(level: int) -> int | None:
    """Size of one CPU's cache at ``level`` from sysfs, None where unreadable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        return None
    return None


def machine_record(workload: Workload) -> dict:
    record = {
        "nproc": os.cpu_count(),
        "l2_bytes_per_core": cache_bytes(2),
        "l3_bytes_shared": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seeds": workload.seeds,
    }
    if isinstance(workload, Covid):
        weights = load_economy(economy_files(workload.economy)).supply.weights
        # one propagate step gathers supplier index, weight and pool id per
        # edge (8 B each) and multiplies by the CSR matrix: computed, not measured
        record["propagation_edges"] = int(weights.nnz)
        record["propagation_edge_array_bytes"] = int(
            24 * weights.nnz + weights.data.nbytes + weights.indices.nbytes + weights.indptr.nbytes
        )
    return record


def spread(values) -> str:
    values = sorted(values)
    return f"median of {len(values)}, min {values[0]:.4f}, max {values[-1]:.4f}"


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def report(op_index: int, label: str, op: Op) -> None:
    status = "ok" if not op.problems else "FAIL " + "; ".join(op.problems[:5])
    parts = "".join(f" {k}={v:.4f}" for k, v in op.parts.items())
    print(f"op {op_index} {label} wall_s={op.wall:.4f}{parts} {status}", flush=True)


def with_units(values: dict[str, float], section: str) -> dict[str, dict]:
    """Attach the units ``BENCHMARK.json`` gives; its names must be exactly ours."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    missing = {m["name"] for m in spec} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics {sorted(missing)} are not both measured and in BENCHMARK.json {section}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(workload: Workload, seconds: float) -> tuple[list[Op], dict[str, dict]]:
    """Repeat the untraced operation for ``seconds``; end-to-end metrics."""
    timings = workload.setup()
    ops: list[Op] = []
    start = time.perf_counter()
    # stop before an operation that would end after ``seconds``
    while len(ops) < MIN_OPS or time.perf_counter() - start + ops[-1].wall <= seconds:
        ops.append(workload.op(None))
        report(len(ops), "untraced", ops[-1])

    metrics = {
        "setup_s": statistics.median(sum(t.values()) for t in timings),
        "wall_s": statistics.median(op.wall for op in ops),
    }
    # io-100k times generate and validate in its operation, the others in set-up
    for part in ("generate_s", "validate_s"):
        source = [op.parts for op in ops] if ops[0].parts else timings
        metrics[part] = statistics.median(t[part] for t in source)
    metrics["peak_rss_mb"] = peak_rss_mb()

    print(f"setup_s {spread([sum(t.values()) for t in timings])}")
    print(f"wall_s {spread([op.wall for op in ops])}")
    if isinstance(workload, Covid):
        print(f"scenarios_per_s {workload.count / metrics['wall_s']:.4f} 1/s")
    if isinstance(workload, Fsri):
        print(f"firms_per_s {workload.n / metrics['wall_s']:.4f} 1/s")
    return ops, with_units(metrics, "end_to_end")


# per-layer metrics that are not exact counts
TIMED_SUFFIXES = ("_s", ".us_per_step", ".parallel_efficiency")


def trace(workload: Workload, seconds: float) -> tuple[list[Op], dict[str, dict]]:
    """Rounds of an untraced and a traced operation; per-layer metrics.

    ``covid-10k`` runs both at ``--workers 1`` so every span is recorded in
    this process, and adds a ``--workers 2`` operation whose only span is
    ``run_batch``, for the parallel efficiency.
    """
    workload.setup()
    pooled = isinstance(workload, Covid)
    rounds: list[dict[str, Op]] = []
    start = time.perf_counter()
    k = 0
    # stop before a round that would end after ``seconds``
    while not rounds or time.perf_counter() - start + sum(op.wall for op in rounds[-1].values()) <= seconds:
        k += 1
        plain_tracer = tracing.Tracer(k, (tracing.RUN_BATCH,)) if pooled else None
        rnd = {"untraced": workload.op(plain_tracer, workers=1)}
        rnd["traced"] = workload.op(tracing.Tracer(k), workers=1)
        if pooled:
            rnd["workers2"] = workload.op(tracing.Tracer(k, (tracing.RUN_BATCH,)))
        for label, op in rnd.items():
            report(k, label, op)
        rounds.append(rnd)
    ops = [op for rnd in rounds for op in rnd.values()]

    traced = [rnd["traced"] for rnd in rounds]
    per_op = []
    for op in traced:
        values = tracing.layer_metrics(op.tracer)
        values["cli.bytes_written"] = op.out_bytes - values["ingest.bytes_written"]
        per_op.append(values)
    for op, values in zip(traced, per_op):
        changed = [
            name for name, v in values.items()
            if not name.endswith(TIMED_SUFFIXES) and v != per_op[0][name]
        ]
        if changed:
            op.problems.append(f"counts differ from the first traced operation: {', '.join(changed)}")
    silent = [layer for layer in workload.layers if traced[0].tracer.span_count(layer) == 0]
    if silent:
        sys.exit(f"run.py: traced {workload.name} recorded no spans for layer(s) {', '.join(silent)}")

    # counts are checked equal above, so the first operation's stand for all
    metrics = {
        name: statistics.median(v[name] for v in per_op) if name.endswith(TIMED_SUFFIXES) else value
        for name, value in per_op[0].items()
    }
    metrics["pipeline.parallel_efficiency"] = 0.0
    if pooled:
        single = statistics.median(rnd["untraced"].tracer.total("run_batch") for rnd in rounds)
        double = statistics.median(rnd["workers2"].tracer.total("run_batch") for rnd in rounds)
        metrics["pipeline.parallel_efficiency"] = single / (2 * double)
        print(f"workers=1 baseline wall_s {statistics.median(r['untraced'].wall for r in rounds):.4f} s, "
              f"run_batch_s {single:.4f} s; workers=2 run_batch_s {double:.4f} s")

    plain = statistics.median(rnd["untraced"].wall for rnd in rounds)
    wall = statistics.median(op.wall for op in traced)
    n_spans, cost = len(traced[0].tracer.spans), tracing.span_cost_s()
    print(f"tracing overhead {(wall - plain) / plain:+.4f} of wall (median of {len(rounds)} pairs); "
          f"computed {n_spans} spans x {cost * 1e6:.2f} us = {n_spans * cost / plain:.4f} of wall")
    layer_self, _ = traced[0].tracer.self_times()
    shares = {layer: layer_self[layer] / traced[0].wall for layer in tracing.LAYERS}
    shares["(outside any span)"] = 1.0 - sum(shares.values())
    print("stage shares of the traced wall: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    tracing.write_spans([op.tracer for op in ops if op.tracer is not None], workload.work / "spans.jsonl")
    return ops, with_units(metrics, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # relative paths keep the report bytes independent of the checkout location
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](args.seed, Path(".bench-work") / args.workload)
    if args.trace:
        ops, metrics = trace(workload, args.seconds)
    else:
        ops, metrics = measure(workload, args.seconds)
    print("machine " + json.dumps(machine_record(workload), sort_keys=True))

    failed = sum(bool(op.problems) for op in ops)
    print(f"error_rate {failed / len(ops)} ratio ({failed} of {len(ops)} operations failed a check)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
