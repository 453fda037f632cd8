"""Spans around the calls netstress's modules make into each other.

The package itself carries no timer yet, so the benchmark records spans
from outside: each boundary replaces one name in the namespace of the
module that calls it (``pipeline.propagate``, ``cli.run_batch``, ...) with
a wrapper that records a span and, where a layer has work to count, adds
the count from the call's arguments and result. A span is the call as the
calling module sees it. Calls a module makes to its own functions are not
boundaries and stay inside their caller's span.

Spans are kept in memory while an operation runs; ``layer_metrics`` turns
them into the per-layer numbers, and ``write_spans`` writes them out when
the benchmark ends.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from netstress import cli, ingest, metrics, pipeline, synthetic
from netstress.ingest import economy_files

# the scenario pool of ``cli stress --workers 2`` splits a batch into
# ``workers * 4`` blocks and pickles the graph into every one of them
POOL_WORKERS = 2
POOL_BLOCKS_PER_WORKER = 4


@dataclass(slots=True)
class Span:
    op: int          # operation the span belongs to
    layer: str
    name: str
    parent: int      # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0


@dataclass(frozen=True)
class Boundary:
    """One name a calling module looks up, and the layer it calls into.

    ``before(counts, args, kwargs)`` and ``after(counts, args, kwargs,
    result)`` add the call's work counts; neither is inside the span.
    ``methods`` marks a class boundary: the class is replaced by a
    subclass whose listed methods record spans.
    """

    module: object
    name: str
    layer: str
    after: Callable | None = None
    before: Callable | None = None
    methods: tuple[str, ...] = ()


def _file_bytes(spec) -> int:
    paths = [spec.firms, spec.supply, spec.interbank, spec.loans, spec.banks, spec.essentiality]
    return sum(Path(p).stat().st_size for p in paths if p is not None and Path(p).exists())


def _count_read(counts, args, kwargs, result):
    counts["ingest.bytes_read"] += _file_bytes(args[0])


def _count_written(counts, args, kwargs, result):
    counts["ingest.bytes_written"] += _file_bytes(economy_files(args[1]))


def _count_residuals(counts, args, kwargs, result):
    counts["scenarios.residuals"] += len(result.residuals)


def _count_propagate(counts, args, kwargs, result):
    counts["propagation.steps"] += result.iterations
    counts["propagation.steps_max"] = max(counts["propagation.steps_max"], result.iterations)
    counts["propagation.unconverged"] += not result.converged
    counts["propagation.edge_visits"] += result.iterations * args[0].supply.weights.nnz


def _count_ledger_defaults(counts, args, kwargs, result):
    counts["credit.defaults_w"] += kwargs["chi_w"].count()
    counts["credit.defaults_wo"] += kwargs["chi_wo"].count()


def _count_single_firm_defaults(counts, args, kwargs, result):
    # the single-firm sweep propagates the shock first: with-contagion regime
    counts["credit.defaults_w"] += result.count()


def _count_debtrank(counts, args, kwargs, result):
    counts["debtrank.iterations"] += result.iterations
    counts["debtrank.unconverged"] += not result.converged


def shipped_bytes(g, batch, cfg, dr_epsilon, dr_max_iter) -> int:
    """Computed bytes the scenario pool pickles at ``--workers 2``.

    Every block carries the graph and run settings plus its slice of the
    shock batch; this pickles them the way the pool's call queue does.
    """
    n_blocks = min(POOL_WORKERS * POOL_BLOCKS_PER_WORKER, len(batch))
    shared = len(ForkingPickler.dumps((g, cfg, dr_epsilon, dr_max_iter)))
    blocks = sum(len(ForkingPickler.dumps(b)) for b in np.array_split(batch.psi, n_blocks))
    return n_blocks * shared + blocks


def _count_shipped(counts, args, kwargs):
    # counted on entry: the pool pickles the graph before any scenario runs
    g, batch, cfg = args[:3]
    counts["pipeline.shipped_bytes"] += shipped_bytes(
        g, batch, cfg, kwargs["dr_epsilon"], kwargs["dr_max_iter"]
    )


RUN_BATCH = Boundary(cli, "run_batch", "pipeline")

BOUNDARIES = (
    # the CLI calls into every layer
    Boundary(cli, "load_economy", "ingest", _count_read),
    Boundary(cli, "write_economy", "ingest", _count_written),
    Boundary(cli, "validate_economy", "economy"),
    Boundary(cli, "generate_synthetic_economy", "synthetic"),
    Boundary(cli, "synthetic_shock_table", "synthetic"),
    Boundary(cli, "covid_style_batch", "scenarios", _count_residuals),
    Boundary(cli, "run_batch", "pipeline", before=_count_shipped),
    Boundary(cli, "fsri_profile", "metrics"),
    Boundary(cli, "ChannelDecomposition", "metrics", methods=(
        "channel_losses", "system_losses", "summaries", "amplification_records",
    )),
    Boundary(cli, "ols_fit", "metrics"),
    Boundary(cli, "ib_amplification", "metrics"),
    Boundary(cli, "ccdf", "metrics"),
    # report writing is the CLI's own layer
    Boundary(cli, "_write_ledgers", "cli"),
    Boundary(cli, "_write_stats", "cli"),
    Boundary(cli, "_write_profile", "cli"),
    Boundary(cli, "_write_csv", "cli"),
    Boundary(cli, "_write_manifest", "cli"),
    # ingestion and generation validate what they build
    Boundary(ingest, "validate_economy", "economy"),
    Boundary(synthetic, "validate_economy", "economy"),
    # one scenario: cascade, credit losses, interbank contagion
    Boundary(pipeline, "propagate", "propagation", _count_propagate),
    Boundary(pipeline, "profit_shock", "credit"),
    Boundary(pipeline, "default_flags", "credit"),
    Boundary(pipeline, "bank_losses", "credit", _count_ledger_defaults),
    Boundary(pipeline, "debtrank", "debtrank", _count_debtrank),
    # the single-firm sweep behind FSRI / FSRI+
    Boundary(metrics, "propagate", "propagation", _count_propagate),
    Boundary(metrics, "profit_shock", "credit"),
    Boundary(metrics, "default_flags", "credit", _count_single_firm_defaults),
    Boundary(metrics, "bank_seed", "credit"),
    Boundary(metrics, "debtrank", "debtrank", _count_debtrank),
)

LAYERS = (
    "synthetic", "ingest", "economy", "scenarios", "propagation",
    "credit", "debtrank", "pipeline", "metrics", "cli",
)


class Tracer:
    """Install boundaries for the duration of a ``with`` block.

    One tracer records one operation: its spans, tagged with ``op``, and
    the work counts its boundaries add.
    """

    def __init__(self, op: int, boundaries=BOUNDARIES):
        self.op = op
        self.boundaries = boundaries
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, name: str, after=None, before=None):
        spans, stack, counts, op = self.spans, self._stack, self.counts, self.op

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            span = Span(op, layer, name, stack[-1] if stack else -1, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for b in self.boundaries:
            original = getattr(b.module, b.name)
            if b.methods:
                attrs = {m: self.wrap(getattr(original, m), b.layer, f"{b.name}.{m}") for m in b.methods}
                replacement = type(original.__name__, (original,), attrs)
            else:
                replacement = self.wrap(original, b.layer, b.name, b.after, b.before)
            self._saved.append((b.module, b.name, original))
            setattr(b.module, b.name, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time (span minus its direct children) summed by layer and by name."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        by_layer: Counter = Counter()
        by_name: Counter = Counter()
        for s, t in zip(self.spans, own):
            by_layer[s.layer] += t
            by_name[s.name] += t
        return by_layer, by_name

    def span_count(self, layer: str) -> int:
        return sum(s.layer == layer for s in self.spans)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced operation.

    ``*_s`` values are self times, so the layers of one operation never
    count a second twice; ``pipeline.run_batch_s`` is the whole span.
    """
    layer_self, name_self = tracer.self_times()
    counts = tracer.counts
    steps = counts["propagation.steps"]
    return {
        "propagation.busy_s": layer_self["propagation"],
        "propagation.calls": tracer.span_count("propagation"),
        "propagation.steps": steps,
        "propagation.steps_max": counts["propagation.steps_max"],
        "propagation.us_per_step": 1e6 * layer_self["propagation"] / steps if steps else 0.0,
        "propagation.unconverged": counts["propagation.unconverged"],
        "propagation.edge_visits": counts["propagation.edge_visits"],
        "credit.busy_s": layer_self["credit"],
        "credit.calls": tracer.span_count("credit"),
        "credit.defaults_wo": counts["credit.defaults_wo"],
        "credit.defaults_w": counts["credit.defaults_w"],
        "debtrank.busy_s": layer_self["debtrank"],
        "debtrank.calls": tracer.span_count("debtrank"),
        "debtrank.iterations": counts["debtrank.iterations"],
        "debtrank.unconverged": counts["debtrank.unconverged"],
        "scenarios.batch_s": name_self["covid_style_batch"],
        "scenarios.residuals": counts["scenarios.residuals"],
        "pipeline.run_batch_s": tracer.total("run_batch"),
        "pipeline.self_s": name_self["run_batch"],
        "pipeline.shipped_bytes": counts["pipeline.shipped_bytes"],
        "metrics.fsri_profile_s": name_self["fsri_profile"],
        "metrics.stats_s": layer_self["metrics"] - name_self["fsri_profile"],
        "cli.write_s": layer_self["cli"],
        "ingest.load_s": name_self["load_economy"],
        "ingest.bytes_read": counts["ingest.bytes_read"],
        "ingest.write_s": name_self["write_economy"],
        "ingest.bytes_written": counts["ingest.bytes_written"],
        "synthetic.generate_s": name_self["generate_synthetic_economy"],
        "synthetic.shock_table_s": name_self["synthetic_shock_table"],
        "economy.validate_s": layer_self["economy"],
    }


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Write every recorded span as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps({
                    "op": s.op, "layer": s.layer, "name": s.name,
                    "parent": s.parent, "start": s.start, "end": s.end,
                }) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost one span adds to a call that does nothing."""
    def noop():
        return None

    traced = Tracer(-1, ()).wrap(noop, "bench", "noop")
    start = perf_counter()
    for _ in range(samples):
        noop()
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        traced()
    return max(perf_counter() - start - plain, 0.0) / samples
