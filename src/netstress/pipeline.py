"""End-to-end scenario runs: shock -> cascade -> defaults -> bank losses.

Every scenario is evaluated in both regimes. The regime without
supply-chain contagion takes the raw shock as the final production levels;
the regime with contagion propagates it first. Both sets of bank losses
then seed the interbank solvency contagion separately.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .credit import bank_losses, default_flags, profit_shock
from .debtrank import DEFAULT_EPSILON, DEFAULT_MAX_ITER, debtrank
from .economy import EconomyGraph
from .propagation import CHUNK, PropagationConfig, _plan_for, propagate
from .scenarios import ShockBatch
from .tables import write_long


@dataclass
class BatchResult:
    """Stacked channel losses over a scenario batch; one row per scenario,
    named by ``scenario_ids`` in every output."""

    bank_ids: list[str]
    bank_equity: np.ndarray
    di: np.ndarray      # (scenarios, banks)
    sc: np.ndarray
    ib_wo: np.ndarray
    ib_w: np.ndarray
    sc_converged: np.ndarray
    dr_wo_converged: np.ndarray
    dr_w_converged: np.ndarray
    scenario_ids: list[int]

    def __len__(self) -> int:
        return self.di.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(
            self.sc_converged.all() and self.dr_wo_converged.all() and self.dr_w_converged.all()
        )


# the per-firm arrays of a chunk, made only for ``run_batch`` to write them out
PER_FIRM = ("chi_wo", "chi_w", "dp_w")


def _run_chunk(g, cfg, dr_epsilon, dr_max_iter, per_firm, psi) -> dict[str, np.ndarray]:
    """The arrays of the scenarios ``psi``, a row each; with ``per_firm``, the :data:`PER_FIRM` arrays too."""
    # each stage is looked up here per chunk: benchmarks/tracing.py wraps them in this namespace
    chi_wo = default_flags(g, profit_shock(g, psi))
    profile = propagate(g, psi, cfg)
    shock_w = profit_shock(g, profile.h)
    chi_w = default_flags(g, shock_w)
    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    # both regimes in one call: the rows without supply-chain contagion, then those with it
    seeds = np.concatenate([ledger.seed_without(), ledger.seed_with()])
    result = debtrank(g, seeds, epsilon=dr_epsilon, max_iter=dr_max_iter)
    out = {"di": ledger.di, "sc": ledger.sc, "sc_converged": profile.done}
    out["ib_wo"], out["ib_w"] = np.split(result.ib_marginal, 2)
    out["dr_wo_converged"], out["dr_w_converged"] = np.split(result.done, 2)
    if per_firm:
        out.update(chi_wo=chi_wo.chi, chi_w=chi_w.chi, dp_w=shock_w.dp)
    return out


def _chunk_results(chunks, shared: tuple, workers: int):
    """Each chunk's arrays in scenario order; on ``workers`` threads, at most ``2 * workers`` chunks in flight."""
    run = partial(_run_chunk, *shared)
    if workers < 2:
        yield from map(run, chunks)  # each chunk goes before the next one is drawn
        return
    _plan_for(shared[0])  # built here, so that no two threads build it
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for psi in chunks:
            pending.append(pool.submit(run, psi))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _per_firm(chunks, kept: list):
    """The :data:`PER_FIRM` arrays of each chunk as it comes; the rest of the chunk goes into ``kept``."""
    for chunk in chunks:
        kept.append(chunk)
        yield tuple(chunk.pop(name) for name in PER_FIRM)


def run_batch(
    g: EconomyGraph,
    batch: ShockBatch,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
    defaults: str | Path | None = None,
) -> BatchResult:
    """Run a whole batch, optionally on a pool of ``workers`` threads.

    The batch is read a chunk of :data:`CHUNK` scenarios at a time, so a
    generated batch is never held whole. The threads share the graph and
    its propagation plan, and at most ``2 * workers`` chunks are in flight.
    Results are reduced in scenario order, so the output is identical for
    any worker count and any chunk width. Each chunk's default flags and
    profit shocks are written to ``defaults``, if given, as it comes back,
    and then dropped.
    """
    if len(batch) == 0:
        raise ValueError("batch has no scenarios")
    shared = (g, cfg, dr_epsilon, dr_max_iter, defaults is not None)
    chunks = _chunk_results(batch.blocks(CHUNK), shared, workers)
    if defaults is None:
        kept = list(chunks)
    else:
        kept = []
        write_long(defaults, ["scenario_id", "firm_id", "chi_wo", "chi_w", "dp"], batch.scenario_ids, g.firm_ids,
                   _per_firm(chunks, kept))
    return BatchResult(
        bank_ids=list(g.bank_ids),
        bank_equity=g.bank_equity.copy(),
        scenario_ids=list(batch.scenario_ids),
        **{name: np.concatenate([chunk[name] for chunk in kept]) for name in kept[0]},
    )
