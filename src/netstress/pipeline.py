"""End-to-end scenario runs: shock -> cascade -> defaults -> bank losses.

Every scenario is evaluated in both regimes. The regime without
supply-chain contagion takes the raw shock as the final production levels;
the regime with contagion propagates it first. Both sets of bank losses
then seed the interbank solvency contagion separately.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .credit import bank_losses, default_flags, profit_shock
from .debtrank import DEFAULT_EPSILON, DEFAULT_MAX_ITER, debtrank
from .economy import EconomyGraph
from .propagation import PropagationConfig, propagate
from .scenarios import ShockBatch


@dataclass
class ScenarioOutcome:
    """Per-bank channel losses for one scenario, raw (unclamped) fractions."""

    di: np.ndarray
    sc: np.ndarray
    ib_wo: np.ndarray
    ib_w: np.ndarray
    chi_wo: np.ndarray
    chi_w: np.ndarray
    dp_w: np.ndarray
    sc_iterations: int
    sc_converged: bool
    dr_wo_converged: bool
    dr_w_converged: bool


def run_scenario(
    g: EconomyGraph,
    psi,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
) -> ScenarioOutcome:
    """Run one shock through both regimes end to end."""
    shock_wo = profit_shock(g, psi)
    chi_wo = default_flags(g, shock_wo)

    profile = propagate(g, psi, cfg)
    shock_w = profit_shock(g, profile.h)
    chi_w = default_flags(g, shock_w)

    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    result_wo = debtrank(g, ledger.seed_without(), epsilon=dr_epsilon, max_iter=dr_max_iter)
    result_w = debtrank(g, ledger.seed_with(), epsilon=dr_epsilon, max_iter=dr_max_iter)
    return ScenarioOutcome(
        di=ledger.di,
        sc=ledger.sc,
        ib_wo=result_wo.ib_marginal,
        ib_w=result_w.ib_marginal,
        chi_wo=chi_wo.chi,
        chi_w=chi_w.chi,
        dp_w=shock_w.dp,
        sc_iterations=profile.iterations,
        sc_converged=profile.converged,
        dr_wo_converged=result_wo.converged,
        dr_w_converged=result_w.converged,
    )


@dataclass
class BatchResult:
    """Stacked channel losses over a scenario batch; one row per scenario.

    ``scenario_ids`` name the rows in every output; they default to
    ``0 .. len - 1``.
    """

    bank_ids: list[str]
    bank_equity: np.ndarray
    di: np.ndarray      # (scenarios, banks)
    sc: np.ndarray
    ib_wo: np.ndarray
    ib_w: np.ndarray
    sc_converged: np.ndarray
    dr_wo_converged: np.ndarray
    dr_w_converged: np.ndarray
    chi_wo: np.ndarray | None = None  # (scenarios, firms), kept only on request
    chi_w: np.ndarray | None = None
    dp_w: np.ndarray | None = None
    scenario_ids: list[int] | None = None

    def __post_init__(self):
        if self.scenario_ids is None:
            self.scenario_ids = list(range(len(self)))

    def __len__(self) -> int:
        return self.di.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(
            self.sc_converged.all() and self.dr_wo_converged.all() and self.dr_w_converged.all()
        )


def _run_block(g, cfg, dr_epsilon, dr_max_iter, psi_block) -> list[ScenarioOutcome]:
    return [
        run_scenario(g, psi, cfg, dr_epsilon=dr_epsilon, dr_max_iter=dr_max_iter)
        for psi in psi_block
    ]


def run_batch(
    g: EconomyGraph,
    batch: ShockBatch,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
    keep_defaults: bool = False,
) -> BatchResult:
    """Run a whole batch, optionally over a process pool.

    Results are reduced in scenario order, so the output is identical for
    any worker count.
    """
    n_scenarios = len(batch)
    if workers > 1 and n_scenarios > 1:
        blocks = np.array_split(batch.psi, min(workers * 4, n_scenarios))
        work = partial(_run_block, g, cfg, dr_epsilon, dr_max_iter)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for block in pool.map(work, blocks) for o in block]
    else:
        outcomes = _run_block(g, cfg, dr_epsilon, dr_max_iter, batch.psi)

    return BatchResult(
        bank_ids=list(g.bank_ids),
        bank_equity=g.bank_equity.copy(),
        di=np.vstack([o.di for o in outcomes]),
        sc=np.vstack([o.sc for o in outcomes]),
        ib_wo=np.vstack([o.ib_wo for o in outcomes]),
        ib_w=np.vstack([o.ib_w for o in outcomes]),
        sc_converged=np.array([o.sc_converged for o in outcomes]),
        dr_wo_converged=np.array([o.dr_wo_converged for o in outcomes]),
        dr_w_converged=np.array([o.dr_w_converged for o in outcomes]),
        chi_wo=np.vstack([o.chi_wo for o in outcomes]) if keep_defaults else None,
        chi_w=np.vstack([o.chi_w for o in outcomes]) if keep_defaults else None,
        dp_w=np.vstack([o.dp_w for o in outcomes]) if keep_defaults else None,
        scenario_ids=list(batch.scenario_ids),
    )
