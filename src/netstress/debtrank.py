"""Linearized solvency contagion over the interbank leverage matrix.

Seeded bank losses (fractions of Tier 1 equity) spread through interbank
assets: when borrower l has lost the clamped fraction min(loss_l, 1) of
its equity, every creditor k marks down its asset on l proportionally.
Each round transmits only the increment of the clamped losses, so a bank
that has fully defaulted (loss >= 1) spreads nothing further. That rule
telescopes to the fixed-point update

    loss(t+1) = seed + min(loss(t), 1) @ leverage

with leverage[l, k] = liabilities[l, k] / equity[k], which is what the
implementation iterates. The loss sequence is non-decreasing and the
stopping rule measures the relative equity change of the whole banking
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .economy import EconomyGraph
from .tables import fmt, write_csv

DEFAULT_EPSILON = 0.01
DEFAULT_MAX_ITER = 1000


@dataclass
class ContagionResult:
    """Seed and converged loss fractions for one contagion run.

    ``final`` keeps the raw (unclamped) recursion values for diagnostics;
    clamp with ``min(final, 1)`` at aggregation boundaries.
    """

    initial: np.ndarray
    final: np.ndarray
    iterations: int
    converged: bool
    trace: np.ndarray | None = None  # (iterations + 1, m) including the seed

    @property
    def ib_marginal(self) -> np.ndarray:
        """Losses added by interbank contagion on top of the seed."""
        return self.final - self.initial


def debtrank(
    g: EconomyGraph,
    seed,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trace: bool = False,
) -> ContagionResult:
    """Run solvency contagion from per-bank seed losses.

    Stops once the equity-weighted loss increment of the banking system,
    ``sum_k e_k * (loss_k(t) - loss_k(t-1)) / sum_k e_k``, drops to
    ``epsilon`` or below. Deterministic; ``final >= seed`` elementwise.
    """
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (g.m,):
        raise ValueError(f"seed has shape {seed.shape}, expected ({g.m},)")
    if np.any(seed < 0.0):
        raise ValueError("seed losses must be non-negative")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")

    leverage = g.interbank.leverage(g.bank_equity)
    equity = g.bank_equity
    total_equity = float(equity.sum())

    losses = seed.copy()
    trace = [losses.copy()] if record_trace else None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        updated = seed + np.minimum(losses, 1.0) @ leverage
        change = float(equity @ (updated - losses)) / total_equity
        losses = updated
        if trace is not None:
            trace.append(losses.copy())
        if change <= epsilon:
            converged = True
            break
    return ContagionResult(
        initial=seed.copy(),
        final=losses,
        iterations=iterations,
        converged=converged,
        trace=np.asarray(trace) if trace is not None else None,
    )


@dataclass
class DebtRankProfile:
    """System-wide impact of each bank's hypothetical full default."""

    bank_ids: list[str]
    total: np.ndarray           # equity-weighted system loss fraction
    contagion_only: np.ndarray  # total minus the failing bank's own equity share


def debtrank_profile(
    g: EconomyGraph,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DebtRankProfile:
    """Full-default impact per bank: seed a unit loss on each bank in turn."""
    equity = g.bank_equity
    share = equity / equity.sum()
    total = np.zeros(g.m)
    for k in range(g.m):
        seed = np.zeros(g.m)
        seed[k] = 1.0
        result = debtrank(g, seed, epsilon=epsilon, max_iter=max_iter)
        total[k] = float(share @ np.minimum(result.final, 1.0))
    return DebtRankProfile(bank_ids=list(g.bank_ids), total=total, contagion_only=total - share)


def write_trace(result: ContagionResult, bank_ids: list[str], path: str | Path) -> None:
    """Dump a recorded contagion trace as (iteration, bank_id, loss) rows."""
    if result.trace is None:
        raise ValueError("result carries no trace; run with record_trace=True")
    write_csv(path, ["iteration", "bank_id", "loss"], (
        [t, bid, fmt(value)]
        for t, row in enumerate(result.trace)
        for bid, value in zip(bank_ids, row)
    ))
