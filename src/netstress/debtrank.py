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

A call runs one seed vector or (S, m) rows, each stopping at its own step.
Every product is one row's vector product, not an (S, m) matrix product
whose blocked sums change the last bits, so a row gets the bits of a run
on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import EconomyGraph

DEFAULT_EPSILON = 0.01
DEFAULT_MAX_ITER = 1000


@dataclass
class ContagionResult:
    """Seed and converged loss fractions of a contagion run, shaped like the seeds.

    ``final`` keeps the raw (unclamped) recursion values for diagnostics;
    clamp with ``min(final, 1)`` at aggregation boundaries.
    """

    initial: np.ndarray
    final: np.ndarray
    iterations: int    # updates, summed over the rows
    converged: bool    # whether every row is done
    steps: np.ndarray  # per row: updates made
    done: np.ndarray   # per row: whether its increment fell to epsilon
    trace: np.ndarray | None = None  # (max(steps) + 1, *seed shape) including the seed; a row stays at its stop

    @property
    def ib_marginal(self) -> np.ndarray:
        """Losses added by interbank contagion on top of the seed."""
        return self.final - self.initial


def _row_products(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``x[k] @ matrix`` for each row k of ``x``, one vector product a row."""
    return (x[:, None, :] @ matrix)[:, 0]


def debtrank(
    g: EconomyGraph,
    seed,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trace: bool = False,
) -> ContagionResult:
    """Run solvency contagion from per-bank seed losses, a vector or (S, m) rows.

    A row stops once the equity-weighted loss increment of the banking
    system, ``sum_k e_k * (loss_k(t) - loss_k(t-1)) / sum_k e_k``, drops to
    ``epsilon`` or below; one still above it after ``max_iter`` updates
    has ``done`` False. Deterministic; ``final >= seed`` elementwise.
    """
    seed = np.asarray(seed, dtype=float)
    if seed.ndim not in (1, 2) or seed.shape[-1:] != (g.m,):
        raise ValueError(f"seed has shape {seed.shape}, expected ({g.m},) or (S, {g.m})")
    if not np.all(np.isfinite(seed) & (seed >= 0.0)):
        raise ValueError("seed losses must be finite and non-negative")
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    leverage = g.leverage
    equity = g.bank_equity[:, None]
    total_equity = float(equity.sum())

    rows = np.atleast_2d(seed)
    losses = rows.copy()
    steps, done = np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows), dtype=bool)
    trace = [losses.copy()] if record_trace else None
    live = np.arange(len(rows))  # the rows still running
    for step in range(1, max_iter + 1):
        current = losses[live]
        updated = rows[live] + _row_products(np.minimum(current, 1.0), leverage)
        below = _row_products(updated - current, equity)[:, 0] / total_equity <= epsilon
        losses[live], steps[live] = updated, step
        done[live[below]] = True
        live = live[~below]
        if trace is not None:
            trace.append(losses.copy())
        if not live.size:
            break
    return ContagionResult(
        initial=seed.copy(),
        final=losses.reshape(seed.shape),
        iterations=int(steps.sum()),
        converged=bool(done.all()),
        steps=steps,
        done=done,
        trace=np.asarray(trace).reshape(len(trace), *seed.shape) if trace is not None else None,
    )


@dataclass
class DebtRankProfile:
    """System-wide impact of each bank's hypothetical full default."""

    bank_ids: list[str]
    total: np.ndarray           # equity-weighted system loss fraction
    contagion_only: np.ndarray  # total minus the failing bank's own equity share
    run: ContagionResult        # the runs behind it: row k seeds bank k's full default


def debtrank_profile(
    g: EconomyGraph,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trace: bool = False,
) -> DebtRankProfile:
    """Full-default impact per bank: a unit loss seeded on each bank, one row each."""
    equity = g.bank_equity
    share = equity / equity.sum()
    run = debtrank(g, np.eye(g.m), epsilon=epsilon, max_iter=max_iter, record_trace=record_trace)
    total = _row_products(np.minimum(run.final, 1.0), share[:, None])[:, 0]
    return DebtRankProfile(bank_ids=list(g.bank_ids), total=total, contagion_only=total - share, run=run)
