"""From production losses to firm defaults and bank loss fractions.

A firm's profit shock is the lost production share times its profit
margin. It defaults when that shock exhausts either its equity or its
short-term liquidity (boundary counts as default). Defaulted loans are
written off at the configured loss-given-default and expressed as
fractions of each bank's Tier 1 equity, split into the direct channel
(defaults from the raw shock) and the supply-chain channel (additional
defaults caused by the cascade).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .economy import EconomyGraph
from .propagation import ProductionProfile
from .tables import fmt, write_csv


@dataclass
class ProfitShock:
    """Per-firm profit reduction; meaningless (zero) for firms without financials."""

    dp: np.ndarray
    has_financials: np.ndarray


@dataclass
class DefaultFlags:
    chi: np.ndarray  # bool per firm

    def count(self) -> int:
        return int(self.chi.sum())


@dataclass
class BankLossLedger:
    """Per-bank loss fractions by channel.

    ``di`` and ``sc`` are raw (unclamped) fractions of equity; clamping to
    one full equity happens only at reporting boundaries via
    ``total_without`` / ``total_with``. The interbank components are filled
    by the solvency-contagion stage.
    """

    di: np.ndarray
    sc: np.ndarray
    ib_wo: np.ndarray | None = None
    ib_w: np.ndarray | None = None

    def seed_without(self) -> np.ndarray:
        """Contagion seed for the regime without supply-chain effects."""
        return np.minimum(self.di, 1.0)

    def seed_with(self) -> np.ndarray:
        """Contagion seed for the regime with supply-chain effects."""
        return np.minimum(self.di + self.sc, 1.0)

    def total_without(self) -> np.ndarray:
        if self.ib_wo is None:
            raise ValueError("interbank losses not filled in yet")
        return np.minimum(self.seed_without() + self.ib_wo, 1.0)

    def total_with(self) -> np.ndarray:
        if self.ib_w is None:
            raise ValueError("interbank losses not filled in yet")
        return np.minimum(self.seed_with() + self.ib_w, 1.0)


def _as_levels(h) -> np.ndarray:
    if isinstance(h, ProductionProfile):
        return h.h
    return np.asarray(h, dtype=float)


def profit_shock(g: EconomyGraph, h) -> ProfitShock:
    """Profit lost per firm given remaining production levels ``h``.

    ``dp[i] = (1 - h[i]) * (revenue[i] - op_cost[i])`` for firms with
    financials; firms without financials get zero and are marked.
    """
    levels = _as_levels(h)
    if levels.shape != (g.n,):
        raise ValueError(f"production levels have shape {levels.shape}, expected ({g.n},)")
    dp = np.where(g.financials_present, (1.0 - levels) * (g.revenue - g.op_cost), 0.0)
    return ProfitShock(dp=dp, has_financials=g.financials_present.copy())


def default_flags(g: EconomyGraph, shock: ProfitShock) -> DefaultFlags:
    """Default indicator: profit losses exhaust equity or liquidity.

    Only firms eligible for default can flip; the boundary case (buffer
    exactly exhausted) counts as a default.
    """
    dp = shock.dp
    equity_gone = (g.equity - dp) <= 0.0
    liquidity_gone = (g.short_assets - g.short_liabs - dp) <= 0.0
    return DefaultFlags(chi=g.eligible_for_default & (equity_gone | liquidity_gone))


def bank_seed(g: EconomyGraph, flags: DefaultFlags) -> np.ndarray:
    """Per-bank loss fraction from writing off the defaulted firms' loans."""
    written_off = g.loans.by_bank @ flags.chi.astype(float)
    return g.loans.lgd * np.asarray(written_off).ravel() / g.bank_equity


def bank_losses(g: EconomyGraph, chi_w: DefaultFlags, chi_wo: DefaultFlags) -> BankLossLedger:
    """Split bank losses into the direct and supply-chain channels.

    Requires the with-contagion default set to contain the without-contagion
    one: the cascade can only add defaults.
    """
    regression = chi_wo.chi & ~chi_w.chi
    if regression.any():
        fid = g.firm_ids[int(np.flatnonzero(regression)[0])]
        raise ValueError(
            f"firm {fid!r} defaults without supply-chain contagion but not with it; "
            "contagion can only add defaults"
        )
    di = bank_seed(g, chi_wo)
    added = DefaultFlags(chi=chi_w.chi & ~chi_wo.chi)
    return BankLossLedger(di=di, sc=bank_seed(g, added))


def dump_defaults(
    path: str | Path,
    scenario_ids,
    chi_wo_rows,
    chi_w_rows,
    dp_rows,
    firm_ids: list[str],
) -> None:
    """Write per-scenario default flags and profit shocks as long-format CSV."""
    write_csv(path, ["scenario_id", "firm_id", "chi_wo", "chi_w", "dp"], (
        [sid, fid, int(wo[i]), int(w[i]), fmt(dp[i])]
        for sid, wo, w, dp in zip(scenario_ids, chi_wo_rows, chi_w_rows, dp_rows)
        for i, fid in enumerate(firm_ids)
    ))
