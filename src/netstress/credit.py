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

import numpy as np

from .economy import EconomyGraph


@dataclass
class ProfitShock:
    """Per-firm profit reduction; zero for firms without financials."""

    dp: np.ndarray


@dataclass
class DefaultFlags:
    chi: np.ndarray  # bool per firm

    def count(self) -> int:
        return int(self.chi.sum())


@dataclass
class BankLossLedger:
    """Per-bank loss fractions by channel.

    ``di`` and ``sc`` are raw (unclamped) fractions of equity; the contagion
    seeds, and every loss level built on them, clamp at one full equity.
    """

    di: np.ndarray
    sc: np.ndarray

    def seed_without(self) -> np.ndarray:
        """Contagion seed for the regime without supply-chain effects."""
        return np.minimum(self.di, 1.0)

    def seed_with(self) -> np.ndarray:
        """Contagion seed for the regime with supply-chain effects."""
        return np.minimum(self.di + self.sc, 1.0)

    def levels(self, ib_wo, ib_w) -> dict[str, np.ndarray]:
        """Cumulative loss levels: ``di`` and ``di_ib`` without supply-chain
        contagion, ``di_sc`` and ``di_sc_ib`` with it."""
        seed_wo, seed_w = self.seed_without(), self.seed_with()
        return {"di": seed_wo, "di_sc": seed_w,
                "di_ib": np.minimum(seed_wo + ib_wo, 1.0), "di_sc_ib": np.minimum(seed_w + ib_w, 1.0)}


def profit_shock(g: EconomyGraph, h) -> ProfitShock:
    """Profit lost per firm given remaining production levels ``h``.

    ``dp[i] = (1 - h[i]) * (revenue[i] - op_cost[i])`` for firms with financials, zero for
    the others. ``h`` is a vector or (S, n) rows, one scenario each; the flags and seeds keep its rows.
    """
    levels = np.asarray(h, dtype=float)
    if levels.ndim not in (1, 2) or levels.shape[-1:] != (g.n,):
        raise ValueError(f"production levels have shape {levels.shape}, expected ({g.n},) or (S, {g.n})")
    dp = np.where(g.financials_present, (1.0 - levels) * (g.revenue - g.op_cost), 0.0)
    return ProfitShock(dp=dp)


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
    """Per-bank loss fraction from writing off the defaulted firms' loans; one row per row of flags."""
    written_off = g.loans.by_bank @ flags.chi.T.astype(float)
    # row-major like every (S, ·) array: BLAS sums a column-major matrix's rows in another order
    return g.loans.lgd * np.ascontiguousarray(written_off.T) / g.bank_equity


def bank_losses(g: EconomyGraph, chi_w: DefaultFlags, chi_wo: DefaultFlags) -> BankLossLedger:
    """Split bank losses into the direct and supply-chain channels.

    Requires the with-contagion default set to contain the without-contagion
    one: the cascade can only add defaults.
    """
    regression = chi_wo.chi & ~chi_w.chi
    if regression.any():
        fid = g.firm_ids[int(np.flatnonzero(regression)[0]) % g.n]
        raise ValueError(
            f"firm {fid!r} defaults without supply-chain contagion but not with it; "
            "contagion can only add defaults"
        )
    di = bank_seed(g, chi_wo)
    added = DefaultFlags(chi=chi_w.chi & ~chi_wo.chi)
    return BankLossLedger(di=di, sc=bank_seed(g, added))
