"""Systemic-risk indices, loss risk measures and batch statistics.

The per-firm indices weight each bank's clamped equity loss by its share
of total banking-system equity: the base index stops after the credit
losses, the extended index additionally runs interbank solvency
contagion. Both are the with-cascade system losses (``di_sc`` and
``di_sc_ib``) of single-firm scenarios run through ``run_batch``; the
output-loss index ESRI propagates the same single-firm shock. Batch
statistics cover expected loss / value at risk / expected shortfall per
channel, interbank amplification distributions and the regression and
test utilities used to summarise them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credit import BankLossLedger

# benchmarks/tracing.py wraps bank_seed, default_flags, profit_shock and debtrank in this namespace
from .credit import bank_seed, default_flags, profit_shock  # noqa: F401
from .debtrank import DEFAULT_EPSILON, DEFAULT_MAX_ITER, debtrank  # noqa: F401
from .economy import EconomyGraph
from .pipeline import BatchResult, run_batch
from .propagation import PropagationConfig, propagate
from .scenarios import single_firm_batch

CHANNELS = ("di", "di_sc", "di_ib", "di_sc_ib")
CHANNEL_REGIME = {"di": "wo", "di_sc": "w", "di_ib": "wo", "di_sc_ib": "w"}


# ---------------------------------------------------------------------------
# risk measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskSummary:
    """Expected loss, 95% value at risk and 95% expected shortfall."""

    el: float
    var95: float
    es95: float


def risk_measures(samples) -> RiskSummary:
    """Summarise a loss sample: mean, 95% order statistic, mean of worst 5%.

    The value at risk is the order statistic at (1-based) rank
    ceil(0.95 * N) without interpolation; the expected shortfall averages
    the largest ceil(0.05 * N) samples.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("risk measures need at least one sample")
    ordered = np.sort(x)
    n = ordered.size
    var_rank = -((-19 * n) // 20)   # ceil(0.95 n) in exact integer arithmetic
    tail = -((-n) // 20)            # ceil(0.05 n)
    return RiskSummary(
        el=float(x.mean()),
        var95=float(ordered[var_rank - 1]),
        es95=float(ordered[n - tail:].mean()),
    )


# ---------------------------------------------------------------------------
# per-firm systemic risk indices
# ---------------------------------------------------------------------------


def fsri_profile(
    g: EconomyGraph,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    firm_ids: list[str] | None = None,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """FSRI and FSRI+ of each firm's failure, in :func:`single_firm_batch` order (every firm by default):
    the equity-weighted with-cascade system losses ``di_sc`` and ``di_sc_ib``."""
    result = run_batch(g, single_firm_batch(g, firm_ids), cfg, dr_epsilon=dr_epsilon, dr_max_iter=dr_max_iter)
    system = ChannelDecomposition(result).system_losses()
    return system["di_sc"], system["di_sc_ib"]


def fsri(g: EconomyGraph, firm_id: str, cfg: PropagationConfig = PropagationConfig()) -> float:
    """Equity-weighted banking-system loss from one firm's failure.

    The loss after the supply-chain cascade and the credit channel, before
    interbank contagion.
    """
    base, _ = fsri_profile(g, cfg, firm_ids=[firm_id])
    return float(base[0])


def fsri_plus(
    g: EconomyGraph,
    firm_id: str,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Like :func:`fsri` but with interbank solvency contagion on top."""
    _, plus = fsri_profile(g, cfg, firm_ids=[firm_id], dr_epsilon=dr_epsilon, dr_max_iter=dr_max_iter)
    return float(plus[0])


def compute_esri(
    g: EconomyGraph, firm_id: str, cfg: PropagationConfig = PropagationConfig()
) -> float:
    """Fraction of total system output lost if one firm stops producing.

    Output weights are intermediate sales plus the final-demand proxy, so a
    firm with 10% of total output and no supply links scores exactly 0.10.
    """
    profile = propagate(g, next(single_firm_batch(g, [firm_id]).blocks(1))[0], cfg)
    out = g.total_output()
    total = out.sum()
    if total <= 0.0:
        raise ValueError("economy has zero total output; impact share undefined")
    return float(out @ (1.0 - profile.h) / total)


def ccdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival function: fraction of samples >= each level."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("ccdf needs at least one sample")
    levels, counts = np.unique(x, return_counts=True)
    below = np.cumsum(counts) - counts
    survival = (x.size - below) / x.size
    return levels, survival


# ---------------------------------------------------------------------------
# channel decomposition over scenario batches
# ---------------------------------------------------------------------------


@dataclass
class ChannelDecomposition:
    """Per-scenario channel losses and the summaries built from them."""

    result: BatchResult

    @property
    def bank_ids(self) -> list[str]:
        return self.result.bank_ids

    def channel_losses(self) -> dict[str, np.ndarray]:
        """Cumulative per-bank loss levels, clamped at one full equity (:meth:`BankLossLedger.levels`)."""
        r = self.result
        return BankLossLedger(di=r.di, sc=r.sc).levels(r.ib_wo, r.ib_w)

    def system_losses(self) -> dict[str, np.ndarray]:
        """Equity-weighted system loss per scenario for each channel."""
        equity = self.result.bank_equity
        share = equity / equity.sum()
        return {name: losses @ share for name, losses in self.channel_losses().items()}

    def summaries(self) -> list[tuple[str, str, str, RiskSummary]]:
        """(bank, channel, regime, summary) rows; 'system' rows lead."""
        rows: list[tuple[str, str, str, RiskSummary]] = []
        system = self.system_losses()
        for channel in CHANNELS:
            rows.append(("system", channel, CHANNEL_REGIME[channel], risk_measures(system[channel])))
        losses = self.channel_losses()
        for k, bank_id in enumerate(self.bank_ids):
            for channel in CHANNELS:
                rows.append(
                    (bank_id, channel, CHANNEL_REGIME[channel], risk_measures(losses[channel][:, k]))
                )
        return rows

    # no report reads the records; kept because benchmarks/tracing.py wraps this method
    def amplification_records(self) -> list["AmplificationRecord"]:
        r = self.result
        return [
            AmplificationRecord(
                bank_id=self.bank_ids[k],
                scenario=scenario,
                ib_wo=float(r.ib_wo[s, k]),
                ib_w=float(r.ib_w[s, k]),
            )
            for s, scenario in enumerate(r.scenario_ids)
            for k in range(len(self.bank_ids))
        ]


# ---------------------------------------------------------------------------
# interbank amplification statistics
# ---------------------------------------------------------------------------


@dataclass
class AmplificationRecord:  # what amplification_records returns, kept with it
    bank_id: str
    scenario: int
    ib_wo: float
    ib_w: float

    @property
    def ratio(self) -> float:
        """Interbank loss amplification; nan when there is nothing to amplify."""
        if self.ib_wo == 0.0:
            return float("nan")
        return self.ib_w / self.ib_wo


@dataclass
class AmplificationStats:
    pooled_ratios: np.ndarray
    pooled_levels: np.ndarray
    pooled_survival: np.ndarray
    n_undefined: int


def ib_amplification(ib_wo, ib_w) -> AmplificationStats:
    """Distribution of the ratios ``ib_w / ib_wo`` of (scenario, bank) interbank losses with and
    without the supply-chain cascade. A pair without interbank loss has no defined ratio and is
    excluded, with the exclusion count reported. Raises when no ratio at all is defined.
    """
    ib_wo, ib_w = (np.asarray(a, dtype=float).ravel() for a in (ib_wo, ib_w))
    defined = ib_wo != 0.0
    if not defined.any():
        raise ValueError("all amplification ratios are undefined (no interbank losses)")
    pooled = ib_w[defined] / ib_wo[defined]
    return AmplificationStats(pooled, *ccdf(pooled), n_undefined=int((~defined).sum()))


# ---------------------------------------------------------------------------
# regression and test utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    log_log: bool
    n: int


def ols_fit(x, y, log_log: bool = False) -> FitResult:
    """Least-squares line through (x, y); with ``log_log`` the slope is the
    power-law exponent fit on the log-transformed variables."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 3:
        raise ValueError("need at least three points to fit")
    if log_log:
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            raise ValueError("log-log fit requires strictly positive data")
        x = np.log(x)
        y = np.log(y)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("x has zero variance; slope undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    sst = float(dy @ dy)
    r_squared = 1.0 if sst == 0.0 else 1.0 - float(residuals @ residuals) / sst
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, log_log=log_log, n=x.size)


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    p_value: float
    df: float


def welch_test(a, b) -> WelchResult:
    """Two-sample unequal-variance t test.

    The statistic and the Welch-Satterthwaite degrees of freedom are
    computed directly; the two-sided p-value comes from the t-distribution
    survival function. ``scipy.stats`` is imported here, on the first
    call, so that importing the package does not load it.
    """
    from scipy import stats

    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two samples per group")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va <= 0.0 or vb <= 0.0:
        raise ValueError("degenerate variance; test undefined")
    sa, sb = va / a.size, vb / b.size
    t = (float(a.mean()) - float(b.mean())) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = 2.0 * float(stats.t.sf(abs(t), df))
    return WelchResult(t_statistic=float(t), p_value=p, df=float(df))
