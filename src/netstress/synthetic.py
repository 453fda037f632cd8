"""Synthetic desk-scale economies and stand-in empirical shock tables.

Real supply-chain, loan and interbank registries cannot be redistributed,
so the generator produces structurally similar economies: a sparse random
supply network with sector labels, firm financials consistent with the
eligibility rules, a loan book scaled to a target firm-to-interbank
exposure ratio, and a small interbank layer. Everything is a pure
function of the parameters and the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .economy import (
    DataFormatError,
    EconomyGraph,
    EconomyValidationError,
    EssentialityTable,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    firm_columns,
    validate_economy,
)
from .scenarios import EmpiricalShockTable

# the parameters that are fractions of something, each in [0, 1]
FRACTIONS = (
    "missing_financials_rate", "negative_income_rate", "loan_coverage",
    "interbank_density", "essential_fraction",
)
# the distributions a supply edge weight can be drawn from
WEIGHT_FAMILIES = ("lognormal", "pareto", "uniform")


@dataclass(frozen=True)
class SyntheticParams:
    """Generator knobs; the defaults give a stress-testable mid-size economy."""

    n: int = 1000
    m: int = 19
    mean_degree: float = 4.0
    sector_count: int = 20
    target_exposure_ratio: float | None = 12.5
    weight_family: str = "lognormal"  # one of WEIGHT_FAMILIES
    missing_financials_rate: float = 0.05
    negative_income_rate: float = 0.03
    loan_coverage: float = 0.6
    interbank_density: float = 0.3
    essential_fraction: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one firm and one bank")
        # at most n - 1 suppliers per buyer, and so a bounded candidate draw
        if not 0.0 <= self.mean_degree <= self.n - 1:
            raise ValueError(f"mean_degree must lie in [0, n - 1] = [0, {self.n - 1}], got {self.mean_degree}")
        if self.sector_count < 1:
            raise ValueError("sector_count must be >= 1")
        if self.weight_family not in WEIGHT_FAMILIES:
            raise ValueError(f"unknown weight family {self.weight_family!r}")
        if self.target_exposure_ratio is not None and not 0.0 < self.target_exposure_ratio < np.inf:
            raise ValueError("target exposure ratio must be positive and finite (or None to skip)")
        for name in FRACTIONS:
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def _sector_codes(count: int) -> list[str]:
    # consecutive codes share the two-digit prefix so the four-to-two digit
    # imputation fallback has real work to do
    return [f"{10 + s // 2:02d}{s % 2:02d}" for s in range(count)]


def _edge_weights(rng: np.random.Generator, family: str, size: int) -> np.ndarray:
    if family == "lognormal":
        return rng.lognormal(mean=3.0, sigma=1.0, size=size)
    if family == "pareto":
        return 10.0 * (1.0 + rng.pareto(2.5, size=size))
    return rng.uniform(5.0, 50.0, size=size)


def _supply_network(rng: np.random.Generator, n: int, mean_degree: float, family: str) -> SupplyNetwork:
    """Directed random edges without self-loops; the candidate draws are freed on return."""
    n_edges = int(round(n * mean_degree)) if n >= 2 else 0
    if not n_edges:
        return SupplyNetwork.from_edges(n, [], [], [])
    pairs = np.empty(0, dtype=np.int64)
    while pairs.size < n_edges:  # a dense request can need more than one round of candidates
        drawn = rng.integers(0, n, size=2 * n_edges)  # the suppliers, made pair numbers in place
        buyers = rng.integers(0, n, size=2 * n_edges)
        keep = drawn != buyers
        # supplier * n + buyer sorts like the (supplier, buyer) pair
        drawn *= n
        drawn += buyers
        del buyers
        pairs = np.concatenate((pairs, drawn[keep])) if pairs.size else drawn[keep]
        del drawn, keep
        pairs.sort()
        pairs = pairs[np.insert(pairs[1:] != pairs[:-1], 0, True)]  # np.unique without its copies
    order = rng.permutation(pairs.size)[:n_edges]
    pairs = pairs[np.sort(order)]
    weights = _edge_weights(rng, family, pairs.size)
    return SupplyNetwork.from_edges(n, pairs // n, pairs % n, weights)


class _BankPick:
    """The distributions of ``rng.choice(m, size, replace=False, p=p)`` for size 1 or 2.

    ``_loan_book`` draws the same numbers and picks the same banks: a uniform
    draw per pick, searched in the cumulative distribution, and after a
    repeat one more draw searched with the first bank's probability set to zero.
    """

    def __init__(self, p: np.ndarray):
        self.cdf = self._cdf(p)
        # the distribution of the second draw after a repeat of bank k
        banks = np.arange(p.size)
        self.without = [self._cdf(np.where(banks == k, 0.0, p)) for k in banks] if p.size > 1 else []

    @staticmethod
    def _cdf(p: np.ndarray) -> list[float]:
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return cdf.tolist()


# eligible firms per block of pre-drawn uniforms in _loan_book
LOAN_CHUNK = 4096


def _loan_book(rng: np.random.Generator, eligible: list[int], revenue: list[float], pick: _BankPick,
               coverage: float, m: int) -> tuple[list[int], list[int], list[float]]:
    """Each eligible firm borrows with probability ``coverage``, from two banks
    with probability 0.3 (if m > 1), ``revenue * uniform(0.05, 0.3)`` per loan.

    The draws are those of one scalar ``rng`` call each, in the same order.
    A chunk pre-draws seven doubles per firm, the most one firm reads
    (coverage, loan count, two banks, a redraw after a repeat, two amounts),
    then rewinds and redraws the count it read, so ``rng`` ends where the
    scalar calls leave it; ``advance`` would drop PCG64's cached 32-bit half.
    """
    firms: list[int] = []
    banks: list[int] = []
    amounts: list[float] = []
    cdf, without = pick.cdf, pick.without
    for start in range(0, len(eligible), LOAN_CHUNK):
        chunk = eligible[start:start + LOAN_CHUNK]
        state = rng.bit_generator.state
        u = rng.random(7 * len(chunk)).tolist()
        j = 0  # the next unread double
        for i in chunk:
            if u[j] >= coverage:
                j += 1
                continue
            first = bisect_right(cdf, u[j + 2])
            if u[j + 1] < 0.3 and m > 1:
                second = bisect_right(cdf, u[j + 3])
                j += 4
                if second == first:
                    second = bisect_right(without[first], u[j])
                    j += 1
                picked = (first, second)
            else:
                j += 3
                picked = (first,)
            for k in picked:
                firms.append(i)
                banks.append(k)
                # what rng.uniform(0.05, 0.3) computes from its double
                amounts.append(revenue[i] * (0.05 + (0.3 - 0.05) * u[j]))
                j += 1
        rng.bit_generator.state = state
        rng.random(j)
    return firms, banks, amounts


def generate_synthetic_economy(params: SyntheticParams, seed: int) -> EconomyGraph:
    """Generate a validated economy; bit-identical for equal seeds.

    The loan book is rescaled against the interbank volume so the realized
    firm-to-interbank exposure ratio matches ``target_exposure_ratio``
    (skipped when the interbank layer is empty).
    """
    rng = np.random.default_rng(seed)
    n, m = params.n, params.m
    codes = _sector_codes(params.sector_count)
    sector_idx = rng.integers(0, params.sector_count, size=n)

    supply = _supply_network(rng, n, params.mean_degree, params.weight_family)
    intermediate = np.asarray(supply.weights.sum(axis=1)).ravel()

    # financials: revenue covers intermediate sales plus final demand, so
    # the final-demand proxy is non-negative by construction
    final_demand = rng.lognormal(mean=3.5, sigma=0.8, size=n)
    revenue = intermediate + final_demand
    margin = rng.uniform(0.08, 0.35, size=n)
    negative = rng.random(n) < params.negative_income_rate
    margin[negative] = -rng.uniform(0.02, 0.1, size=int(negative.sum()))
    op_cost = revenue * (1.0 - margin)
    profit = revenue - op_cost
    equity = np.abs(profit) * rng.uniform(0.2, 2.5, size=n)
    short_assets = revenue * rng.uniform(0.1, 0.5, size=n)
    short_liabs = short_assets * rng.uniform(0.1, 0.8, size=n)
    missing = rng.random(n) < params.missing_financials_rate

    bank_equity = rng.lognormal(mean=0.0, sigma=0.5, size=m)
    bank_equity *= revenue.sum() / bank_equity.sum() / 3.0

    # loan book: financially covered firms borrow from one or two banks
    loan_firms, loan_banks, loan_amounts = _loan_book(
        rng, np.flatnonzero(~missing).tolist(), revenue.tolist(),
        _BankPick(bank_equity / bank_equity.sum()), params.loan_coverage, m,
    )

    # interbank layer: each bank borrows a slice of its equity from a few peers
    ib_borrowers: list[int] = []
    ib_lenders: list[int] = []
    ib_amounts: list[float] = []
    if m > 1:
        for k in range(m):
            if rng.random() >= params.interbank_density:
                continue
            total = bank_equity[k] * rng.uniform(0.1, 0.5)
            n_lenders = int(rng.integers(1, min(3, m - 1) + 1))
            others = np.array([l for l in range(m) if l != k])
            lenders = rng.choice(others, size=n_lenders, replace=False)
            shares = rng.dirichlet(np.ones(n_lenders))
            for l, s in zip(lenders, shares):
                ib_borrowers.append(k)
                ib_lenders.append(int(l))
                ib_amounts.append(float(total * s))

    loans_total = float(np.sum(loan_amounts))
    ib_total = float(np.sum(ib_amounts))
    if params.target_exposure_ratio is not None:
        if loans_total > 0.0 and ib_total == 0.0 and m > 1:
            # guarantee a non-empty interbank layer so the ratio is defined
            ib_borrowers, ib_lenders = [0], [1]
            ib_amounts = [bank_equity[0] * 0.2]
            ib_total = ib_amounts[0]
        if ib_total > 0.0:
            if loans_total <= 0.0:
                raise DataFormatError(
                    "target exposure ratio is unreachable: generated economy has no loans"
                )
            scale = loans_total / (params.target_exposure_ratio * ib_total)
            ib_amounts = [a * scale for a in ib_amounts]

    essentiality = EssentialityTable()
    if params.essential_fraction < 1.0:
        overrides = {
            (sup, buy): bool(rng.random() < params.essential_fraction)
            for sup in codes
            for buy in codes
        }
        essentiality = EssentialityTable(overrides=overrides)

    graph = EconomyGraph(
        firm_ids=[f"f{i}" for i in range(n)],
        sectors=[codes[s] for s in sector_idx.tolist()],
        **firm_columns(~missing, revenue, op_cost, equity, short_assets, short_liabs),
        bank_ids=[f"b{k}" for k in range(m)],
        bank_equity=bank_equity,
        supply=supply,
        interbank=InterbankNetwork.from_edges(m, ib_borrowers, ib_lenders, ib_amounts),
        loans=LoanBook.from_entries(n, m, loan_firms, loan_banks, loan_amounts),
        essentiality=essentiality,
    )
    report = validate_economy(graph)
    if not report.ok:
        raise EconomyValidationError(report)
    return graph


# the share of firms a synthetic shock table observes, and the range of its industry severities
SHOCK_COVERAGE = 0.7
SEVERITY_RANGE = (0.05, 0.5)


def synthetic_shock_table(g: EconomyGraph, seed: int) -> EmpiricalShockTable:
    """Stand-in for an observed shock table (the real one is confidential).

    Each two-digit industry gets a severity level in :data:`SEVERITY_RANGE`;
    a share :data:`SHOCK_COVERAGE` of firms get reductions scattered around
    it. Every industry keeps at least one observation so batch generation
    never starves.
    """
    rng = np.random.default_rng(seed)
    nace2 = [s[:2] for s in g.sectors]
    sector_severity = {
        code: rng.uniform(*SEVERITY_RANGE) for code in sorted(set(nace2))
    }
    reductions: dict[str, float] = {}
    first_in_sector: set[str] = set()
    for fid, code in zip(g.firm_ids, nace2):
        force = code not in first_in_sector
        first_in_sector.add(code)
        if not force and rng.random() >= SHOCK_COVERAGE:
            continue
        reductions[fid] = min(max(rng.normal(sector_severity[code], 0.15), 0.0), 1.0)
    return EmpiricalShockTable(reductions=reductions)
