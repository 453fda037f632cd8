"""Multilayer economy model: supply network, banks, interbank loans, loan book.

The simulation state is an :class:`EconomyGraph` bundling three coupled
layers -- a firm-to-firm supply network, a bank-to-bank liability network
and the firm-to-bank loan book -- plus per-firm financials and per-bank
Tier 1 equity. Graphs are validated once and treated as read-only
afterwards, so scenario workers can share them freely.

Currency is a unit-agnostic scalar throughout; every model output is a
ratio, so no conversion layer exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import not_

import numpy as np
from scipy import sparse


class DataFormatError(ValueError):
    """A file or table could not be parsed (malformed row, bad header, ...)."""


class ReferentialError(ValueError):
    """An edge or loan references an entity id that does not exist."""


class InvalidRowError(ValueError):
    """A row of an economy file holds an amount :func:`validate_economy` would reject."""


class EconomyValidationError(ValueError):
    """A graph failed validation at a hard boundary (ingestion, generation)."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(str(report))


@dataclass
class FirmNode:
    """One firm as an input record of :meth:`EconomyGraph.from_records`.

    ``eligible_for_default`` is False for firms with missing financials or
    non-positive equity, liquidity or net income; they stay in the supply
    network but can never hit the loan book.
    """

    id: str
    sector: str
    revenue: float = 0.0
    op_cost: float = 0.0
    equity: float = 0.0
    short_assets: float = 0.0
    short_liabs: float = 0.0
    financials_present: bool = True
    eligible_for_default: bool = True


@dataclass
class BankSheet:
    """One bank as an input record of :meth:`EconomyGraph.from_records`."""

    id: str
    tier1_equity: float


def default_eligible(present, revenue, op_cost, equity, short_assets, short_liabs) -> np.ndarray:
    """Per firm: it can default only with financials and strictly positive buffers."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is not > 0
        return present & (equity > 0.0) & ((short_assets - short_liabs) > 0.0) & ((revenue - op_cost) > 0.0)


FINANCIAL_FIELDS = ("revenue", "op_cost", "equity", "short_assets", "short_liabs")


def firm_columns(present: np.ndarray, *values: np.ndarray) -> dict[str, np.ndarray]:
    """The financial fields of :class:`EconomyGraph` from a financials-present mask and one array per field.

    Firms without financials get zero financials; eligibility follows
    :func:`default_eligible`.
    """
    columns = dict(zip(FINANCIAL_FIELDS, (np.where(present, v, 0.0) for v in values)))
    eligible = default_eligible(present, *columns.values())
    return dict(columns, financials_present=present, eligible_for_default=eligible)


@dataclass(eq=False)
class SupplyNetwork:
    """Weighted directed firm-firm network; weights are yearly goods volumes."""

    n: int
    weights: sparse.csr_matrix  # weights[i, j]: value sold by supplier i to buyer j

    @classmethod
    def from_edges(cls, n: int, suppliers, buyers, weights) -> "SupplyNetwork":
        mat = sparse.csr_matrix(
            (np.asarray(weights, dtype=float), (suppliers, buyers)), shape=(n, n)
        )
        mat.sum_duplicates()
        return cls(n=n, weights=mat)


@dataclass(eq=False)
class InterbankNetwork:
    """Directed bank-bank loans; entry [k, l] is the amount k borrowed from l.

    Row sums are a bank's interbank liabilities, column sums its interbank
    assets.
    """

    m: int
    liabilities: sparse.csr_matrix

    @classmethod
    def from_edges(cls, m: int, borrowers, lenders, amounts) -> "InterbankNetwork":
        mat = sparse.csr_matrix(
            (np.asarray(amounts, dtype=float), (borrowers, lenders)), shape=(m, m)
        )
        mat.sum_duplicates()
        return cls(m=m, liabilities=mat)

    def leverage(self, bank_equity: np.ndarray) -> np.ndarray:
        """Leverage matrix: entry [l, k] = liabilities[l, k] / equity of k."""
        eq = np.asarray(bank_equity, dtype=float)
        return self.liabilities.toarray() / eq[None, :]


@dataclass(eq=False)
class LoanBook:
    """Outstanding loan principals banks lent to firms, plus loss-given-default."""

    principals: sparse.csr_matrix  # [i, k]: principal bank k lent to firm i
    lgd: float = 1.0

    @classmethod
    def from_entries(cls, n: int, m: int, firm_idx, bank_idx, amounts, lgd: float = 1.0) -> "LoanBook":
        mat = sparse.csr_matrix(
            (np.asarray(amounts, dtype=float), (firm_idx, bank_idx)), shape=(n, m)
        )
        mat.sum_duplicates()
        return cls(principals=mat, lgd=lgd)

    @cached_property
    def by_bank(self) -> sparse.csr_matrix:
        """Principals bank-major, [k, i]; each row sums over firms in firm order."""
        return self.principals.T.tocsr()


@dataclass
class EssentialityTable:
    """Which supplier-sector inputs are essential for which buyer sectors.

    Lookups try the exact sector pair first, then the two-digit prefixes of
    both codes, then fall back to ``default_essential``. With no overrides
    every input is essential.
    """

    overrides: dict[tuple[str, str], bool] = field(default_factory=dict)
    default_essential: bool = True

    def lookup(self, codes: list[str]) -> np.ndarray:
        """Whether each pair of ``codes`` is essential: entry [s, b] for supplier s, buyer b."""
        table = np.full((len(codes), len(codes)), self.default_essential)
        for width in (2, None):  # two-digit prefixes first, so that exact pairs overwrite them
            groups: dict[str, list[int]] = {}
            for i, code in enumerate(codes):
                groups.setdefault(code[:width], []).append(i)
            for (sup, buy), flag in self.overrides.items():
                if sup in groups and buy in groups:
                    table[np.ix_(groups[sup], groups[buy])] = flag
        return table


@dataclass(eq=False, kw_only=True)
class EconomyGraph:
    """The complete simulation state: firms, supply links, banks, loans.

    Firms and banks are stored as columns, one entry per firm or bank in
    index order: ids and sectors as lists, financials as float arrays, the
    two flags as bool arrays. :meth:`from_records` builds a graph from
    :class:`FirmNode` and :class:`BankSheet` records. Treat instances as
    immutable once validated; derived arrays are cached on first access and
    all simulation code reads the graph concurrently.
    """

    firm_ids: list[str]
    sectors: list[str]
    revenue: np.ndarray
    op_cost: np.ndarray
    equity: np.ndarray
    short_assets: np.ndarray
    short_liabs: np.ndarray
    financials_present: np.ndarray
    eligible_for_default: np.ndarray
    bank_ids: list[str]
    bank_equity: np.ndarray
    supply: SupplyNetwork
    interbank: InterbankNetwork
    loans: LoanBook
    essentiality: EssentialityTable = field(default_factory=EssentialityTable)

    @classmethod
    def from_records(cls, firms: list[FirmNode], supply: SupplyNetwork, banks: list[BankSheet],
                     interbank: InterbankNetwork, loans: LoanBook,
                     essentiality: EssentialityTable | None = None) -> "EconomyGraph":
        """A graph from firm and bank records, their fields taken as given."""
        def column(name: str, dtype=float) -> np.ndarray:
            return np.array([getattr(f, name) for f in firms], dtype=dtype)

        return cls(
            firm_ids=[f.id for f in firms], sectors=[f.sector for f in firms],
            **{name: column(name) for name in FINANCIAL_FIELDS},
            financials_present=column("financials_present", bool),
            eligible_for_default=column("eligible_for_default", bool),
            bank_ids=[b.id for b in banks], bank_equity=np.array([b.tier1_equity for b in banks], dtype=float),
            supply=supply, interbank=interbank, loans=loans, essentiality=essentiality or EssentialityTable(),
        )

    @property
    def n(self) -> int:
        return len(self.firm_ids)

    @property
    def m(self) -> int:
        return len(self.bank_ids)

    @cached_property
    def firm_index(self) -> dict[str, int]:
        return {fid: i for i, fid in enumerate(self.firm_ids)}

    @cached_property
    def bank_index(self) -> dict[str, int]:
        return {bid: k for k, bid in enumerate(self.bank_ids)}

    @cached_property
    def leverage(self) -> np.ndarray:
        """Interbank leverage matrix (banks x banks), see :meth:`InterbankNetwork.leverage`."""
        return self.interbank.leverage(self.bank_equity)

    @cached_property
    def intermediate_sales(self) -> np.ndarray:
        """Per-firm value of goods sold to other firms (row sums of the supply net)."""
        return np.asarray(self.supply.weights.sum(axis=1)).ravel()

    @cached_property
    def final_demand(self) -> np.ndarray:
        """Final-demand proxy: revenue minus intermediate sales, floored at zero.

        Firms without financials contribute no final demand.
        """
        fd = np.maximum(self.revenue - self.intermediate_sales, 0.0)
        fd[~self.financials_present] = 0.0
        return fd

    def total_output(self) -> np.ndarray:
        """Per-firm total output: intermediate sales plus the final-demand proxy."""
        return self.intermediate_sales + self.final_demand


@dataclass
class Violation:
    entity: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}: [{self.rule}] {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, entity: str, rule: str, message: str) -> None:
        self.violations.append(Violation(entity, rule, message))

    def __str__(self) -> str:
        if self.ok:
            return "economy valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _repeats(ids: list[str]) -> set[int]:
    """Positions of ids that appear earlier in the list."""
    if len(set(ids)) == len(ids):
        return set()
    seen: set[str] = set()
    repeats = set()
    for i, fid in enumerate(ids):
        if fid in seen:
            repeats.add(i)
        seen.add(fid)
    return repeats


def _check_firm(report: ValidationReport, g: EconomyGraph, i: int, repeated: bool) -> None:
    fid = g.firm_ids[i]
    ent = f"firm:{fid}"
    if not fid:
        report.add(ent, "empty-id", "firm id must be non-empty")
    if repeated:
        report.add(ent, "duplicate-id", "firm id appears more than once")
    if not g.sectors[i]:
        report.add(ent, "empty-sector", "sector code must be non-empty")
    f = {name: getattr(g, name)[i].item() for name in FINANCIAL_FIELDS}
    present = g.financials_present[i]
    if present:
        for name, value in f.items():
            if not math.isfinite(value):
                report.add(ent, "non-finite", f"{name} is {value}")
    if g.eligible_for_default[i]:
        if not present:
            report.add(ent, "eligibility", "eligible firm lacks financials")
        else:
            if f["equity"] <= 0.0:
                report.add(ent, "eligibility", f"eligible firm has equity {f['equity']} <= 0")
            if (f["short_assets"] - f["short_liabs"]) <= 0.0:
                report.add(ent, "eligibility", "eligible firm has non-positive liquidity")
            if (f["revenue"] - f["op_cost"]) <= 0.0:
                report.add(ent, "eligibility", "eligible firm has non-positive net income")


_FIRM_COLUMNS = ("sectors", *FINANCIAL_FIELDS, "financials_present", "eligible_for_default")


def validate_economy(g: EconomyGraph) -> ValidationReport:
    """Check every structural invariant; an empty report means simulation-ready.

    Violations are data, not failures: the function never raises.
    """
    report = ValidationReport()
    n, m = g.n, g.m
    for name, size in (dict.fromkeys(_FIRM_COLUMNS, n) | {"bank_equity": m}).items():
        if len(getattr(g, name)) != size:
            report.add("columns", "shape", f"{name} has {len(getattr(g, name))} entries, expected {size}")
    if not report.ok:
        return report

    # screen every firm with arrays; only flagged firms go through the
    # per-firm rules of _check_firm, which word the violations in firm order
    repeated = _repeats(g.firm_ids)
    present = g.financials_present
    values = [getattr(g, name) for name in FINANCIAL_FIELDS]
    flagged = (
        np.fromiter(map(not_, g.firm_ids), dtype=bool, count=n)
        | np.fromiter(map(not_, g.sectors), dtype=bool, count=n)
        | (present & ~np.logical_and.reduce([np.isfinite(v) for v in values]))
        | (g.eligible_for_default & ~default_eligible(present, *values))
    )
    flagged[list(repeated)] = True
    for i in np.flatnonzero(flagged).tolist():
        _check_firm(report, g, i, i in repeated)

    if m == 0:
        report.add("banks", "empty", "economy has no banks: bank losses and DebtRank need at least one")
    seen_banks: set[str] = set()
    for bid, equity in zip(g.bank_ids, g.bank_equity.tolist()):
        ent = f"bank:{bid}"
        if not bid:
            report.add(ent, "empty-id", "bank id must be non-empty")
        if bid in seen_banks:
            report.add(ent, "duplicate-id", "bank id appears more than once")
        seen_banks.add(bid)
        if not 0.0 < equity < math.inf:
            report.add(ent, "equity", f"tier 1 equity {equity} must be finite and > 0")

    w = g.supply.weights
    if w.shape != (n, n):
        report.add("supply", "shape", f"supply matrix is {w.shape}, expected {(n, n)}")
    else:
        diag = w.diagonal()
        for i in np.flatnonzero(diag != 0.0):
            report.add(f"firm:{g.firm_ids[i]}", "self-loop", "supply self-loop with nonzero weight")
        coo = w.tocoo()
        bad = ~((coo.data > 0.0) & np.isfinite(coo.data))
        for i, j, x in zip(coo.row[bad], coo.col[bad], coo.data[bad]):
            report.add(
                f"firm:{g.firm_ids[i]}",
                "edge-weight",
                f"supply edge to {g.firm_ids[j]} has weight {x}, must be finite and > 0",
            )

    liab = g.interbank.liabilities
    if liab.shape != (m, m):
        report.add("interbank", "shape", f"interbank matrix is {liab.shape}, expected {(m, m)}")
    else:
        diag = liab.diagonal()
        for k in np.flatnonzero(diag != 0.0):
            report.add(f"bank:{g.bank_ids[k]}", "self-loop", "bank borrows from itself")
        coo = liab.tocoo()
        bad = ~((coo.data >= 0.0) & np.isfinite(coo.data))
        for k, l, x in zip(coo.row[bad], coo.col[bad], coo.data[bad]):
            report.add(
                f"bank:{g.bank_ids[k]}",
                "edge-weight",
                f"interbank loan from {g.bank_ids[l]} is {x}, must be finite and >= 0",
            )

    loans = g.loans.principals
    if loans.shape != (n, m):
        report.add("loans", "shape", f"loan book is {loans.shape}, expected {(n, m)}")
    else:
        coo = loans.tocoo()
        bad = ~((coo.data >= 0.0) & np.isfinite(coo.data))
        for i, k, x in zip(coo.row[bad], coo.col[bad], coo.data[bad]):
            report.add(
                f"firm:{g.firm_ids[i]}",
                "loan-amount",
                f"loan from bank {g.bank_ids[k]} is {x}, must be finite and >= 0",
            )
    if not (0.0 < g.loans.lgd <= 1.0):
        report.add("loans", "lgd", f"loss given default {g.loans.lgd} outside (0, 1]")

    return report


def exposure_ratio(g: EconomyGraph) -> tuple[float, np.ndarray]:
    """Total and per-bank firm-loan exposure relative to interbank exposure.

    Returns ``(system, per_bank)`` with ``system = sum(B) / sum(L)`` and
    ``per_bank[k]`` the ratio of bank k's firm-loan assets to its interbank
    assets. Banks with no interbank assets get ``nan`` markers.

    Raises ``ValueError`` when the interbank network carries no volume at
    all, which makes the system ratio undefined.
    """
    loan_total = float(g.loans.principals.sum())
    ib_total = float(g.interbank.liabilities.sum())
    if ib_total <= 0.0:
        raise ValueError("interbank network has zero total volume; exposure ratio undefined")
    per_bank_loans = np.asarray(g.loans.principals.sum(axis=0)).ravel()
    ib_assets = np.asarray(g.interbank.liabilities.sum(axis=0)).ravel()
    per_bank = np.full(g.m, np.nan)
    has = ib_assets > 0.0
    per_bank[has] = per_bank_loans[has] / ib_assets[has]
    return loan_total / ib_total, per_bank
