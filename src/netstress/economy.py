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

import numpy as np
from scipy import sparse


class DataFormatError(ValueError):
    """A file or table could not be parsed (malformed row, bad header, ...)."""


class ReferentialError(ValueError):
    """An edge or loan references an entity id that does not exist."""


class EconomyValidationError(ValueError):
    """A graph failed validation at a hard boundary (ingestion, generation)."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(str(report))


@dataclass
class FirmNode:
    """One firm: industry sector plus income-statement and buffer positions.

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


def derive_eligibility(firm: FirmNode) -> bool:
    """A firm can default only with financials and strictly positive buffers."""
    return bool(
        firm.financials_present
        and firm.equity > 0.0
        and (firm.short_assets - firm.short_liabs) > 0.0
        and (firm.revenue - firm.op_cost) > 0.0
    )


FINANCIAL_FIELDS = ("revenue", "op_cost", "equity", "short_assets", "short_liabs")


@dataclass
class BankSheet:
    id: str
    tier1_equity: float


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

    def assets(self) -> np.ndarray:
        """Per-bank interbank assets (money lent to other banks)."""
        return np.asarray(self.liabilities.sum(axis=0)).ravel()

    def borrowings(self) -> np.ndarray:
        """Per-bank interbank liabilities (money borrowed from other banks)."""
        return np.asarray(self.liabilities.sum(axis=1)).ravel()


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

    def is_essential(self, supplier_sector: str, buyer_sector: str) -> bool:
        key = (supplier_sector, buyer_sector)
        if key in self.overrides:
            return self.overrides[key]
        key2 = (supplier_sector[:2], buyer_sector[:2])
        if key2 in self.overrides:
            return self.overrides[key2]
        return self.default_essential


@dataclass(eq=False)
class EconomyGraph:
    """The complete simulation state: firms, supply links, banks, loans.

    Treat instances as immutable once validated; derived arrays are cached
    on first access and all simulation code reads the graph concurrently.
    """

    firms: list[FirmNode]
    supply: SupplyNetwork
    banks: list[BankSheet]
    interbank: InterbankNetwork
    loans: LoanBook
    essentiality: EssentialityTable = field(default_factory=EssentialityTable)

    @property
    def n(self) -> int:
        return len(self.firms)

    @property
    def m(self) -> int:
        return len(self.banks)

    @cached_property
    def firm_ids(self) -> list[str]:
        return [f.id for f in self.firms]

    @cached_property
    def firm_index(self) -> dict[str, int]:
        return {f.id: i for i, f in enumerate(self.firms)}

    @cached_property
    def sectors(self) -> list[str]:
        return [f.sector for f in self.firms]

    @cached_property
    def bank_ids(self) -> list[str]:
        return [b.id for b in self.banks]

    @cached_property
    def bank_index(self) -> dict[str, int]:
        return {b.id: k for k, b in enumerate(self.banks)}

    @cached_property
    def revenue(self) -> np.ndarray:
        return np.array([f.revenue for f in self.firms], dtype=float)

    @cached_property
    def op_cost(self) -> np.ndarray:
        return np.array([f.op_cost for f in self.firms], dtype=float)

    @cached_property
    def equity(self) -> np.ndarray:
        return np.array([f.equity for f in self.firms], dtype=float)

    @cached_property
    def short_assets(self) -> np.ndarray:
        return np.array([f.short_assets for f in self.firms], dtype=float)

    @cached_property
    def short_liabs(self) -> np.ndarray:
        return np.array([f.short_liabs for f in self.firms], dtype=float)

    @cached_property
    def financials_present(self) -> np.ndarray:
        return np.array([f.financials_present for f in self.firms], dtype=bool)

    @cached_property
    def eligible_for_default(self) -> np.ndarray:
        return np.array([f.eligible_for_default for f in self.firms], dtype=bool)

    @cached_property
    def bank_equity(self) -> np.ndarray:
        return np.array([b.tier1_equity for b in self.banks], dtype=float)

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


def validate_economy(g: EconomyGraph) -> ValidationReport:
    """Check every structural invariant; an empty report means simulation-ready.

    Violations are data, not failures: the function never raises.
    """
    report = ValidationReport()
    n, m = g.n, g.m

    seen: set[str] = set()
    for f in g.firms:
        ent = f"firm:{f.id}"
        if not f.id:
            report.add(ent, "empty-id", "firm id must be non-empty")
        if f.id in seen:
            report.add(ent, "duplicate-id", "firm id appears more than once")
        seen.add(f.id)
        if not f.sector:
            report.add(ent, "empty-sector", "sector code must be non-empty")
        if f.financials_present:
            for name in FINANCIAL_FIELDS:
                value = getattr(f, name)
                if not math.isfinite(value):
                    report.add(ent, "non-finite", f"{name} is {value}")
        if f.eligible_for_default:
            if not f.financials_present:
                report.add(ent, "eligibility", "eligible firm lacks financials")
            else:
                if f.equity <= 0.0:
                    report.add(ent, "eligibility", f"eligible firm has equity {f.equity} <= 0")
                if (f.short_assets - f.short_liabs) <= 0.0:
                    report.add(ent, "eligibility", "eligible firm has non-positive liquidity")
                if (f.revenue - f.op_cost) <= 0.0:
                    report.add(ent, "eligibility", "eligible firm has non-positive net income")

    seen_banks: set[str] = set()
    for b in g.banks:
        ent = f"bank:{b.id}"
        if not b.id:
            report.add(ent, "empty-id", "bank id must be non-empty")
        if b.id in seen_banks:
            report.add(ent, "duplicate-id", "bank id appears more than once")
        seen_banks.add(b.id)
        if not 0.0 < b.tier1_equity < math.inf:
            report.add(ent, "equity", f"tier 1 equity {b.tier1_equity} must be finite and > 0")

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
    ib_assets = g.interbank.assets()
    per_bank = np.full(g.m, np.nan)
    has = ib_assets > 0.0
    per_bank[has] = per_bank_loans[has] / ib_assets[has]
    return loan_total / ib_total, per_bank
