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


FINANCIAL_FIELDS = ("revenue", "op_cost", "equity", "short_assets", "short_liabs")


def firm_columns(present: np.ndarray, *values: np.ndarray) -> dict[str, np.ndarray]:
    """The financial fields of :class:`EconomyGraph` from a financials-present mask and one array per field.

    Firms without financials get zero financials; a firm is eligible for default only
    with financials and strictly positive equity, liquidity and net income.
    """
    revenue, op_cost, equity, short_assets, short_liabs = columns = [np.where(present, v, 0.0) for v in values]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is not > 0
        eligible = present & (equity > 0.0) & ((short_assets - short_liabs) > 0.0) & ((revenue - op_cost) > 0.0)
    return dict(zip(FINANCIAL_FIELDS, columns), financials_present=present, eligible_for_default=eligible)


def _summed(shape: tuple[int, int], rows, cols, values) -> sparse.csr_matrix:
    """A CSR matrix of ``shape`` holding ``values`` at ``(rows, cols)``, repeated entries summed."""
    mat = sparse.csr_matrix((np.asarray(values, dtype=float), (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat


@dataclass(eq=False)
class SupplyNetwork:
    """Weighted directed firm-firm network; weights are yearly goods volumes."""

    weights: sparse.csr_matrix  # weights[i, j]: value sold by supplier i to buyer j

    @classmethod
    def from_edges(cls, n: int, suppliers, buyers, weights) -> "SupplyNetwork":
        return cls(weights=_summed((n, n), suppliers, buyers, weights))


@dataclass(eq=False)
class InterbankNetwork:
    """Directed bank-bank loans; entry [k, l] is the amount k borrowed from l.

    Row sums are a bank's interbank liabilities, column sums its interbank
    assets.
    """

    liabilities: sparse.csr_matrix

    @classmethod
    def from_edges(cls, m: int, borrowers, lenders, amounts) -> "InterbankNetwork":
        return cls(liabilities=_summed((m, m), borrowers, lenders, amounts))


@dataclass(eq=False)
class LoanBook:
    """Outstanding loan principals banks lent to firms, plus loss-given-default."""

    principals: sparse.csr_matrix  # [i, k]: principal bank k lent to firm i
    lgd: float = 1.0

    @classmethod
    def from_entries(cls, n: int, m: int, firm_idx, bank_idx, amounts) -> "LoanBook":
        return cls(principals=_summed((n, m), firm_idx, bank_idx, amounts))

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
    two flags as bool arrays. Treat instances as immutable once validated;
    derived arrays are cached on first access and all simulation code reads
    the graph concurrently.
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
        """Interbank leverage matrix (banks x banks): entry [l, k] = liabilities[l, k] / equity of k."""
        return self.interbank.liabilities.toarray() / self.bank_equity[None, :]

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


@dataclass(frozen=True)
class AmountRule:
    """The amounts of one edge layer: each finite and > 0 (``strict``) or >= 0, or a violation
    of ``rule`` by the ``entity`` (``"firm"`` or ``"bank"``) that owns the amount's row."""

    entity: str
    rule: str
    strict: bool

    def holds(self, values: np.ndarray) -> np.ndarray:
        return (values > 0.0 if self.strict else values >= 0.0) & (values < np.inf)

    def violation(self, owner: str, what: str) -> Violation:
        bound = ">" if self.strict else ">="
        return Violation(f"{self.entity}:{owner}", self.rule, f"{what}, must be finite and {bound} 0")


# read by validate_economy on the summed matrices and by ingest on each file row
SUPPLY_WEIGHTS = AmountRule("firm", "edge-weight", strict=True)
INTERBANK_AMOUNTS = AmountRule("bank", "edge-weight", strict=False)
LOAN_PRINCIPALS = AmountRule("firm", "loan-amount", strict=False)


def _blank(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(not_, texts), dtype=bool, count=len(texts))


def _repeated(ids: list[str]) -> np.ndarray:
    """Per position: the id appears earlier in the list."""
    if len(set(ids)) == len(ids):
        return np.zeros(len(ids), dtype=bool)
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # an id's last write is its first position
    return np.fromiter(map(first.__getitem__, ids), dtype=np.intp, count=len(ids)) < np.arange(len(ids))


def _add_hits(report: ValidationReport, entity: str, ids: list[str], rules: list[tuple]) -> None:
    """Report the hits of the id rules (each id non-empty and given once) and of ``rules``: rows of
    (rule id, mask over ``ids``, message, *arrays whose values at i fill it), by index, then by row."""
    rules = [("empty-id", _blank(ids), f"{entity} id must be non-empty"),
             ("duplicate-id", _repeated(ids), f"{entity} id appears more than once"), *rules]
    hits = sorted((i, r) for r, (_, mask, *_) in enumerate(rules) for i in np.flatnonzero(mask).tolist())
    for i, r in hits:
        rule, _, message, *values = rules[r]
        report.add(f"{entity}:{ids[i]}", rule, message.format(*(v[i].item() for v in values)))


def validate_economy(g: EconomyGraph) -> ValidationReport:
    """Check every structural invariant; an empty report means simulation-ready.

    Violations are data, not failures: the function never raises.
    """
    report = ValidationReport()
    n, m = g.n, g.m
    sizes = dict.fromkeys(("sectors", *FINANCIAL_FIELDS, "financials_present", "eligible_for_default"), n)
    for name, size in (sizes | {"bank_equity": m}).items():
        if len(getattr(g, name)) != size:
            report.add("columns", "shape", f"{name} has {len(getattr(g, name))} entries, expected {size}")
    if not report.ok:
        return report

    present, checked = g.financials_present, g.eligible_for_default & g.financials_present
    values = {name: getattr(g, name) for name in FINANCIAL_FIELDS}
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is not <= 0
        _add_hits(report, "firm", g.firm_ids, [
            ("empty-sector", _blank(g.sectors), "sector code must be non-empty"),
            *(("non-finite", present & ~np.isfinite(v), f"{name} is {{}}", v) for name, v in values.items()),
            ("eligibility", g.eligible_for_default & ~present, "eligible firm lacks financials"),
            # NaN equity is not <= 0: such a firm gets its non-finite line only
            ("eligibility", checked & (g.equity <= 0.0), "eligible firm has equity {} <= 0", g.equity),
            ("eligibility", checked & (g.short_assets - g.short_liabs <= 0.0),
             "eligible firm has non-positive liquidity"),
            ("eligibility", checked & (g.revenue - g.op_cost <= 0.0), "eligible firm has non-positive net income"),
        ])

    if m == 0:
        report.add("banks", "empty", "economy has no banks: bank losses and DebtRank need at least one")
    equity = g.bank_equity
    _add_hits(report, "bank", g.bank_ids, [
        ("equity", ~((equity > 0.0) & (equity < np.inf)), "tier 1 equity {} must be finite and > 0", equity),
    ])

    for entity, what, matrix, shape, rows, cols, self_loop, amounts, message in (
        ("supply", "supply matrix", g.supply.weights, (n, n), g.firm_ids, g.firm_ids,
         "supply self-loop with nonzero weight", SUPPLY_WEIGHTS, "supply edge to {} has weight {}"),
        ("interbank", "interbank matrix", g.interbank.liabilities, (m, m), g.bank_ids, g.bank_ids,
         "bank borrows from itself", INTERBANK_AMOUNTS, "interbank loan from {} is {}"),
        ("loans", "loan book", g.loans.principals, (n, m), g.firm_ids, g.bank_ids,
         None, LOAN_PRINCIPALS, "loan from bank {} is {}"),
    ):
        if matrix.shape != shape:
            report.add(entity, "shape", f"{what} is {matrix.shape}, expected {shape}")
            continue
        if self_loop is not None:
            for i in np.flatnonzero(matrix.diagonal() != 0.0):
                report.add(f"{amounts.entity}:{rows[i]}", "self-loop", self_loop)
        coo = matrix.tocoo()
        bad = ~amounts.holds(coo.data)
        for i, j, x in zip(coo.row[bad], coo.col[bad], coo.data[bad]):
            report.violations.append(amounts.violation(rows[i], message.format(cols[j], x)))
    if not (0.0 < g.loans.lgd <= 1.0):
        report.add("loans", "lgd", f"loss given default {g.loans.lgd} outside (0, 1]")

    return report

