"""Reading and writing economy graphs as CSV files.

One headered CSV per component keeps fixtures auditable and diffable:

* ``firms.csv``       id,sector,revenue,op_cost,equity,short_assets,short_liabs
* ``supply.csv``      supplier_id,buyer_id,weight
* ``interbank.csv``   borrower_id,lender_id,amount
* ``loans.csv``       firm_id,bank_id,principal
* ``banks.csv``       id,tier1_equity
* ``essentiality.csv``  supplier_sector,buyer_sector,essential  (optional)

The format itself lives in :mod:`netstress.tables`. Firms that appear
only in ``supply.csv`` are kept as bare supply-chain nodes without
financials; they can propagate shocks but never default on loans.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .economy import (
    FINANCIAL_FIELDS,
    BankSheet,
    DataFormatError,
    EconomyGraph,
    EconomyValidationError,
    EssentialityTable,
    FirmNode,
    InterbankNetwork,
    LoanBook,
    ReferentialError,
    SupplyNetwork,
    derive_eligibility,
    validate_economy,
)
from .tables import fmt, parse, read_rows, write_csv

FIRM_COLUMNS = ["id", "sector", *FINANCIAL_FIELDS]
SUPPLY_COLUMNS = ["supplier_id", "buyer_id", "weight"]
INTERBANK_COLUMNS = ["borrower_id", "lender_id", "amount"]
LOAN_COLUMNS = ["firm_id", "bank_id", "principal"]
BANK_COLUMNS = ["id", "tier1_equity"]
ESSENTIALITY_COLUMNS = ["supplier_sector", "buyer_sector", "essential"]

UNKNOWN_SECTOR = "0000"  # assigned to firms that only appear as supply nodes


@dataclass(frozen=True)
class IngestionSpec:
    """File locations for one economy."""

    firms: Path
    supply: Path
    interbank: Path
    loans: Path
    banks: Path
    essentiality: Path | None = None
    lgd: float = 1.0


def economy_files(directory: str | Path, lgd: float = 1.0) -> IngestionSpec:
    """Build an :class:`IngestionSpec` from the conventional file names."""
    d = Path(directory)
    ess = d / "essentiality.csv"
    return IngestionSpec(
        firms=d / "firms.csv",
        supply=d / "supply.csv",
        interbank=d / "interbank.csv",
        loans=d / "loans.csv",
        banks=d / "banks.csv",
        essentiality=ess if ess.exists() else None,
        lgd=lgd,
    )


def load_essentiality(path: str | Path, default_essential: bool = True) -> EssentialityTable:
    """Read a sector-pair essentiality table; unlisted pairs use the default."""
    path = Path(path)
    overrides: dict[tuple[str, str], bool] = {}
    for line, row in read_rows(path, ESSENTIALITY_COLUMNS):
        flag = row["essential"].strip()
        if flag not in ("0", "1"):
            raise DataFormatError(f"{path} line {line}: essential must be 0 or 1, got {flag!r}")
        overrides[(row["supplier_sector"].strip(), row["buyer_sector"].strip())] = flag == "1"
    return EssentialityTable(overrides=overrides, default_essential=default_essential)


def load_economy(spec: IngestionSpec) -> EconomyGraph:
    """Read an economy from CSV files and return it validated.

    Raises :class:`DataFormatError` on malformed rows (with line numbers),
    :class:`ReferentialError` when edges name unknown ids, and
    :class:`EconomyValidationError` when the assembled graph violates an
    invariant.
    """
    firms: list[FirmNode] = []
    firm_index: dict[str, int] = {}
    for line, row in read_rows(spec.firms, FIRM_COLUMNS):
        fid = row["id"].strip()
        if fid in firm_index:
            raise DataFormatError(f"{spec.firms} line {line}: duplicate firm id {fid!r}")
        fin_cells = [row[c].strip() for c in FINANCIAL_FIELDS]
        if all(cell == "" for cell in fin_cells):
            firm = FirmNode(
                id=fid, sector=row["sector"].strip(),
                financials_present=False, eligible_for_default=False,
            )
        elif any(cell == "" for cell in fin_cells):
            raise DataFormatError(
                f"{spec.firms} line {line}: financial columns must be all present or all blank"
            )
        else:
            values = [parse(spec.firms, line, c, row[c]) for c in FINANCIAL_FIELDS]
            firm = FirmNode(fid, row["sector"].strip(), *values)
            firm.eligible_for_default = derive_eligibility(firm)
        firm_index[fid] = len(firms)
        firms.append(firm)

    banks: list[BankSheet] = []
    bank_index: dict[str, int] = {}
    for line, row in read_rows(spec.banks, BANK_COLUMNS):
        bid = row["id"].strip()
        if bid in bank_index:
            raise DataFormatError(f"{spec.banks} line {line}: duplicate bank id {bid!r}")
        bank_index[bid] = len(banks)
        banks.append(BankSheet(bid, parse(spec.banks, line, "tier1_equity", row["tier1_equity"])))

    suppliers: list[int] = []
    buyers: list[int] = []
    weights: list[float] = []
    for line, row in read_rows(spec.supply, SUPPLY_COLUMNS):
        edge_ids = []
        for col in ("supplier_id", "buyer_id"):
            fid = row[col].strip()
            if fid not in firm_index:
                # supply-only firms stay in the chain but carry no financials
                firm_index[fid] = len(firms)
                firms.append(FirmNode(
                    id=fid, sector=UNKNOWN_SECTOR,
                    financials_present=False, eligible_for_default=False,
                ))
            edge_ids.append(firm_index[fid])
        suppliers.append(edge_ids[0])
        buyers.append(edge_ids[1])
        weights.append(parse(spec.supply, line, "weight", row["weight"]))

    borrowers: list[int] = []
    lenders: list[int] = []
    amounts: list[float] = []
    for line, row in read_rows(spec.interbank, INTERBANK_COLUMNS):
        for col in ("borrower_id", "lender_id"):
            if row[col].strip() not in bank_index:
                raise ReferentialError(
                    f"{spec.interbank} line {line}: unknown bank id {row[col].strip()!r}"
                )
        borrowers.append(bank_index[row["borrower_id"].strip()])
        lenders.append(bank_index[row["lender_id"].strip()])
        amounts.append(parse(spec.interbank, line, "amount", row["amount"]))

    loan_firms: list[int] = []
    loan_banks: list[int] = []
    principals: list[float] = []
    for line, row in read_rows(spec.loans, LOAN_COLUMNS):
        fid = row["firm_id"].strip()
        bid = row["bank_id"].strip()
        if fid not in firm_index:
            raise ReferentialError(f"{spec.loans} line {line}: unknown firm id {fid!r}")
        if bid not in bank_index:
            raise ReferentialError(f"{spec.loans} line {line}: unknown bank id {bid!r}")
        loan_firms.append(firm_index[fid])
        loan_banks.append(bank_index[bid])
        principals.append(parse(spec.loans, line, "principal", row["principal"]))

    essentiality = (
        load_essentiality(spec.essentiality) if spec.essentiality is not None else EssentialityTable()
    )

    graph = EconomyGraph(
        firms=firms,
        supply=SupplyNetwork.from_edges(len(firms), suppliers, buyers, weights),
        banks=banks,
        interbank=InterbankNetwork.from_edges(len(banks), borrowers, lenders, amounts),
        loans=LoanBook.from_entries(len(firms), len(banks), loan_firms, loan_banks, principals, spec.lgd),
        essentiality=essentiality,
    )
    report = validate_economy(graph)
    if not report.ok:
        raise EconomyValidationError(report)
    return graph


def write_economy(g: EconomyGraph, directory: str | Path) -> None:
    """Write an economy back to the CSV layout read by :func:`load_economy`."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_csv(d / "firms.csv", FIRM_COLUMNS, (
        [f.id, f.sector, fmt(f.revenue), fmt(f.op_cost), fmt(f.equity),
         fmt(f.short_assets), fmt(f.short_liabs)]
        if f.financials_present else [f.id, f.sector, "", "", "", "", ""]
        for f in g.firms
    ))
    write_csv(d / "banks.csv", BANK_COLUMNS, ([b.id, fmt(b.tier1_equity)] for b in g.banks))
    for name, columns, matrix, row_ids, col_ids in (
        ("supply.csv", SUPPLY_COLUMNS, g.supply.weights, g.firm_ids, g.firm_ids),
        ("interbank.csv", INTERBANK_COLUMNS, g.interbank.liabilities, g.bank_ids, g.bank_ids),
        ("loans.csv", LOAN_COLUMNS, g.loans.principals, g.firm_ids, g.bank_ids),
    ):
        coo = matrix.tocoo()
        write_csv(d / name, columns, (
            [row_ids[i], col_ids[j], fmt(x)] for i, j, x in zip(coo.row, coo.col, coo.data)
        ))
    if g.essentiality.overrides:
        write_csv(d / "essentiality.csv", ESSENTIALITY_COLUMNS, (
            [sup, buy, "1" if flag else "0"]
            for (sup, buy), flag in sorted(g.essentiality.overrides.items())
        ))
