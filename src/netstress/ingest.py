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

import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import not_
from pathlib import Path

import numpy as np

from .economy import (
    FINANCIAL_FIELDS,
    INTERBANK_AMOUNTS,
    LOAN_PRINCIPALS,
    SUPPLY_WEIGHTS,
    AmountRule,
    EconomyGraph,
    EconomyValidationError,
    EssentialityTable,
    InterbankNetwork,
    InvalidRowError,
    LoanBook,
    SupplyNetwork,
    firm_columns,
    validate_economy,
)
from .tables import Block, Cells, RowError, first_repeat, lookup, number, read_blocks, to_cells, write_columns

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


def economy_files(directory: str | Path) -> IngestionSpec:
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
    )


def load_essentiality(path: str | Path) -> EssentialityTable:
    """Read a sector-pair essentiality table; unlisted pairs are essential.

    A second row for one (supplier_sector, buyer_sector) pair is a
    :class:`DataFormatError`.
    """
    path = Path(path)
    overrides: dict[tuple[str, str], bool] = {}
    for block in read_blocks(path, ESSENTIALITY_COLUMNS):
        overrides.update(block.convert(lambda b: _essentiality_rows(b, overrides)))
    return EssentialityTable(overrides=overrides)


def _essentiality_rows(b: Block, seen: dict) -> dict[tuple[str, str], bool]:
    flags = b.text("essential")
    bad = [r for r, flag in enumerate(flags) if flag not in ("0", "1")]
    if bad:
        raise RowError(bad[0], f"essential must be 0 or 1, got {flags[bad[0]]!r}")
    keys = list(zip(b.text("supplier_sector"), b.text("buyer_sector")))
    first_repeat(keys, seen, lambda key: f"second row for supplier sector {key[0]!r} and buyer sector {key[1]!r}")
    return dict(zip(keys, (flag == "1" for flag in flags)))


def _firm_rows(b: Block, seen: dict[str, int]):
    ids = b.text("id")
    first_repeat(ids, seen, lambda fid: f"duplicate firm id {fid!r}")
    blanks = sum(np.fromiter(map(not_, b.text(c)), dtype=int, count=b.size) for c in FINANCIAL_FIELDS)
    partial = np.flatnonzero((blanks > 0) & (blanks < len(FINANCIAL_FIELDS)))
    if partial.size:
        raise RowError(partial[0], "financial columns must be all present or all blank")
    present = blanks == 0
    values = np.zeros((len(FINANCIAL_FIELDS), b.size))
    for values_c, c in zip(values, FINANCIAL_FIELDS):
        values_c[present] = b.floats(c, rows=present)
    # a sector code repeats on many rows: keep one string per code
    return ids, list(map(sys.intern, b.text("sector"))), present, values


def _bank_rows(b: Block, seen: dict[str, int]):
    ids = b.text("id")
    first_repeat(ids, seen, lambda bid: f"duplicate bank id {bid!r}")
    return ids, b.floats("tier1_equity")


def _amounts(b: Block, name: str, owner: str, amounts: AmountRule) -> np.ndarray:
    """Column ``name`` as floats, each held to ``amounts`` row by row before duplicate rows are
    summed; a bad amount is reported against the id in column ``owner``."""
    values = b.floats(name)
    ok = amounts.holds(values)
    if not ok.all():
        r = int(np.argmin(ok))
        violation = amounts.violation(b.cells[owner][r].strip(), f"{name} is {b.cells[name][r].strip()}")
        raise RowError(r, str(violation), InvalidRowError)
    return values


def load_economy(spec: IngestionSpec) -> EconomyGraph:
    """Read an economy from CSV files and return it validated.

    Raises :class:`DataFormatError` on malformed rows (with line numbers),
    :class:`ReferentialError` when edges name unknown ids,
    :class:`InvalidRowError` on an edge row's amount out of range, and
    :class:`EconomyValidationError` when the graph violates an invariant.
    """
    sectors: list[str] = []
    present = [np.zeros(0, dtype=bool)]
    values = [np.zeros((len(FINANCIAL_FIELDS), 0))]
    firm_index: dict[str, int] = {}
    for block in read_blocks(spec.firms, FIRM_COLUMNS):
        ids, block_sectors, block_present, block_values = block.convert(lambda b: _firm_rows(b, firm_index))
        sectors += block_sectors
        present.append(block_present)
        values.append(block_values)
        number(ids, firm_index)

    bank_equity = [np.zeros(0)]
    bank_index: dict[str, int] = {}
    for block in read_blocks(spec.banks, BANK_COLUMNS):
        ids, equity = block.convert(lambda b: _bank_rows(b, bank_index))
        bank_equity.append(equity)
        number(ids, bank_index)

    supply = _Edges()
    for block in read_blocks(spec.supply, SUPPLY_COLUMNS):
        sup, buy, weights = block.convert(lambda b: (
            b.text("supplier_id"), b.text("buyer_id"),
            _amounts(b, "weight", "supplier_id", SUPPLY_WEIGHTS),
        ))
        try:
            supply.add(lookup(sup, firm_index), lookup(buy, firm_index), weights)
        except KeyError:  # supply-only firms stay in the chain but carry no financials
            number(list(chain.from_iterable(zip(sup, buy))), firm_index)
            supply.add(lookup(sup, firm_index), lookup(buy, firm_index), weights)
    # a blank row, in the unknown sector, for each supply-only firm
    blank = len(firm_index) - sum(map(len, present))
    sectors += [UNKNOWN_SECTOR] * blank
    present.append(np.zeros(blank, dtype=bool))
    values.append(np.zeros((len(FINANCIAL_FIELDS), blank)))

    interbank = _Edges()
    for block in read_blocks(spec.interbank, INTERBANK_COLUMNS):
        interbank.add(*block.convert(lambda b: (
            b.positions("borrower_id", bank_index, "bank"),
            b.positions("lender_id", bank_index, "bank"),
            _amounts(b, "amount", "borrower_id", INTERBANK_AMOUNTS),
        )))
    loans = _Edges()
    for block in read_blocks(spec.loans, LOAN_COLUMNS):
        loans.add(*block.convert(lambda b: (
            b.positions("firm_id", firm_index, "firm"),
            b.positions("bank_id", bank_index, "bank"),
            _amounts(b, "principal", "firm_id", LOAN_PRINCIPALS),
        )))

    essentiality = (
        load_essentiality(spec.essentiality) if spec.essentiality is not None else EssentialityTable()
    )

    # the indexes hold every id once, in file order
    n, m = len(firm_index), len(bank_index)
    present, values = np.concatenate(present), np.concatenate(values, axis=1)
    graph = EconomyGraph(
        firm_ids=list(firm_index),
        sectors=sectors,
        **firm_columns(present, *values),
        bank_ids=list(bank_index),
        bank_equity=np.concatenate(bank_equity),
        supply=SupplyNetwork.from_edges(n, *supply.arrays()),
        interbank=InterbankNetwork.from_edges(m, *interbank.arrays()),
        loans=LoanBook.from_entries(n, m, *loans.arrays()),
        essentiality=essentiality,
    )
    report = validate_economy(graph)
    if not report.ok:
        raise EconomyValidationError(report)
    return graph


class _Edges:
    """An edge list read block by block, in growing typed buffers: rows, columns and values."""

    def __init__(self):
        self.buffers = array("q"), array("q"), array("d")

    def add(self, *columns: np.ndarray) -> None:
        for buffer, column in zip(self.buffers, columns, strict=True):
            buffer.frombytes(column.tobytes())

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.frombuffer(buffer, dtype=buffer.typecode) for buffer in self.buffers)


class _Ids:
    """The id column ``cells[positions]``, gathered one slice at a time from ready CSV cells."""

    def __init__(self, cells: np.ndarray, positions: np.ndarray):
        self.cells, self.positions = cells, positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, part: slice) -> Cells:
        return Cells(self.cells[self.positions[part]].tolist())


def write_economy(g: EconomyGraph, directory: str | Path) -> None:
    """Write an economy back to the CSV layout read by :func:`load_economy`."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    blank = ~g.financials_present
    write_columns(d / "firms.csv", FIRM_COLUMNS, [
        g.firm_ids, g.sectors,
        *(np.ma.masked_array(getattr(g, name), mask=blank) for name in FINANCIAL_FIELDS),
    ])
    write_columns(d / "banks.csv", BANK_COLUMNS, [g.bank_ids, g.bank_equity])
    # each id is made a CSV cell once, for every edge that names it
    firm_cells, bank_cells = (np.array(to_cells(ids), dtype=object) for ids in (g.firm_ids, g.bank_ids))
    for name, columns, matrix, row_cells, col_cells in (
        ("supply.csv", SUPPLY_COLUMNS, g.supply.weights, firm_cells, firm_cells),
        ("interbank.csv", INTERBANK_COLUMNS, g.interbank.liabilities, bank_cells, bank_cells),
        ("loans.csv", LOAN_COLUMNS, g.loans.principals, firm_cells, bank_cells),
    ):
        coo = matrix.tocoo()
        write_columns(d / name, columns, [_Ids(row_cells, coo.row), _Ids(col_cells, coo.col), coo.data])
    if g.essentiality.overrides:
        pairs, flags = zip(*sorted(g.essentiality.overrides.items()))
        write_columns(d / "essentiality.csv", ESSENTIALITY_COLUMNS, [*zip(*pairs), np.array(flags)])
    else:  # an earlier economy's table would be read back as this one's
        (d / "essentiality.csv").unlink(missing_ok=True)
