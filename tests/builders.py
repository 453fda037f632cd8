"""Hand-built economies for the tests: firm and bank records, the toy and ring graphs, and one firm's shock.

``toy_economy`` is the reference that ``data/toy`` is checked against; the
package itself loads economies only from files or the synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netstress import (
    EconomyGraph,
    EssentialityTable,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    single_firm_batch,
)
from netstress.economy import FINANCIAL_FIELDS


@dataclass
class FirmNode:
    """One firm as an input record of :func:`graph_from_records`.

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
    """One bank as an input record of :func:`graph_from_records`."""

    id: str
    tier1_equity: float


def graph_from_records(firms: list[FirmNode], supply: SupplyNetwork, banks: list[BankSheet],
                       interbank: InterbankNetwork, loans: LoanBook,
                       essentiality: EssentialityTable | None = None) -> EconomyGraph:
    """A graph from firm and bank records, their fields taken as given."""
    def column(name: str, dtype=float) -> np.ndarray:
        return np.array([getattr(f, name) for f in firms], dtype=dtype)

    return EconomyGraph(
        firm_ids=[f.id for f in firms], sectors=[f.sector for f in firms],
        **{name: column(name) for name in FINANCIAL_FIELDS},
        financials_present=column("financials_present", bool),
        eligible_for_default=column("eligible_for_default", bool),
        bank_ids=[b.id for b in banks], bank_equity=np.array([b.tier1_equity for b in banks], dtype=float),
        supply=supply, interbank=interbank, loans=loans, essentiality=essentiality or EssentialityTable(),
    )


def single_firm_shock(g: EconomyGraph, firm_id: str) -> np.ndarray:
    """The shock vector of ``firm_id``'s failure: that firm stops, all others run."""
    return next(single_firm_batch(g, [firm_id]).blocks(1))[0]


def toy_economy() -> EconomyGraph:
    """Six firms, four banks, wired so one firm's failure stops everything.

    Supply edges (supplier -> buyer): f->a, f->d, f->e, c->f, b->c, d->c.
    All inputs are essential and each firm sits in its own sector, so
    shutting down f starves a, d and e of inputs and drains demand from c,
    then b. Under the full cascade firms d, e and f default; only f
    defaults without it. Loans: f owes bank 3 a quarter of its equity, d
    owes banks 3 and 4 five and ten percent of theirs.
    """
    firms = [
        FirmNode("a", "1011", revenue=100.0, op_cost=70.0, equity=500.0, short_assets=600.0, short_liabs=50.0),
        FirmNode("b", "1012", revenue=90.0, op_cost=40.0, equity=400.0, short_assets=450.0, short_liabs=50.0),
        FirmNode("c", "1013", revenue=120.0, op_cost=90.0, equity=300.0, short_assets=350.0, short_liabs=50.0),
        FirmNode("d", "1014", revenue=80.0, op_cost=50.0, equity=20.0, short_assets=100.0, short_liabs=20.0),
        FirmNode("e", "1015", revenue=50.0, op_cost=30.0, equity=10.0, short_assets=40.0, short_liabs=20.0),
        FirmNode("f", "1016", revenue=100.0, op_cost=60.0, equity=30.0, short_assets=50.0, short_liabs=10.0),
    ]
    index = {fid: i for i, fid in enumerate("abcdef")}
    edges = [("f", "a", 10.0), ("f", "d", 15.0), ("f", "e", 5.0),
             ("c", "f", 20.0), ("b", "c", 12.0), ("d", "c", 8.0)]
    supply = SupplyNetwork.from_edges(
        6,
        [index[s] for s, _, _ in edges],
        [index[b] for _, b, _ in edges],
        [w for _, _, w in edges],
    )

    banks = [
        BankSheet("1", 200.0),
        BankSheet("2", 150.0),
        BankSheet("3", 100.0),
        BankSheet("4", 100.0),
    ]
    bank_index = {bid: k for k, bid in enumerate("1234")}
    ib_edges = [("3", "2", 30.0), ("4", "1", 20.0), ("2", "1", 15.0)]
    interbank = InterbankNetwork.from_edges(
        4,
        [bank_index[k] for k, _, _ in ib_edges],
        [bank_index[l] for _, l, _ in ib_edges],
        [a for _, _, a in ib_edges],
    )

    loan_entries = [("a", "1", 40.0), ("b", "2", 30.0), ("c", "2", 20.0),
                    ("f", "3", 25.0), ("d", "3", 5.0), ("d", "4", 10.0)]
    loans = LoanBook.from_entries(
        6, 4,
        [index[f] for f, _, _ in loan_entries],
        [bank_index[k] for _, k, _ in loan_entries],
        [a for _, _, a in loan_entries],
    )

    return graph_from_records(firms, supply, banks, interbank, loans)


def ring_economy(n_firms: int = 5, n_banks: int = 3) -> EconomyGraph:
    """A mutually essential production ring: any single failure kills the ring.

    Every firm supplies the next one an essential input and all firms have
    buffers below their profit, so whichever firm stops, the whole ring
    defaults -- producing a flat top block of identical systemic-risk
    indices.
    """
    firms = [
        FirmNode(
            f"r{i}", f"{20 + i:02d}00",
            revenue=100.0, op_cost=60.0, equity=20.0,
            short_assets=80.0, short_liabs=30.0,
        )
        for i in range(n_firms)
    ]
    suppliers = list(range(n_firms))
    buyers = [(i + 1) % n_firms for i in range(n_firms)]
    supply = SupplyNetwork.from_edges(n_firms, suppliers, buyers, [10.0] * n_firms)

    banks = [BankSheet(f"b{k}", 100.0 * (k + 1)) for k in range(n_banks)]
    loan_firms = list(range(n_firms))
    loan_banks = [i % n_banks for i in range(n_firms)]
    loans = LoanBook.from_entries(
        n_firms, n_banks, loan_firms, loan_banks, [8.0] * n_firms
    )

    ib_edges = [(k, (k + 1) % n_banks, 10.0) for k in range(n_banks)] if n_banks > 1 else []
    interbank = InterbankNetwork.from_edges(
        n_banks,
        [e[0] for e in ib_edges],
        [e[1] for e in ib_edges],
        [e[2] for e in ib_edges],
    )

    return graph_from_records(firms, supply, banks, interbank, loans)
