"""Shared fixtures and random-economy builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from netstress import (
    EconomyGraph,
    EssentialityTable,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    validate_economy,
)

from .builders import BankSheet, FirmNode, graph_from_records, toy_economy

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture
def toy() -> EconomyGraph:
    return toy_economy()


@pytest.fixture
def toy_dir() -> Path:
    return DATA_DIR / "toy"


def random_economy(
    rng: np.random.Generator,
    n: int,
    m: int,
    edge_prob: float = 0.3,
    loan_prob: float = 0.6,
    ib_prob: float = 0.4,
    tight_buffers: bool = True,
) -> EconomyGraph:
    """Small random economy with valid financials, for oracle comparisons."""
    sectors = [f"{10 + i:02d}00" for i in range(n)]
    firms = []
    for i in range(n):
        revenue = float(rng.uniform(50.0, 200.0))
        margin = float(rng.uniform(0.1, 0.4))
        profit = revenue * margin
        buffer_scale = rng.uniform(0.2, 1.5) if tight_buffers else rng.uniform(1.5, 4.0)
        firm = FirmNode(
            id=f"f{i}",
            sector=sectors[i],
            revenue=revenue,
            op_cost=revenue - profit,
            equity=float(profit * buffer_scale),
            short_assets=float(revenue * rng.uniform(0.3, 0.8)),
            short_liabs=float(revenue * rng.uniform(0.05, 0.25)),
        )
        firms.append(firm)

    suppliers, buyers, weights = [], [], []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                suppliers.append(i)
                buyers.append(j)
                weights.append(float(rng.uniform(1.0, 30.0)))
    supply = SupplyNetwork.from_edges(n, suppliers, buyers, weights)

    banks = [BankSheet(f"b{k}", float(rng.uniform(100.0, 500.0))) for k in range(m)]

    lf, lb, la = [], [], []
    for i in range(n):
        if rng.random() < loan_prob:
            k = int(rng.integers(0, m))
            lf.append(i)
            lb.append(k)
            la.append(float(rng.uniform(5.0, 80.0)))
    loans = LoanBook.from_entries(n, m, lf, lb, la)

    ib_b, ib_l, ib_a = [], [], []
    if m > 1:
        for k in range(m):
            for l in range(m):
                if k != l and rng.random() < ib_prob:
                    ib_b.append(k)
                    ib_l.append(l)
                    ib_a.append(float(rng.uniform(5.0, 0.4 * banks[l].tier1_equity)))
    interbank = InterbankNetwork.from_edges(m, ib_b, ib_l, ib_a)

    g = graph_from_records(
        firms=firms, supply=supply, banks=banks, interbank=interbank, loans=loans,
        essentiality=EssentialityTable(),
    )
    assert validate_economy(g).ok
    return g
