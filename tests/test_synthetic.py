"""The synthetic generator's loan book and supply network.

``_loan_book`` draws each chunk of firms from one block of uniforms and
must still reproduce the scalar-call loop of ``oracle_loan_book`` bit for
bit, and leave the generator where that loop leaves it.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from netstress import SyntheticParams, generate_synthetic_economy
from netstress.synthetic import LOAN_CHUNK, _BankPick, _loan_book

from .oracle import oracle_loan_book


def _case(m, n_eligible, seed):
    """Bank shares, eligible firms (every fifth firm left out) and revenues."""
    setup = np.random.default_rng(seed)
    equity = setup.lognormal(0.0, 0.5, size=m)
    eligible = [i for i in range(n_eligible + n_eligible // 4) if i % 5 != 4][:n_eligible]
    revenue = setup.lognormal(3.5, 0.8, size=eligible[-1] + 1)
    return equity / equity.sum(), eligible, revenue


def _check_against_oracle(m, coverage, n_eligible, seed):
    p, eligible, revenue = _case(m, n_eligible, seed)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, slow):
        rng.integers(0, 10, 3)  # leaves a cached 32-bit half that the loan book must keep
        assert rng.bit_generator.state["has_uint32"] == 1
    got = _loan_book(fast, eligible, revenue.tolist(), _BankPick(p), coverage, m)
    want = oracle_loan_book(slow, eligible, revenue, p, coverage, m)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert [a.hex() for a in got[2]] == [a.hex() for a in want[2]]
    assert fast.integers(0, 1000, 5).tolist() == slow.integers(0, 1000, 5).tolist()
    assert fast.random() == slow.random()
    return got


@pytest.mark.parametrize("coverage", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3, 19])
def test_loan_book_matches_scalar_draws(m, coverage):
    firms, banks, _ = _check_against_oracle(m, coverage, LOAN_CHUNK + 1, seed=m)
    if coverage == 0.0:
        assert not firms
    elif m > 1:
        assert len(banks) > len(set(firms))  # some firms borrow twice


@pytest.mark.parametrize("n_eligible", [LOAN_CHUNK - 1, LOAN_CHUNK, LOAN_CHUNK + 1, 3 * LOAN_CHUNK + 5])
def test_loan_book_matches_across_chunk_edges(n_eligible):
    _check_against_oracle(2, 0.6, n_eligible, seed=n_eligible)


def test_loan_book_memory_is_chunked():
    """One buffer for every firm would hold ~13 MiB of Python floats here."""
    p, eligible, revenue = _case(19, 60_000, seed=3)
    pick, revenue = _BankPick(p), revenue.tolist()
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        loans = _loan_book(rng, eligible, revenue, pick, 0.6, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(map(sys.getsizeof, loans)) + sum(map(sys.getsizeof, loans[2]))
    assert peak < returned + 4 * 2**20


@pytest.mark.parametrize(("n", "mean_degree", "edges"), [(10, 8, 80), (10, 9, 90), (50, 40, 2000)])
def test_dense_supply_network_has_every_edge_asked_for(n, mean_degree, edges):
    g = generate_synthetic_economy(SyntheticParams(n=n, m=2, mean_degree=mean_degree), seed=1)
    assert g.supply.weights.nnz == edges
    assert g.supply.weights.diagonal().sum() == 0.0
