"""Interbank solvency contagion: hand cases, linearity, clamps, profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress import (
    BankSheet,
    EconomyGraph,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    debtrank,
    debtrank_profile,
    toy_economy,
)
from netstress.debtrank import write_trace

from .oracle import oracle_debtrank


def bank_only_economy(equities, ib_edges) -> EconomyGraph:
    """No firms; just banks wired with (borrower, lender, amount) edges."""
    m = len(equities)
    banks = [BankSheet(f"b{k}", float(e)) for k, e in enumerate(equities)]
    interbank = InterbankNetwork.from_edges(
        m,
        [e[0] for e in ib_edges],
        [e[1] for e in ib_edges],
        [e[2] for e in ib_edges],
    )
    return EconomyGraph.from_records(
        firms=[],
        supply=SupplyNetwork.from_edges(0, [], [], []),
        banks=banks,
        interbank=interbank,
        loans=LoanBook.from_entries(0, m, [], [], []),
    )


def two_bank_economy() -> EconomyGraph:
    # bank 0 borrowed half of bank 1's equity from it: leverage[0, 1] = 0.5
    return bank_only_economy([100.0, 100.0], [(0, 1, 50.0)])


class TestDebtrank:
    def test_no_edges_final_equals_seed(self):
        g = bank_only_economy([100.0, 200.0], [])
        result = debtrank(g, np.array([0.4, 0.1]))
        np.testing.assert_array_equal(result.final, [0.4, 0.1])
        np.testing.assert_array_equal(result.ib_marginal, [0.0, 0.0])

    def test_two_bank_hand_case(self):
        # one step: creditor loses leverage * seed = 0.5
        g = two_bank_economy()
        result = debtrank(g, np.array([1.0, 0.0]))
        np.testing.assert_allclose(result.final, [1.0, 0.5])
        assert result.converged

    def test_seed_scaling_is_linear_below_clamp(self):
        g = toy_economy()
        seed = np.array([0.0, 0.1, 0.4, 0.2])
        base = debtrank(g, seed, epsilon=1e-14, max_iter=10_000)
        for alpha in (0.1, 0.5):
            scaled = debtrank(g, alpha * seed, epsilon=1e-14, max_iter=10_000)
            np.testing.assert_allclose(scaled.final, alpha * base.final, atol=1e-9)

    def test_defaulted_bank_transmits_no_more_than_full_equity(self):
        # seed of 3.0 transmits the same as seed of 1.0 (clamped at default)
        g = two_bank_economy()
        saturated = debtrank(g, np.array([3.0, 0.0]))
        np.testing.assert_allclose(saturated.final, [3.0, 0.5])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            debtrank(two_bank_economy(), np.array([-0.1, 0.0]))

    def test_non_convergence_flagged(self):
        # leverage cycle with radius > 1 and a cap of one iteration
        g = bank_only_economy([100.0, 100.0], [(0, 1, 120.0), (1, 0, 120.0)])
        result = debtrank(g, np.array([0.5, 0.0]), epsilon=1e-9, max_iter=1)
        assert not result.converged

    def test_matches_loop_oracle(self):
        g = toy_economy()
        seed = np.array([0.05, 0.0, 0.3, 0.12])
        mine = debtrank(g, seed).final
        theirs = oracle_debtrank(g, list(seed))
        np.testing.assert_allclose(mine, theirs, atol=1e-12)

    def test_trace_recorded_and_dumped(self, tmp_path):
        g = two_bank_economy()
        result = debtrank(g, np.array([1.0, 0.0]), record_trace=True)
        assert result.trace is not None
        np.testing.assert_array_equal(result.trace[0], [1.0, 0.0])
        np.testing.assert_array_equal(result.trace[-1], result.final)
        out = tmp_path / "trace.csv"
        write_trace(result, g.bank_ids, out)
        assert out.read_text().splitlines()[0] == "iteration,bank_id,loss"


class TestProperties:
    @given(
        seed_a=st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4),
        seed_b=st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_seed(self, seed_a, seed_b):
        g = toy_economy()
        low = np.minimum(seed_a, seed_b)
        high = np.maximum(seed_a, seed_b)
        final_low = debtrank(g, low, epsilon=1e-12, max_iter=10_000).final
        final_high = debtrank(g, high, epsilon=1e-12, max_iter=10_000).final
        assert np.all(final_low <= final_high + 1e-12)

    @given(
        seed_a=st.lists(st.floats(0.0, 0.2), min_size=4, max_size=4),
        seed_b=st.lists(st.floats(0.0, 0.2), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_superadditive_with_equality_below_clamp(self, seed_a, seed_b):
        g = toy_economy()
        a, b = np.asarray(seed_a), np.asarray(seed_b)
        fa = debtrank(g, a, epsilon=1e-13, max_iter=10_000).final
        fb = debtrank(g, b, epsilon=1e-13, max_iter=10_000).final
        fab = debtrank(g, a + b, epsilon=1e-13, max_iter=10_000).final
        zero = debtrank(g, np.zeros(4), epsilon=1e-13, max_iter=10_000).final
        assert np.all(fab >= fa + fb - zero - 1e-10)
        if np.all(a + b <= 0.4):  # comfortably linear: equality holds
            np.testing.assert_allclose(fab, fa + fb, atol=1e-9)

    @given(st.lists(st.floats(0.0, 0.5), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_final_dominates_seed(self, psi):
        g = toy_economy()
        from netstress import default_flags, profit_shock, propagate, bank_losses

        h = propagate(g, np.asarray(psi)).h
        chi_wo = default_flags(g, profit_shock(g, np.asarray(psi)))
        chi_w = default_flags(g, profit_shock(g, h))
        ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
        result = debtrank(g, ledger.seed_with())
        assert np.all(result.final >= result.initial - 1e-15)
        assert np.all(result.ib_marginal >= -1e-15)


class TestProfile:
    def test_two_bank_profile_values(self):
        g = two_bank_economy()
        profile = debtrank_profile(g)
        # failing bank 0 drags half of bank 1 down: (1 + 0.5) / 2
        assert profile.total[0] == pytest.approx(0.75)
        assert profile.contagion_only[0] == pytest.approx(0.25)
        # nobody holds assets on bank 1, so its failure stays its own
        assert profile.total[1] == pytest.approx(0.5)
        assert profile.contagion_only[1] == pytest.approx(0.0)

    def test_bank_without_creditors_has_no_contagion(self):
        g = bank_only_economy([100.0, 150.0, 200.0], [(0, 1, 30.0)])
        profile = debtrank_profile(g)
        # banks 1 and 2 have no one holding their debt
        assert profile.contagion_only[1] == pytest.approx(0.0)
        assert profile.contagion_only[2] == pytest.approx(0.0)
        assert profile.contagion_only[0] > 0.0
