"""Interbank solvency contagion: hand cases, linearity, clamps, profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress import (
    EconomyGraph,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    debtrank,
    debtrank_profile,
)
from netstress.cli import main

from .builders import BankSheet, graph_from_records, toy_economy
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
    return graph_from_records(
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

    @pytest.mark.parametrize("seed, settings", [
        ([float("nan"), 0.0], {}),
        ([float("inf"), 0.0], {}),
        ([0.5, 0.0], {"epsilon": float("nan")}),
        ([0.5, 0.0], {"max_iter": 0}),
        ([0.5, 0.0], {"epsilon": float("inf")}),
    ], ids=["nan seed", "inf seed", "nan epsilon", "no iterations", "inf epsilon"])
    def test_bad_input_rejected(self, seed, settings):
        with pytest.raises(ValueError):
            debtrank(two_bank_economy(), np.array(seed), **settings)

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

    def test_trace_recorded_and_dumped(self, tmp_path, toy, toy_dir):
        g = two_bank_economy()
        result = debtrank(g, np.array([1.0, 0.0]), record_trace=True)
        assert result.trace is not None
        np.testing.assert_array_equal(result.trace[0], [1.0, 0.0])
        np.testing.assert_array_equal(result.trace[-1], result.final)
        # the CLI writes one such trace per bank: its full default as the seed
        assert main(["debtrank", "--economy-dir", str(toy_dir), "--trace", "--out", str(tmp_path)]) == 0
        trace = debtrank(toy, np.eye(toy.m)[1], record_trace=True).trace
        lines = (tmp_path / f"debtrank_trace_{toy.bank_ids[1]}.csv").read_text().splitlines()
        assert lines[0] == "iteration,bank_id,loss"
        assert lines[1:] == [f"{t},{bid},{value!r}" for t, row in enumerate(trace.tolist())
                             for bid, value in zip(toy.bank_ids, row)]


class TestBatched:
    """(S, m) seeds: each row gets the bits of a one-vector call, where a plain
    (S, m) @ (m, m) product would not (it changed about 3 200 of 9 500 final
    losses on a dense 19-bank network)."""

    @staticmethod
    def dense_economy(m=19):
        # every pair lends to each other; the leverage's spectral radius is about 0.68
        rng = np.random.default_rng(4)
        edges = [(l, k, float(rng.uniform(0.5, 6.0))) for l in range(m) for k in range(m) if l != k]
        return bank_only_economy(rng.uniform(50.0, 150.0, m), edges)

    def test_rows_match_one_vector_calls(self):
        g = self.dense_economy()
        rng = np.random.default_rng(8)
        seeds = rng.uniform(0.0, 1.0, (25, g.m)) * 10.0 ** rng.uniform(-4.0, -1.0, (25, 1))
        seeds[0] = 0.0  # stops at its first update
        settings = {"epsilon": 1e-6, "max_iter": 26}
        batched = debtrank(g, seeds, record_trace=True, **settings)
        assert batched.final.shape == seeds.shape and batched.trace.shape[1:] == seeds.shape
        assert len(set(batched.steps.tolist())) >= 10  # rows stop at different steps
        assert 0 < (~batched.done).sum() < 5 and set(batched.steps[~batched.done]) == {26}
        assert batched.iterations == batched.steps.sum() and not batched.converged
        for k, seed in enumerate(seeds):
            single = debtrank(g, seed, record_trace=True, **settings)
            assert single.final.tobytes() == batched.final[k].tobytes()
            assert (single.iterations, single.converged) == (batched.steps[k], batched.done[k])
            assert single.trace.tobytes() == batched.trace[: batched.steps[k] + 1, k].tobytes()

    def test_profile_is_the_full_default_rows(self):
        g = self.dense_economy()
        profile = debtrank_profile(g)
        share = g.bank_equity / g.bank_equity.sum()
        for k in range(g.m):
            seed = np.zeros(g.m)
            seed[k] = 1.0
            total = float(share @ np.minimum(debtrank(g, seed).final, 1.0))
            assert profile.total[k] == total


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
