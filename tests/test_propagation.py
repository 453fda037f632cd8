"""Shock propagation: fixture cascades, monotonicity, convergence, impact index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress import (
    BankSheet,
    EconomyGraph,
    EssentialityTable,
    FirmNode,
    InterbankNetwork,
    LoanBook,
    PropagationConfig,
    SupplyNetwork,
    compute_esri,
    propagate,
    single_firm_shock,
    toy_economy,
)
from netstress.propagation import _plan_for, write_trajectory

from .oracle import oracle_propagate

TIGHT = PropagationConfig(epsilon=1e-12, max_iter=10_000)


def chain_economy(essential: bool = True) -> EconomyGraph:
    """Three-firm chain a -> b -> c with one bank, every link one sector."""
    firms = [
        FirmNode("a", "1000", 100.0, 60.0, 50.0, 80.0, 20.0),
        FirmNode("b", "2000", 100.0, 60.0, 50.0, 80.0, 20.0),
        FirmNode("c", "3000", 100.0, 60.0, 50.0, 80.0, 20.0),
    ]
    supply = SupplyNetwork.from_edges(3, [0, 1], [1, 2], [10.0, 10.0])
    table = EssentialityTable() if essential else EssentialityTable(default_essential=False)
    return EconomyGraph(
        firms=firms,
        supply=supply,
        banks=[BankSheet("b0", 100.0)],
        interbank=InterbankNetwork.from_edges(1, [], [], []),
        loans=LoanBook.from_entries(3, 1, [], [], []),
        essentiality=table,
    )


class TestPropagate:
    def test_toy_single_firm_shock_stops_everything(self, toy):
        profile = propagate(toy, single_firm_shock(toy, "f"))
        np.testing.assert_array_equal(profile.h, np.zeros(6))
        assert profile.converged

    def test_disabled_regime_returns_shock_unchanged(self, toy):
        psi = single_firm_shock(toy, "f")
        profile = propagate(toy, psi, PropagationConfig(enabled=False))
        np.testing.assert_array_equal(profile.h, psi)
        assert profile.converged

    def test_all_ones_is_fixed_point_in_one_iteration(self, toy):
        profile = propagate(toy, np.ones(6))
        np.testing.assert_array_equal(profile.h, np.ones(6))
        assert profile.iterations == 1

    def test_three_firm_chain_full_stop(self):
        # hand iteration: killing a starves b downstream, then c; b's demand
        # side also dies once c stops buying
        g = chain_economy()
        profile = propagate(g, np.array([0.0, 1.0, 1.0]), TIGHT)
        np.testing.assert_allclose(profile.h, [0.0, 0.0, 0.0], atol=1e-12)

    def test_partial_shock_propagates_availability(self):
        # a at 40%: b's only (essential) input pool is 40% available, c follows
        g = chain_economy()
        profile = propagate(g, np.array([0.4, 1.0, 1.0]), TIGHT)
        np.testing.assert_allclose(profile.h, [0.4, 0.4, 0.4], atol=1e-12)

    def test_removing_supply_edges_equates_regimes(self, toy):
        g = EconomyGraph(
            toy.firms, SupplyNetwork.from_edges(6, [], [], []),
            toy.banks, toy.interbank, toy.loans,
        )
        psi = np.array([0.2, 1.0, 0.7, 1.0, 0.0, 1.0])
        with_cascade = propagate(g, psi)
        np.testing.assert_array_equal(with_cascade.h, psi)

    def test_nonessential_inputs_do_not_constrain_at_zero_weight(self):
        g = chain_economy(essential=False)
        profile = propagate(g, np.array([0.0, 1.0, 1.0]), TIGHT)
        # b keeps producing: its only input is non-essential and sigma = 0,
        # but demand from c still holds, and c loses nothing
        np.testing.assert_allclose(profile.h, [0.0, 1.0, 1.0], atol=1e-12)

    def test_nonessential_weight_interpolates(self):
        g = chain_economy(essential=False)
        cfg = PropagationConfig(epsilon=1e-12, max_iter=10_000, nonessential_weight=0.5)
        profile = propagate(g, np.array([0.0, 1.0, 1.0]), cfg)
        # with sigma = 0.5 and input availability 0, b's capacity factor is 0.5
        assert profile.h[1] == pytest.approx(0.5, abs=1e-9)

    def test_non_convergence_flagged(self, toy):
        cfg = PropagationConfig(epsilon=1e-12, max_iter=1)
        profile = propagate(toy, single_firm_shock(toy, "f"), cfg)
        assert not profile.converged
        assert profile.iterations == 1

    def test_shock_bounds_checked(self, toy):
        with pytest.raises(ValueError):
            propagate(toy, np.full(6, 1.5))
        with pytest.raises(ValueError):
            propagate(toy, np.ones(5))

    def test_trajectory_recorded_and_dumped(self, toy, tmp_path):
        cfg = PropagationConfig(record_trajectory=True)
        profile = propagate(toy, single_firm_shock(toy, "f"), cfg)
        assert profile.trajectory is not None
        assert profile.trajectory.shape == (profile.iterations + 1, 6)
        np.testing.assert_array_equal(profile.trajectory[-1], profile.h)
        out = tmp_path / "trajectory.csv"
        write_trajectory(profile, toy.firm_ids, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,firm_id,h"
        assert len(lines) == 1 + 6 * (profile.iterations + 1)

    def test_matches_loop_oracle_on_toy(self, toy):
        psi = np.array([1.0, 0.5, 1.0, 1.0, 0.3, 1.0])
        mine = propagate(toy, psi, TIGHT).h
        theirs = oracle_propagate(toy, psi, epsilon=1e-12, max_iter=10_000)
        np.testing.assert_allclose(mine, theirs, atol=1e-12)


def pooled_economy(seed: int) -> EconomyGraph:
    """Twelve firms in five sectors, so pools hold several edges.

    Random essentiality overrides between the four main sectors. Firm 0
    buys nothing, firm 1 sells nothing and firm 2, alone in sector 3000,
    finds every input non-essential.
    """
    rng = np.random.default_rng(seed)
    n = 12
    main = ["1000", "1100", "2000", "2100"]
    sectors = [main[int(k)] for k in rng.integers(0, 4, n)]
    sectors[2] = "3000"
    suppliers, buyers = [], []
    for i in range(n):
        for j in range(n):
            if i != j and j != 0 and i != 1 and (rng.random() < 0.35 or (j == 2 and i in (3, 4))):
                suppliers.append(i)
                buyers.append(j)
    overrides = {(sup, buy): bool(rng.random() < 0.5) for sup in main for buy in main}
    overrides.update({(sup[:2], "30"): False for sup in main})
    g = EconomyGraph(
        firms=[FirmNode(f"f{i}", sector, 100.0, 60.0, 50.0, 80.0, 20.0) for i, sector in enumerate(sectors)],
        supply=SupplyNetwork.from_edges(n, suppliers, buyers, rng.uniform(1.0, 30.0, len(buyers))),
        banks=[BankSheet("b0", 100.0)],
        interbank=InterbankNetwork.from_edges(1, [], [], []),
        loans=LoanBook.from_entries(n, 1, [], [], []),
        essentiality=EssentialityTable(overrides=overrides),
    )
    w = g.supply.weights
    assert w[:, 0].nnz == 0 and w[1].nnz == 0 and w[:, 2].nnz >= 2
    return g


class TestAgainstOracle:
    """The pooled, level-ordered kernel against the per-firm loop."""

    CASES = [(seed, False) for seed in range(4)] + [(0, True)]

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed, none_essential", CASES)
    def test_pooled_economies(self, seed, none_essential, sigma):
        g = pooled_economy(seed)
        if none_essential:
            g.essentiality = EssentialityTable(default_essential=False)
            assert not _plan_for(g).ess_buyer.size
        else:
            # several levels, and a buyer left out of every one of them
            assert _plan_for(g).levels and 2 not in _plan_for(g).ess_buyer
        cfg = PropagationConfig(epsilon=1e-12, max_iter=10_000, nonessential_weight=sigma)
        rng = np.random.default_rng(100 + seed)
        for psi in (rng.uniform(0.0, 1.0, g.n), np.where(rng.random(g.n) < 0.3, 0.0, 1.0)):
            mine = propagate(g, psi, cfg).h
            theirs = oracle_propagate(g, psi, epsilon=1e-12, max_iter=10_000, sigma=sigma)
            np.testing.assert_allclose(mine, theirs, rtol=0.0, atol=1e-10)


@st.composite
def shock_pairs(draw):
    lower = draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    deltas = draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    upper = [min(1.0, lo + d) for lo, d in zip(lower, deltas)]
    return np.asarray(lower), np.asarray(upper)


class TestProperties:
    @given(shock_pairs())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_shock(self, pair):
        g = toy_economy()
        lower, upper = pair
        h_low = propagate(g, lower, TIGHT).h
        h_high = propagate(g, upper, TIGHT).h
        assert np.all(h_low <= h_high + 1e-9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_dominance(self, psi):
        g = toy_economy()
        psi = np.asarray(psi)
        profile = propagate(g, psi, TIGHT)
        assert np.all(profile.h >= 0.0) and np.all(profile.h <= 1.0)
        assert np.all(profile.h <= psi + 1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_at_fixed_point(self, psi):
        g = toy_economy()
        first = propagate(g, np.asarray(psi), TIGHT)
        again = propagate(g, first.h, TIGHT)
        np.testing.assert_allclose(again.h, first.h, atol=1e-9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_trajectory_non_increasing(self, psi):
        g = toy_economy()
        cfg = PropagationConfig(epsilon=1e-12, max_iter=10_000, record_trajectory=True)
        profile = propagate(g, np.asarray(psi), cfg)
        diffs = np.diff(profile.trajectory, axis=0)
        assert np.all(diffs <= 1e-15)


class TestEsri:
    def test_isolated_firm_share_of_output(self):
        firms = [
            FirmNode("solo", "1000", 10.0, 5.0, 5.0, 8.0, 2.0),
            FirmNode("rest", "2000", 90.0, 50.0, 100.0, 200.0, 20.0),
        ]
        g = EconomyGraph(
            firms=firms,
            supply=SupplyNetwork.from_edges(2, [], [], []),
            banks=[BankSheet("b0", 100.0)],
            interbank=InterbankNetwork.from_edges(1, [], [], []),
            loans=LoanBook.from_entries(2, 1, [], [], []),
        )
        assert compute_esri(g, "solo") == pytest.approx(0.10)

    def test_toy_firm_f_wipes_all_output(self, toy):
        assert compute_esri(toy, "f") == pytest.approx(1.0)

    def test_zero_output_isolated_firm_scores_zero(self):
        firms = [
            FirmNode("ghost", "1000", financials_present=False, eligible_for_default=False),
            FirmNode("rest", "2000", 90.0, 50.0, 100.0, 200.0, 20.0),
        ]
        g = EconomyGraph(
            firms=firms,
            supply=SupplyNetwork.from_edges(2, [], [], []),
            banks=[BankSheet("b0", 100.0)],
            interbank=InterbankNetwork.from_edges(1, [], [], []),
            loans=LoanBook.from_entries(2, 1, [], [], []),
        )
        assert compute_esri(g, "ghost") == 0.0

    def test_unknown_firm_rejected(self, toy):
        with pytest.raises(ValueError, match="unknown firm"):
            compute_esri(toy, "zz")
