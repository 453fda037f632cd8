"""Shock propagation: fixture cascades, monotonicity, convergence, impact index."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress import (
    EconomyGraph,
    EssentialityTable,
    InterbankNetwork,
    LoanBook,
    PropagationConfig,
    SupplyNetwork,
    compute_esri,
    propagate,
)
from netstress.pipeline import CHUNK
from netstress.propagation import _plan_for, _pools

from .builders import BankSheet, FirmNode, graph_from_records, single_firm_shock, toy_economy
from .conftest import random_economy
from .oracle import is_essential, oracle_propagate

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
    return graph_from_records(
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
        g = replace(toy, supply=SupplyNetwork.from_edges(6, [], [], []))
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

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, epsilon):
        # an infinite tolerance would stop every cascade after one update and report it converged
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            PropagationConfig(epsilon=epsilon)

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
    g = graph_from_records(
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


class TestEssentialPools:
    def test_mask_matches_a_lookup_per_pool(self):
        # exact pairs, two-digit prefixes, an exact pair against its prefix,
        # codes shorter than four digits, and everything else non-essential
        rng = np.random.default_rng(3)
        codes = ["1011", "1012", "1099", "2011", "2012", "3000", "3", "30"]
        n = 24
        sectors = [codes[i % len(codes)] for i in range(n)]
        overrides = {
            ("1011", "2011"): True, ("1012", "2011"): False, ("10", "20"): True,
            ("1011", "2012"): False, ("20", "10"): True, ("3", "30"): True,
            ("30", "10"): True, ("3000", "1099"): False,
        }
        suppliers, buyers = zip(*[(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4])
        g = graph_from_records(
            firms=[FirmNode(f"f{i}", sector, 100.0, 60.0, 50.0, 80.0, 20.0) for i, sector in enumerate(sectors)],
            supply=SupplyNetwork.from_edges(n, suppliers, buyers, rng.uniform(1.0, 30.0, len(buyers))),
            banks=[BankSheet("b0", 100.0)],
            interbank=InterbankNetwork.from_edges(1, [], [], []),
            loans=LoanBook.from_entries(n, 1, [], [], []),
            essentiality=EssentialityTable(overrides=overrides, default_essential=False),
        )
        w = g.supply.weights.tocsc()
        edge_buyer = np.repeat(np.arange(n), np.diff(w.indptr))
        edge_pool, pool_buyer, essential = _pools(g, w.indices, edge_buyer)
        assert np.array_equal(pool_buyer[edge_pool], edge_buyer)
        pool_sectors = {(p, sectors[s]) for p, s in zip(edge_pool.tolist(), w.indices.tolist())}
        assert len(pool_sectors) == pool_buyer.size  # one supplier sector per pool
        expected = np.zeros(pool_buyer.size, dtype=bool)
        for p, sector in pool_sectors:
            expected[p] = is_essential(g.essentiality, sector, sectors[pool_buyer[p]])
        assert essential.dtype == bool and np.array_equal(essential, expected)
        assert 0 < expected.sum() < expected.size


class TestAgainstOracle:
    """The pooled, level-ordered kernel against the per-firm loop."""

    CASES = [(seed, False) for seed in range(4)] + [(0, True)]

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed, none_essential", CASES)
    def test_pooled_economies(self, seed, none_essential, sigma):
        g = pooled_economy(seed)
        if none_essential:
            g.essentiality = EssentialityTable(default_essential=False)
            assert _plan_for(g).n_ess == 0
        else:
            # several levels, and a buyer left out of every one of them
            plan = _plan_for(g)
            assert plan.levels and 2 not in plan.order[: plan.n_ess]
        cfg = PropagationConfig(epsilon=1e-12, max_iter=10_000, nonessential_weight=sigma)
        rng = np.random.default_rng(100 + seed)
        for psi in (rng.uniform(0.0, 1.0, g.n), np.where(rng.random(g.n) < 0.3, 0.0, 1.0)):
            mine = propagate(g, psi, cfg).h
            theirs = oracle_propagate(g, psi, epsilon=1e-12, max_iter=10_000, sigma=sigma)
            np.testing.assert_allclose(mine, theirs, rtol=0.0, atol=1e-10)


def oracle_run(g, psi, cfg):
    """The loop oracle one update at a time: levels, updates made, and whether the drop fell to epsilon."""
    h = list(psi)
    for step in range(1, cfg.max_iter + 1):
        new = oracle_propagate(g, h, epsilon=cfg.epsilon, max_iter=1, sigma=cfg.nonessential_weight)
        drop = max((a - b for a, b in zip(h, new)), default=0.0)
        h = new
        if drop <= cfg.epsilon:
            return h, step, True
    return h, cfg.max_iter, False


class TestBlocks:
    """An (S, n) block against the loop oracle, one column at a time."""

    def check(self, g, psi, cfg):
        profile = propagate(g, psi, cfg)
        assert profile.h.shape == psi.shape
        assert profile.steps.shape == profile.done.shape == (len(psi),)
        for row, h, steps, done in zip(psi, profile.h, profile.steps, profile.done):
            want, want_steps, want_done = oracle_run(g, row, cfg)
            np.testing.assert_allclose(h, want, rtol=0.0, atol=1e-10)
            assert (steps, done) == (want_steps, want_done)
            alone = propagate(g, row, cfg)
            assert alone.h.tobytes() == h.tobytes()
            assert (alone.iterations, alone.converged) == (steps, done)
        assert profile.iterations == profile.steps.sum()
        assert profile.converged == profile.done.all()
        return profile

    @staticmethod
    def shocks(g, count, seed):
        rng = np.random.default_rng(seed)
        psi = np.where(rng.random((count, g.n)) < 0.4, rng.uniform(0.0, 1.0, (count, g.n)), 1.0)
        psi[::3] = 1.0  # unshocked columns stop at the first step
        return psi

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_columns_stop_at_their_own_step(self, seed, sigma):
        g = pooled_economy(seed)
        cfg = PropagationConfig(epsilon=1e-3, nonessential_weight=sigma)
        profile = self.check(g, self.shocks(g, 11, seed), cfg)
        assert profile.steps[0] == 1 and len(set(profile.steps.tolist())) >= 3

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_column_at_max_iter_beside_converged_ones(self, sigma):
        g = pooled_economy(1)
        psi = self.shocks(g, 6, 7)
        psi[4] = np.random.default_rng(0).uniform(0.0, 1.0, g.n)  # 9 or more steps to 1e-12
        cfg = PropagationConfig(epsilon=1e-12, max_iter=6, nonessential_weight=sigma)
        profile = self.check(g, psi, cfg)
        assert not profile.done[4] and profile.steps[4] == 6
        assert profile.done[0] and profile.steps[0] == 1
        assert not profile.converged

    @pytest.mark.parametrize("count", [1, 3 * CHUNK + 1])
    def test_one_column_and_more_than_a_chunk(self, count):
        g = pooled_economy(2)
        self.check(g, self.shocks(g, count, 3), PropagationConfig(epsilon=1e-3, nonessential_weight=0.5))

    def test_vector_is_a_block_of_one(self, toy):
        psi = np.array([1.0, 0.5, 1.0, 1.0, 0.3, 1.0])
        vector, block = propagate(toy, psi), propagate(toy, psi[None, :])
        assert vector.h.shape == (6,) and block.h.shape == (1, 6)
        assert vector.h.tobytes() == block.h.tobytes()
        assert vector.steps.tolist() == block.steps.tolist() == [vector.iterations]
        assert isinstance(vector.iterations, int) and isinstance(vector.converged, bool)


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
        # the run cut off after t updates is the trajectory's t-th state
        g = toy_economy()
        psi = np.asarray(psi)
        steps = propagate(g, psi, TIGHT).iterations
        previous = psi
        for t in range(1, steps + 1):
            h = propagate(g, psi, PropagationConfig(epsilon=1e-12, max_iter=t)).h
            assert np.all(h <= previous)
            previous = h


class TestWeightScaling:
    """Scaling every supply weight by a power of two scales each pool sum and
    each firm's sales exactly, so the cascade must not move by one bit."""

    @pytest.mark.parametrize("k", [-3, 5])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_cascade_bit_for_bit(self, seed, sigma, k):
        rng = np.random.default_rng(seed)
        g = random_economy(rng, n=25, m=3, edge_prob=0.2)
        sectors = g.sectors
        g.essentiality = EssentialityTable(overrides={
            (sectors[i], sectors[j]): False
            for i, j in rng.integers(0, g.n, (60, 2)).tolist()
        })
        scaled = replace(g, supply=SupplyNetwork(g.supply.weights * 2.0**k))
        assert scaled.supply.weights.nnz == g.supply.weights.nnz
        for cfg in (PropagationConfig(nonessential_weight=sigma),
                    PropagationConfig(epsilon=1e-12, max_iter=10_000, nonessential_weight=sigma)):
            # every block width, the full-width divisors of CHUNK columns included
            for width in range(1, CHUNK + 1):
                psi = rng.uniform(0.0, 1.0, (width, g.n))
                psi[1::2] = np.where(rng.random((width // 2, g.n)) < 0.2, 0.0, 1.0)
                base, other = propagate(g, psi, cfg), propagate(scaled, psi, cfg)
                assert base.h.tobytes() == other.h.tobytes()
                assert base.steps.tolist() == other.steps.tolist()
                assert base.done.tolist() == other.done.tolist()


def relabelled(g: EconomyGraph, perm: np.ndarray) -> EconomyGraph:
    """``g`` with its firm ``perm[i]`` renumbered ``i``."""
    columns = ("revenue", "op_cost", "equity", "short_assets", "short_liabs",
               "financials_present", "eligible_for_default")
    return replace(
        g,
        firm_ids=[g.firm_ids[i] for i in perm],
        sectors=[g.sectors[i] for i in perm],
        **{name: getattr(g, name)[perm] for name in columns},
        supply=SupplyNetwork(g.supply.weights.tocsr()[perm][:, perm]),
        loans=LoanBook(g.loans.principals[perm], g.loans.lgd),
    )


class TestRelabelling:
    """Renumbering the firms changes the step order, not the cascade."""

    @pytest.mark.parametrize("seed", range(4))
    def test_step_order_moves_no_edge_within_its_row(self, seed):
        # the plan renumbers columns only: each row still sums its suppliers, or
        # its buyers, in ascending firm order, as the supply matrix stores them
        g = pooled_economy(seed)
        plan = _plan_for(g)
        assert not np.array_equal(plan.order, np.arange(g.n))
        for m in (plan.pool_csr, plan.weights_csr):
            firms = plan.order[m.indices]
            for a, b in zip(m.indptr[:-1], m.indptr[1:]):
                assert np.all(np.diff(firms[a:b]) > 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_firms_same_cascade(self, seed, sigma):
        g = pooled_economy(seed)
        perm = np.random.default_rng(seed).permutation(g.n)
        moved = relabelled(g, perm)
        # the same firms walk the steps in another order
        assert not np.array_equal(perm[_plan_for(moved).order], _plan_for(g).order)
        psi = TestBlocks.shocks(g, CHUNK, seed)
        cfg = PropagationConfig(epsilon=1e-6, nonessential_weight=sigma)
        base, other = propagate(g, psi, cfg), propagate(moved, psi[:, perm], cfg)
        np.testing.assert_allclose(other.h[:, np.argsort(perm)], base.h, rtol=0.0, atol=1e-12)
        assert other.steps.tolist() == base.steps.tolist()
        assert other.done.tolist() == base.done.tolist()


class TestEsri:
    def test_isolated_firm_share_of_output(self):
        firms = [
            FirmNode("solo", "1000", 10.0, 5.0, 5.0, 8.0, 2.0),
            FirmNode("rest", "2000", 90.0, 50.0, 100.0, 200.0, 20.0),
        ]
        g = graph_from_records(
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
        g = graph_from_records(
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
