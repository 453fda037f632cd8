"""Risk measures, systemic-risk indices, batch statistics, fits and tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from netstress import (
    BankSheet,
    ChannelDecomposition,
    EconomyGraph,
    EssentialityTable,
    FirmNode,
    InterbankNetwork,
    LoanBook,
    PropagationConfig,
    ShockBatch,
    SupplyNetwork,
    ccdf,
    fsri,
    fsri_plus,
    fsri_profile,
    ib_amplification,
    ols_fit,
    ring_economy,
    run_batch,
    risk_measures,
    toy_economy,
    welch_test,
)
from netstress.cli import _write_profile

from .conftest import random_economy
from .oracle import oracle_fsri


class TestRiskMeasures:
    def test_one_to_hundred_pinned_convention(self):
        summary = risk_measures(np.arange(1, 101))
        assert summary.el == pytest.approx(50.5)
        assert summary.var95 == 95.0
        assert summary.es95 == pytest.approx(98.0)

    def test_constant_samples(self):
        summary = risk_measures(np.full(37, 3.25))
        assert summary.el == summary.var95 == summary.es95 == 3.25

    def test_single_sample(self):
        summary = risk_measures([7.0])
        assert summary.el == summary.var95 == summary.es95 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            risk_measures([])

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_ordering_invariants(self, samples):
        summary = risk_measures(samples)
        assert summary.es95 >= summary.var95
        assert summary.el <= summary.es95 + 1e-9

    @given(st.permutations(list(range(40))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant_within_float_tolerance(self, perm):
        base = risk_measures(np.arange(40, dtype=float))
        shuffled = risk_measures(np.asarray(perm, dtype=float))
        assert shuffled.var95 == base.var95
        assert shuffled.es95 == pytest.approx(base.es95, abs=1e-9)
        assert shuffled.el == pytest.approx(base.el, abs=1e-9)


class TestWelch:
    def test_identical_samples(self):
        result = welch_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_textbook_fixture_frozen_values(self):
        # precomputed with an independent implementation
        a = [19.8, 20.4, 19.6, 17.8, 18.5, 18.9, 18.3, 18.9, 19.5, 22.0]
        b = [28.2, 26.6, 20.1, 23.3, 25.2, 22.1, 17.7, 27.6, 20.6, 13.7,
             23.2, 17.5, 20.6, 18.0, 23.9, 21.6, 24.3, 20.4, 24.0, 13.2]
        result = welch_test(a, b)
        assert result.t_statistic == pytest.approx(-2.2192409158236233, abs=1e-6)
        assert result.p_value == pytest.approx(0.03597227102979685, abs=1e-6)
        assert result.df == pytest.approx(24.496223124201244, abs=1e-6)

    def test_separated_gaussians_tiny_p(self):
        rng = np.random.default_rng(42)
        a = rng.normal(0.0, 1.0, 10_000)
        b = rng.normal(1.0, 1.0, 10_000)
        assert welch_test(a, b).p_value < 1e-15

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.3, 1.4, 55)
        b = rng.normal(0.1, 0.6, 80)
        mine = welch_test(a, b)
        ref_t, ref_p = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.t_statistic == pytest.approx(float(ref_t), abs=1e-10)
        assert mine.p_value == pytest.approx(float(ref_p), abs=1e-10)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            welch_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            welch_test([1.0], [1.0, 2.0])


class TestOlsFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = ols_fit(x, 2.0 * x)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_on_log_log(self):
        x = np.linspace(0.5, 9.0, 30)
        fit = ols_fit(x, x**1.5, log_log=True)
        assert fit.log_log
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_recovery_within_three_standard_errors(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 10.0, 400)
        beta = 1.7
        y = beta * x + rng.normal(0.0, 0.5, 400)
        fit = ols_fit(x, y)
        residual_var = np.sum((y - fit.intercept - fit.slope * x) ** 2) / (len(x) - 2)
        se = np.sqrt(residual_var / np.sum((x - x.mean()) ** 2))
        assert abs(fit.slope - beta) < 3.0 * se

    def test_log_log_requires_positive(self):
        with pytest.raises(ValueError):
            ols_fit([1.0, -2.0, 3.0], [1.0, 2.0, 3.0], log_log=True)

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            ols_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def hand_economy() -> EconomyGraph:
    """Two firms, three banks, fully hand-checkable.

    x supplies y an essential input. Shocking x defaults x directly
    (DI on bank A: 20 / 100) and y only through the cascade (SC on bank B:
    50 / 200). Bank B borrowed from A and C, so both pick up interbank
    losses only in the cascade regime; C holds no firm loans at all.
    """
    firms = [
        FirmNode("x", "1000", 100.0, 60.0, 30.0, 50.0, 10.0),
        FirmNode("y", "2000", 80.0, 50.0, 25.0, 60.0, 25.0),
    ]
    supply = SupplyNetwork.from_edges(2, [0], [1], [10.0])
    banks = [BankSheet("A", 100.0), BankSheet("B", 200.0), BankSheet("C", 100.0)]
    interbank = InterbankNetwork.from_edges(3, [1, 1], [0, 2], [40.0, 30.0])
    loans = LoanBook.from_entries(2, 3, [0, 1], [0, 1], [20.0, 50.0])
    return EconomyGraph.from_records(firms=firms, supply=supply, banks=banks, interbank=interbank, loans=loans)


class TestSystemicRiskIndices:
    def test_toy_fixture_values(self, toy):
        # banks 3 and 4 lose 30% and 10%; equity-weighted over 550
        assert fsri(toy, "f") == pytest.approx(40.0 / 550.0)
        assert fsri_plus(toy, "f") == pytest.approx(51.9 / 550.0)

    def test_firm_with_no_loans_and_no_links_scores_zero(self):
        firms = [
            FirmNode("lonely", "1000", 10.0, 5.0, 1.0, 3.0, 1.0),
            FirmNode("rest", "2000", 90.0, 50.0, 100.0, 200.0, 20.0),
        ]
        g = EconomyGraph.from_records(
            firms=firms,
            supply=SupplyNetwork.from_edges(2, [], [], []),
            banks=[BankSheet("b0", 100.0)],
            interbank=InterbankNetwork.from_edges(1, [], [], []),
            loans=LoanBook.from_entries(2, 1, [], [], []),
        )
        assert fsri(g, "lonely") == 0.0

    def test_empty_interbank_equates_indices(self, toy):
        g = replace(toy, interbank=InterbankNetwork.from_edges(4, [], [], []))
        for firm_id in g.firm_ids:
            assert fsri_plus(g, firm_id) == pytest.approx(fsri(g, firm_id), abs=1e-15)

    def test_hand_economy_values(self):
        g = hand_economy()
        assert fsri(g, "x") == pytest.approx(70.0 / 400.0)
        assert fsri_plus(g, "x") == pytest.approx(87.5 / 400.0)

    def test_one_round_amplification_closed_form(self):
        # small seeds stop after one transmission round, where the ratio is
        # exactly 1 + interbank liabilities of the hit bank over its equity
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            equities = rng.uniform(50.0, 400.0, m)
            banks = [BankSheet(f"b{k}", float(e)) for k, e in enumerate(equities)]
            edges = []
            for k in range(m):
                for l in range(m):
                    if k != l and rng.random() < 0.5:
                        edges.append((k, l, float(rng.uniform(1.0, 0.4 * equities[l]))))
            interbank = InterbankNetwork.from_edges(
                m, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]
            )
            hit = int(rng.integers(0, m))
            principal = float(equities[hit] * 1e-4)
            firm = FirmNode("x", "1000", 100.0, 60.0, 30.0, 50.0, 10.0)
            g = EconomyGraph.from_records(
                firms=[firm],
                supply=SupplyNetwork.from_edges(1, [], [], []),
                banks=banks,
                interbank=interbank,
                loans=LoanBook.from_entries(1, m, [0], [hit], [principal]),
            )
            base = fsri(g, "x")
            plus = fsri_plus(g, "x")
            liabilities = float(np.asarray(interbank.liabilities.sum(axis=1)).ravel()[hit])
            expected = 1.0 + liabilities / equities[hit]
            assert abs(plus / base - expected) < 1e-9

    def test_equality_when_hit_bank_has_no_creditors(self):
        # bank A holds no one's debt, so a shock confined to A cannot spread
        firm = FirmNode("x", "1000", 100.0, 60.0, 30.0, 50.0, 10.0)
        banks = [BankSheet("A", 100.0), BankSheet("B", 200.0)]
        interbank = InterbankNetwork.from_edges(2, [1], [0], [40.0])  # B borrowed from A
        g = EconomyGraph.from_records(
            firms=[firm],
            supply=SupplyNetwork.from_edges(1, [], [], []),
            banks=banks,
            interbank=interbank,
            loans=LoanBook.from_entries(1, 2, [0], [0], [20.0]),
        )
        assert fsri_plus(g, "x") == fsri(g, "x")

    def test_ranking_invariant_under_common_equity_rescaling(self, toy):
        base = [r.firm_id for r in fsri_profile(toy)]
        scaled = toy_economy()
        scaled.bank_equity *= 7.5
        rescaled = [r.firm_id for r in fsri_profile(scaled)]
        assert base == rescaled

    def test_rank_ordering_matches_pairwise_calls(self, toy):
        records = fsri_profile(toy)
        values = [fsri(toy, r.firm_id) for r in records]
        assert values == sorted(values, reverse=True)
        assert all(r.fsri == pytest.approx(v) for r, v in zip(records, values))
        assert all(r.fsri_plus >= r.fsri - 1e-15 for r in records)

    def test_ring_core_produces_flat_plateau(self):
        g = ring_economy(n_firms=6, n_banks=3)
        records = fsri_profile(g)
        top = [r.fsri for r in records]
        assert max(top) > 0.0
        assert max(top) - min(top) < 1e-12

    def test_all_zero_profile_on_loanless_economy(self, toy, tmp_path):
        g = replace(toy, loans=LoanBook.from_entries(6, 4, [], [], []))
        records = fsri_profile(g)
        assert all(r.fsri == 0.0 and r.fsri_plus == 0.0 for r in records)
        _write_profile(tmp_path, records)  # FSRI+ / FSRI is undefined: a blank cell
        lines = (tmp_path / "fsri_profile.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",amplification") and len(lines) == 7
        assert all(line.endswith(",0.0,0.0,") for line in lines[1:])

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed, m", [(2, 4), (5, 4), (7, 2)])  # at seed 7 some losses pass one equity
    def test_indices_match_the_serial_oracle(self, seed, m, sigma):
        rng = np.random.default_rng(seed)
        g = random_economy(rng, n=10, m=m)
        # about half the sector pairs essential, so sigma acts on the others
        g.essentiality = EssentialityTable(overrides={
            (s, b): bool(rng.random() < 0.5) for s in g.sectors for b in g.sectors
        })
        cfg = PropagationConfig(nonessential_weight=sigma)
        records = fsri_profile(g, cfg)
        assert any(r.fsri_plus > r.fsri > 0.0 for r in records)
        keys = [(-r.fsri, g.firm_index[r.firm_id]) for r in records]
        assert keys == sorted(keys)
        for r in records:
            want_base, want_plus = oracle_fsri(g, r.firm_id, sigma=sigma)
            base, plus = fsri(g, r.firm_id, cfg), fsri_plus(g, r.firm_id, cfg)
            for got, want in ((base, want_base), (r.fsri, want_base), (plus, want_plus), (r.fsri_plus, want_plus)):
                assert abs(got - want) <= 1e-12
            # one row and many rows of a matrix product may round differently
            assert abs(base - r.fsri) <= 1e-15 and abs(plus - r.fsri_plus) <= 1e-15


class TestCcdf:
    def test_survival_fractions(self):
        levels, survival = ccdf([1.0, 2.0, 2.0, 5.0])
        np.testing.assert_array_equal(levels, [1.0, 2.0, 5.0])
        np.testing.assert_allclose(survival, [1.0, 0.75, 0.25])

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(5)
        _, survival = ccdf(rng.uniform(0, 1, 100))
        assert np.all(np.diff(survival) < 0.0)


class TestChannelDecomposition:
    def test_zero_shock_batch_all_zero(self, toy):
        batch = ShockBatch(psi=np.ones((3, 6)), seed=None, provenance="custom")
        dec = ChannelDecomposition(run_batch(toy, batch))
        for name, losses in dec.channel_losses().items():
            assert not losses.any(), name

    def test_hand_economy_ledger(self):
        g = hand_economy()
        batch = ShockBatch(
            psi=np.array([[0.0, 1.0]]), seed=None, provenance="custom"
        )
        dec = ChannelDecomposition(run_batch(g, batch))
        r = dec.result
        np.testing.assert_allclose(r.di[0], [0.2, 0.0, 0.0])
        np.testing.assert_allclose(r.sc[0], [0.0, 0.25, 0.0])
        np.testing.assert_allclose(r.ib_wo[0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(r.ib_w[0], [0.1, 0.0, 0.075])
        losses = dec.channel_losses()
        np.testing.assert_allclose(losses["di_sc_ib"][0], [0.3, 0.25, 0.075])
        system = dec.system_losses()
        assert system["di"][0] == pytest.approx(20.0 / 400.0)
        assert system["di_sc_ib"][0] == pytest.approx(87.5 / 400.0)

    def test_loanless_bank_exposed_only_through_interbank(self):
        g = hand_economy()
        batch = ShockBatch(psi=np.array([[0.0, 1.0]]), seed=None, provenance="custom")
        dec = ChannelDecomposition(run_batch(g, batch))
        r = dec.result
        c = g.bank_index["C"]
        assert r.di[0, c] == 0.0 and r.sc[0, c] == 0.0
        assert r.ib_w[0, c] > 0.0

    def test_summaries_shape_and_regimes(self, toy):
        batch = ShockBatch(psi=np.ones((2, 6)), seed=None, provenance="custom")
        rows = ChannelDecomposition(run_batch(toy, batch)).summaries()
        assert len(rows) == (1 + 4) * 4
        assert rows[0][0] == "system"
        regimes = {channel: regime for _, channel, regime, _ in rows}
        assert regimes == {"di": "wo", "di_sc": "w", "di_ib": "wo", "di_sc_ib": "w"}

    def test_worker_pool_matches_serial(self, toy):
        rng = np.random.default_rng(2)
        psi = rng.uniform(0.4, 1.0, size=(6, 6))
        batch = ShockBatch(psi=psi, seed=None, provenance="custom")
        serial = run_batch(toy, batch, workers=1)
        pooled = run_batch(toy, batch, workers=2)
        np.testing.assert_array_equal(serial.di, pooled.di)
        np.testing.assert_array_equal(serial.sc, pooled.sc)
        np.testing.assert_array_equal(serial.ib_w, pooled.ib_w)


class TestIbAmplification:
    def test_unamplified_losses_give_one_level(self):
        losses = np.full((4, 3), 0.2)
        stats = ib_amplification(losses, losses)
        np.testing.assert_array_equal(stats.pooled_levels, [1.0])
        np.testing.assert_array_equal(stats.pooled_survival, [1.0])
        assert stats.n_undefined == 0

    def test_undefined_ratios_counted_and_excluded(self):
        stats = ib_amplification(np.array([[0.0], [0.1]]), np.array([[0.1], [0.2]]))
        assert stats.n_undefined == 1
        assert stats.pooled_ratios.tolist() == [2.0]

    def test_all_undefined_is_error(self):
        with pytest.raises(ValueError, match="undefined"):
            ib_amplification(np.zeros((1, 1)), np.full((1, 1), 0.1))

    def test_ratios_match_the_records(self, toy):
        psi = np.random.default_rng(3).uniform(0.0, 1.0, size=(12, 6))
        result = run_batch(toy, ShockBatch(psi=psi, seed=None, provenance="custom"))
        records = ChannelDecomposition(result).amplification_records()
        stats = ib_amplification(result.ib_wo, result.ib_w)
        assert stats.pooled_ratios.size > 0
        assert stats.pooled_ratios.tolist() == [r.ratio for r in records if r.ib_wo != 0.0]
        assert stats.n_undefined == sum(r.ib_wo == 0.0 for r in records)


def test_regime_consistency_on_nontrivial_batch(toy):
    # both orderings hold scenario-wise on mixed shocks
    rng = np.random.default_rng(7)
    psi = rng.uniform(0.0, 1.0, size=(25, 6))
    batch = ShockBatch(psi=psi, seed=None, provenance="custom")
    dec = ChannelDecomposition(run_batch(toy, batch, PropagationConfig()))
    r = dec.result
    assert np.all(r.ib_w >= r.ib_wo - 1e-15)
    losses = dec.channel_losses()
    assert np.all(losses["di_sc_ib"] >= losses["di_ib"] - 1e-15)
