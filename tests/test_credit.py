"""Credit channel: profit shocks, default rules, bank loss decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress import (
    DefaultFlags,
    EconomyGraph,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    bank_losses,
    bank_seed,
    default_flags,
    profit_shock,
    propagate,
)
from netstress.tables import write_long

from .builders import BankSheet, FirmNode, graph_from_records, single_firm_shock, toy_economy
from .oracle import oracle_bank_losses, oracle_defaults


def single_firm_economy(revenue, op_cost, equity, short_assets, short_liabs) -> EconomyGraph:
    firm = FirmNode("x", "1000", revenue, op_cost, equity, short_assets, short_liabs)
    return graph_from_records(
        firms=[firm],
        supply=SupplyNetwork.from_edges(1, [], [], []),
        banks=[BankSheet("b0", 100.0)],
        interbank=InterbankNetwork.from_edges(1, [], [], []),
        loans=LoanBook.from_entries(1, 1, [0], [0], [50.0]),
    )


class TestProfitShock:
    def test_no_shock_means_no_profit_change(self, toy):
        shock = profit_shock(toy, np.ones(6))
        np.testing.assert_array_equal(shock.dp, np.zeros(6))

    def test_partial_shock_arithmetic(self):
        g = single_firm_economy(100.0, 60.0, 50.0, 80.0, 20.0)
        shock = profit_shock(g, np.array([0.3]))
        assert shock.dp[0] == pytest.approx(0.7 * 40.0)

    def test_spot_value_thirty_percent_production(self):
        # remaining production 0.3 on a 100/60 income statement loses 28
        g = single_firm_economy(100.0, 60.0, 1000.0, 1000.0, 10.0)
        assert profit_shock(g, np.array([0.3])).dp[0] == pytest.approx(28.0)

    def test_full_stop_loses_full_profit(self):
        g = single_firm_economy(100.0, 60.0, 50.0, 80.0, 20.0)
        assert profit_shock(g, np.array([0.0])).dp[0] == pytest.approx(40.0)

    def test_missing_financials_marked_zero(self):
        g = single_firm_economy(100.0, 60.0, 50.0, 80.0, 20.0)
        g.financials_present[0] = False
        g.eligible_for_default[0] = False
        shock = profit_shock(g, np.array([0.0]))
        assert shock.dp[0] == 0.0


class TestDefaultFlags:
    def test_boundary_exhaustion_defaults(self):
        # both buffers exactly exhausted: boundary counts as default
        g = single_firm_economy(100.0, 90.0, 10.0, 30.0, 20.0)
        flags = default_flags(g, profit_shock(g, np.array([0.0])))
        assert flags.chi[0]

    def test_zero_shock_never_defaults_eligible_firm(self):
        g = single_firm_economy(100.0, 90.0, 10.0, 30.0, 20.0)
        flags = default_flags(g, profit_shock(g, np.array([1.0])))
        assert not flags.chi[0]

    def test_equity_channel_alone_suffices(self):
        # dp = 6 wipes equity 5 while liquidity 50 survives
        g = single_firm_economy(100.0, 94.0, 5.0, 60.0, 10.0)
        flags = default_flags(g, profit_shock(g, np.array([0.0])))
        assert flags.chi[0]

    def test_liquidity_channel_alone_suffices(self):
        g = single_firm_economy(100.0, 94.0, 50.0, 15.0, 10.0)
        flags = default_flags(g, profit_shock(g, np.array([0.0])))
        assert flags.chi[0]

    def test_ineligible_firm_never_defaults(self):
        g = single_firm_economy(100.0, 60.0, 5.0, 30.0, 20.0)
        g.eligible_for_default[0] = False
        flags = default_flags(g, profit_shock(g, np.array([0.0])))
        assert not flags.chi[0]

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_balance_sheet_oracle(self, h):
        g = toy_economy()
        flags = default_flags(g, profit_shock(g, np.asarray(h)))
        assert list(flags.chi.astype(int)) == oracle_defaults(g, list(h))

    @given(shock=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           extra=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_lower_production_only_adds_defaults(self, shock, extra):
        g = toy_economy()
        high = np.asarray(shock)
        low = high * np.asarray(extra)
        chi_high = default_flags(g, profit_shock(g, high)).chi
        chi_low = default_flags(g, profit_shock(g, low)).chi
        assert np.all(chi_low >= chi_high)


class TestBankLosses:
    def test_toy_decomposition(self, toy):
        psi = single_firm_shock(toy, "f")
        chi_wo = default_flags(toy, profit_shock(toy, psi))
        chi_w = default_flags(toy, profit_shock(toy, propagate(toy, psi).h))
        ledger = bank_losses(toy, chi_w=chi_w, chi_wo=chi_wo)
        np.testing.assert_allclose(ledger.di, [0.0, 0.0, 0.25, 0.0])
        np.testing.assert_allclose(ledger.sc, [0.0, 0.0, 0.05, 0.10])

    def test_no_defaults_no_losses(self, toy):
        none = DefaultFlags(chi=np.zeros(6, dtype=bool))
        ledger = bank_losses(toy, chi_w=none, chi_wo=none)
        assert not ledger.di.any() and not ledger.sc.any()

    def test_half_equity_loan_writes_off_half(self):
        g = single_firm_economy(100.0, 90.0, 5.0, 60.0, 10.0)
        g.loans = LoanBook.from_entries(1, 1, [0], [0], [500.0])
        g.bank_equity[0] = 1000.0
        flags = default_flags(g, profit_shock(g, np.array([0.0])))
        assert bank_seed(g, flags)[0] == pytest.approx(0.50)

    def test_regression_in_default_set_rejected(self, toy):
        chi_wo = DefaultFlags(chi=np.array([True, False, False, False, False, False]))
        chi_w = DefaultFlags(chi=np.zeros(6, dtype=bool))
        with pytest.raises(ValueError, match="'a'"):
            bank_losses(toy, chi_w=chi_w, chi_wo=chi_wo)

    def test_lgd_scales_both_channels_exactly(self, toy):
        psi = single_firm_shock(toy, "f")
        chi_wo = default_flags(toy, profit_shock(toy, psi))
        chi_w = default_flags(toy, profit_shock(toy, propagate(toy, psi).h))
        full = bank_losses(toy, chi_w=chi_w, chi_wo=chi_wo)

        half = toy_economy()
        half.loans.lgd = 0.5
        chi_wo_h = default_flags(half, profit_shock(half, psi))
        chi_w_h = default_flags(half, profit_shock(half, propagate(half, psi).h))
        halved = bank_losses(half, chi_w=chi_w_h, chi_wo=chi_wo_h)
        np.testing.assert_array_equal(halved.di, 0.5 * full.di)
        np.testing.assert_array_equal(halved.sc, 0.5 * full.sc)

    def test_channel_additivity_against_oracle(self, toy):
        psi = single_firm_shock(toy, "f")
        chi_wo = default_flags(toy, profit_shock(toy, psi))
        chi_w = default_flags(toy, profit_shock(toy, propagate(toy, psi).h))
        ledger = bank_losses(toy, chi_w=chi_w, chi_wo=chi_wo)
        oracle_total = oracle_bank_losses(toy, list(chi_w.chi.astype(int)))
        np.testing.assert_allclose(ledger.di + ledger.sc, oracle_total, atol=1e-12)

    def test_sc_identically_zero_when_cascade_disabled(self, toy):
        psi = single_firm_shock(toy, "f")
        chi = default_flags(toy, profit_shock(toy, psi))
        ledger = bank_losses(toy, chi_w=chi, chi_wo=chi)
        assert not ledger.sc.any()


def test_defaults_dump_format(toy, tmp_path):
    psi = single_firm_shock(toy, "f")
    chi_wo = default_flags(toy, profit_shock(toy, psi))
    shock_w = profit_shock(toy, propagate(toy, psi).h)
    chi_w = default_flags(toy, shock_w)
    out = tmp_path / "defaults.csv"
    write_long(out, ["scenario_id", "firm_id", "chi_wo", "chi_w", "dp"], [0], toy.firm_ids,
               [(chi_wo.chi[None], chi_w.chi[None], shock_w.dp[None])])
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario_id,firm_id,chi_wo,chi_w,dp"
    assert len(lines) == 1 + 6
    assert lines[6].startswith("0,f,1,1,")
