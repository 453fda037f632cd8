"""Economy model: validation, ingestion round-trips, synthetic generation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from netstress import (
    DataFormatError,
    EssentialityTable,
    InterbankNetwork,
    LoanBook,
    ReferentialError,
    SupplyNetwork,
    SyntheticParams,
    economy_files,
    generate_synthetic_economy,
    load_economy,
    validate_economy,
    write_economy,
)
from netstress.economy import FINANCIAL_FIELDS

from .oracle import is_essential


class TestValidation:
    def test_toy_fixture_is_clean(self, toy):
        assert validate_economy(toy).ok

    def test_self_loop_reported(self, toy):
        bad = SupplyNetwork.from_edges(6, [0], [0], [5.0])
        g = replace(toy, supply=bad)
        report = validate_economy(g)
        assert any(v.rule == "self-loop" for v in report.violations)

    def test_negative_equity_eligible_firm_reported(self, toy):
        toy.equity[0] = -5.0
        toy.eligible_for_default[0] = True
        report = validate_economy(toy)
        assert not report.ok
        assert any(v.rule == "eligibility" and "firm:a" in v.entity for v in report.violations)

    def test_nonpositive_bank_equity_reported(self, toy):
        toy.bank_equity[2] = 0.0
        report = validate_economy(toy)
        assert any(v.rule == "equity" for v in report.violations)

    def test_invariant_perturbations_each_flag_one_rule(self, toy):
        # every single-field perturbation is caught by exactly the right rule
        cases = []

        sectors = list(toy.sectors)
        sectors[1] = ""
        cases.append((replace(toy, sectors=sectors), "empty-sector"))

        loans = LoanBook.from_entries(6, 4, [0], [0], [-1.0])
        cases.append((replace(toy, loans=loans), "loan-amount"))

        ib = InterbankNetwork.from_edges(4, [1], [1], [3.0])
        cases.append((replace(toy, interbank=ib), "self-loop"))

        cases.append((replace(toy, revenue=toy.revenue[:5]), "shape"))
        cases.append((replace(toy, bank_equity=toy.bank_equity[:3]), "shape"))

        for graph, rule in cases:
            report = validate_economy(graph)
            assert any(v.rule == rule for v in report.violations), rule


class TestReportText:
    """The exact report of graphs that break every rule: its lines and their order."""

    def test_every_firm_bank_and_edge_rule(self, toy):
        nan, inf = float("nan"), float("inf")
        revenue, equity, short_assets = toy.revenue.copy(), toy.equity.copy(), toy.short_assets.copy()
        present, eligible = toy.financials_present.copy(), toy.eligible_for_default.copy()
        equity[0], short_assets[0] = -5.0, 10.0    # a: two eligibility lines
        revenue[1], equity[1] = -inf, nan          # b: NaN equity gives its non-finite line only
        present[2], revenue[2] = False, nan        # c: financials absent, so the NaN is not checked
        eligible[3], equity[3] = False, -1.0       # d: not eligible, so the equity is not checked
        g = replace(
            toy,
            # the firm rules hit firms in the opposite order to the rule order
            firm_ids=["a", "b", "c", "d", "", ""],
            sectors=["1011", "", "1013", "", "1015", ""],
            revenue=revenue, equity=equity, short_assets=short_assets,
            financials_present=present, eligible_for_default=eligible,
            bank_ids=["1", "1", "", "4"],
            bank_equity=np.array([inf, 150.0, 0.0, nan]),
            supply=SupplyNetwork.from_edges(
                6, [5, 0, 2, 1, 3, 0], [0, 0, 2, 0, 2, 5], [10.0, -1.0, 3.0, 0.0, nan, inf]),
            interbank=InterbankNetwork.from_edges(4, [2, 3, 1, 0], [1, 3, 0, 2], [30.0, 5.0, -0.5, inf]),
            loans=replace(LoanBook.from_entries(6, 4, [0, 3, 5], [0, 3, 1], [40.0, -2.0, nan]), lgd=1.5),
        )
        assert str(validate_economy(g)) == "\n".join([
            "29 violation(s):",
            "  firm:a: [eligibility] eligible firm has equity -5.0 <= 0",
            "  firm:a: [eligibility] eligible firm has non-positive liquidity",
            "  firm:b: [empty-sector] sector code must be non-empty",
            "  firm:b: [non-finite] revenue is -inf",
            "  firm:b: [non-finite] equity is nan",
            "  firm:b: [eligibility] eligible firm has non-positive net income",
            "  firm:c: [eligibility] eligible firm lacks financials",
            "  firm:d: [empty-sector] sector code must be non-empty",
            "  firm:: [empty-id] firm id must be non-empty",
            "  firm:: [empty-id] firm id must be non-empty",
            "  firm:: [duplicate-id] firm id appears more than once",
            "  firm:: [empty-sector] sector code must be non-empty",
            "  bank:1: [equity] tier 1 equity inf must be finite and > 0",
            "  bank:1: [duplicate-id] bank id appears more than once",
            "  bank:: [empty-id] bank id must be non-empty",
            "  bank:: [equity] tier 1 equity 0.0 must be finite and > 0",
            "  bank:4: [equity] tier 1 equity nan must be finite and > 0",
            "  firm:a: [self-loop] supply self-loop with nonzero weight",
            "  firm:c: [self-loop] supply self-loop with nonzero weight",
            "  firm:a: [edge-weight] supply edge to a has weight -1.0, must be finite and > 0",
            "  firm:a: [edge-weight] supply edge to  has weight inf, must be finite and > 0",
            "  firm:b: [edge-weight] supply edge to a has weight 0.0, must be finite and > 0",
            "  firm:d: [edge-weight] supply edge to c has weight nan, must be finite and > 0",
            "  bank:4: [self-loop] bank borrows from itself",
            "  bank:1: [edge-weight] interbank loan from  is inf, must be finite and >= 0",
            "  bank:1: [edge-weight] interbank loan from 1 is -0.5, must be finite and >= 0",
            "  firm:d: [loan-amount] loan from bank 4 is -2.0, must be finite and >= 0",
            "  firm:: [loan-amount] loan from bank 1 is nan, must be finite and >= 0",
            "  loans: [lgd] loss given default 1.5 outside (0, 1]",
        ])

    def test_column_shapes_come_alone(self, toy):
        g = replace(toy, firm_ids=["a", "a", "", "d", "e", "f"], revenue=toy.revenue[:5],
                    bank_equity=toy.bank_equity[:3], loans=LoanBook(toy.loans.principals, lgd=2.0))
        assert str(validate_economy(g)) == "\n".join([
            "2 violation(s):",
            "  columns: [shape] revenue has 5 entries, expected 6",
            "  columns: [shape] bank_equity has 3 entries, expected 4",
        ])

    def test_matrix_shapes(self, toy):
        g = replace(
            toy,
            supply=SupplyNetwork.from_edges(5, [0], [0], [-1.0]),
            interbank=InterbankNetwork.from_edges(3, [0], [0], [-1.0]),
            loans=LoanBook.from_entries(6, 3, [0], [0], [-1.0]),
        )
        assert str(validate_economy(g)) == "\n".join([
            "3 violation(s):",
            "  supply: [shape] supply matrix is (5, 5), expected (6, 6)",
            "  interbank: [shape] interbank matrix is (3, 3), expected (4, 4)",
            "  loans: [shape] loan book is (6, 3), expected (6, 4)",
        ])

    def test_no_bank(self, toy):
        g = replace(
            toy, bank_ids=[], bank_equity=np.zeros(0),
            interbank=InterbankNetwork.from_edges(0, [], [], []),
            loans=LoanBook.from_entries(6, 0, [], [], []),
        )
        assert str(validate_economy(g)) == "\n".join([
            "1 violation(s):",
            "  banks: [empty] economy has no banks: bank losses and DebtRank need at least one",
        ])


class TestIngestion:
    def test_load_toy_files_matches_fixture(self, toy, toy_dir):
        # field for field: scripts/run_toy_demo.py loads the files in place of the hand-built graph
        g = load_economy(economy_files(toy_dir))
        assert g.n == 6 and g.m == 4
        assert (g.firm_ids, g.sectors, g.bank_ids) == (toy.firm_ids, toy.sectors, toy.bank_ids)
        for name in (*FINANCIAL_FIELDS, "financials_present", "eligible_for_default", "bank_equity"):
            np.testing.assert_array_equal(getattr(g, name), getattr(toy, name), err_msg=name, strict=True)
        for layer, matrix in (("supply", "weights"), ("interbank", "liabilities"), ("loans", "principals")):
            loaded, built = (getattr(getattr(x, layer), matrix) for x in (g, toy))
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(loaded, part), getattr(built, part),
                                              err_msg=f"{layer}.{part}", strict=True)
        assert (g.loans.lgd, g.essentiality) == (toy.loans.lgd, toy.essentiality)

    def test_empty_interbank_file_is_valid(self, toy_dir, tmp_path):
        for name in ("firms", "supply", "loans", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        (tmp_path / "interbank.csv").write_text("borrower_id,lender_id,amount\n")
        g = load_economy(economy_files(tmp_path))
        assert g.interbank.liabilities.nnz == 0
        assert validate_economy(g).ok

    def test_unknown_bank_in_loans_is_referential_error(self, toy_dir, tmp_path):
        for name in ("firms", "supply", "interbank", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        (tmp_path / "loans.csv").write_text("firm_id,bank_id,principal\na,99,10.0\n")
        with pytest.raises(ReferentialError, match="'99'"):
            load_economy(economy_files(tmp_path))

    def test_supply_only_firms_kept_without_financials(self, toy_dir, tmp_path):
        for name in ("firms", "interbank", "loans", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        supply = (toy_dir / "supply.csv").read_text() + "ghost,a,3.5\n"
        (tmp_path / "supply.csv").write_text(supply)
        g = load_economy(economy_files(tmp_path))
        assert g.n == 7
        ghost = g.firm_index["ghost"]
        assert not g.financials_present[ghost] and not g.eligible_for_default[ghost]

    def test_malformed_number_reports_line(self, toy_dir, tmp_path):
        for name in ("supply", "interbank", "loans", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        rows = (toy_dir / "firms.csv").read_text().splitlines()
        rows[3] = rows[3].replace("120.0", "12o.0")
        (tmp_path / "firms.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="line 4"):
            load_economy(economy_files(tmp_path))

    def test_firm_with_blank_financials_not_eligible(self, toy_dir, tmp_path):
        for name in ("supply", "interbank", "loans", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        firms = (toy_dir / "firms.csv").read_text() + "g,2000,,,,,\n"
        (tmp_path / "firms.csv").write_text(firms)
        g = load_economy(economy_files(tmp_path))
        node = g.firm_index["g"]
        assert not g.financials_present[node] and not g.eligible_for_default[node]

    def test_negative_buffer_firm_loaded_ineligible(self, toy_dir, tmp_path):
        # mirrors the exclusion rule: such firms stay but cannot default
        for name in ("supply", "interbank", "loans", "banks"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        firms = (toy_dir / "firms.csv").read_text() + "g,2000,100.0,120.0,50.0,60.0,10.0\n"
        (tmp_path / "firms.csv").write_text(firms)
        g = load_economy(economy_files(tmp_path))
        node = g.firm_index["g"]
        assert g.financials_present[node] and not g.eligible_for_default[node]
        assert validate_economy(g).ok

    def test_round_trip_preserves_everything(self, toy, tmp_path):
        write_economy(toy, tmp_path)
        g = load_economy(economy_files(tmp_path))
        assert g.firm_ids == toy.firm_ids
        assert g.sectors == toy.sectors
        assert (g.supply.weights != toy.supply.weights).nnz == 0
        assert (g.interbank.liabilities != toy.interbank.liabilities).nnz == 0
        assert (g.loans.principals != toy.loans.principals).nnz == 0
        assert g.bank_ids == toy.bank_ids
        for name in ("revenue", "op_cost", "equity", "short_assets", "short_liabs",
                     "financials_present", "eligible_for_default", "bank_equity"):
            mine, theirs = getattr(g, name), getattr(toy, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
        write_economy(g, tmp_path / "again")
        for name in ("firms", "supply", "interbank", "loans", "banks"):
            assert (tmp_path / f"{name}.csv").read_text() == (tmp_path / "again" / f"{name}.csv").read_text()


class TestEssentialityTable:
    def test_default_everything_essential(self):
        table = EssentialityTable()
        assert is_essential(table, "1011", "2020")

    def test_exact_match_beats_prefix(self):
        table = EssentialityTable(overrides={("10", "20"): False, ("1011", "2020"): True})
        assert is_essential(table, "1011", "2020")
        assert not is_essential(table, "1099", "2099")

    def test_lookup_matches_is_essential_on_every_pair(self):
        codes = ["1011", "1012", "1099", "2011", "2020", "3", "30", "3000"]
        table = EssentialityTable(
            overrides={("10", "20"): True, ("1011", "2020"): False, ("30", "10"): True,
                       ("3", "3000"): True, ("1099", "30"): True, ("99", "10"): True},
            default_essential=False,
        )
        expected = [[is_essential(table, sup, buy) for buy in codes] for sup in codes]
        assert table.lookup(codes).tolist() == expected
        assert EssentialityTable().lookup(codes).all()


class TestSyntheticGenerator:
    def test_same_seed_bit_identical(self):
        params = SyntheticParams(n=200, m=6)
        a = generate_synthetic_economy(params, seed=7)
        b = generate_synthetic_economy(params, seed=7)
        assert a.firm_ids == b.firm_ids
        assert (a.supply.weights != b.supply.weights).nnz == 0
        assert (a.interbank.liabilities != b.interbank.liabilities).nnz == 0
        assert (a.loans.principals != b.loans.principals).nnz == 0
        assert np.array_equal(a.equity, b.equity)

    def test_different_seeds_differ(self):
        params = SyntheticParams(n=200, m=6)
        a = generate_synthetic_economy(params, seed=7)
        b = generate_synthetic_economy(params, seed=8)
        assert (a.supply.weights != b.supply.weights).nnz > 0

    def test_target_ratio_hit_within_ten_percent(self):
        g = generate_synthetic_economy(SyntheticParams(n=500, m=10, target_exposure_ratio=12.5), seed=3)
        system = g.loans.principals.sum() / g.interbank.liabilities.sum()
        assert 11.25 <= system <= 13.75

    def test_output_validates_clean(self):
        g = generate_synthetic_economy(SyntheticParams(n=300, m=8), seed=5)
        assert validate_economy(g).ok

    def test_single_bank_has_no_interbank_edges(self):
        g = generate_synthetic_economy(
            SyntheticParams(n=50, m=1, target_exposure_ratio=None), seed=2
        )
        assert g.interbank.liabilities.nnz == 0

    def test_infeasible_ratio_rejected(self):
        # nan failed later as a bad generated loan, and inf wrote every interbank amount as 0.0
        for ratio in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                SyntheticParams(n=50, m=3, target_exposure_ratio=ratio)

    @pytest.mark.parametrize("family", ["lognormal", "pareto", "uniform"])
    def test_every_weight_family_validates(self, family):
        g = generate_synthetic_economy(
            SyntheticParams(n=120, m=4, weight_family=family), seed=6
        )
        assert validate_economy(g).ok
        assert g.supply.weights.nnz > 0

    def test_partial_essentiality_written_and_reloaded(self, tmp_path):
        g = generate_synthetic_economy(
            SyntheticParams(n=60, m=3, essential_fraction=0.5), seed=6
        )
        assert g.essentiality.overrides
        write_economy(g, tmp_path)
        back = load_economy(economy_files(tmp_path))
        assert back.essentiality.overrides == g.essentiality.overrides
