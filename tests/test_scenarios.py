"""Scenario generators: single-firm shocks, bootstrap batches, batch files."""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from netstress import (
    DataFormatError,
    EmpiricalShockTable,
    ShockBatch,
    SyntheticParams,
    covid_style_batch,
    generate_synthetic_economy,
    read_batch,
    run_batch,
    single_firm_batch,
    synthetic_shock_table,
    write_batch,
)
from netstress import scenarios

from .builders import toy_economy
from .oracle import oracle_covid_rows
from .test_batch_golden import _economy_and_table
from .test_debtrank import bank_only_economy


class TestSingleFirmShock:
    def test_toy_firm_f(self, toy):
        np.testing.assert_array_equal(
            single_firm_batch(toy, ["f"]).psi, [[1.0, 1.0, 1.0, 1.0, 1.0, 0.0]]
        )

    def test_repeat_calls_identical(self, toy):
        np.testing.assert_array_equal(
            single_firm_batch(toy, ["c"]).psi, single_firm_batch(toy, ["c"]).psi
        )

    def test_unknown_id_rejected(self, toy):
        with pytest.raises(ValueError, match="unknown firm id 'nope'"):
            single_firm_batch(toy, ["c", "nope"])

    def test_no_ids_give_no_rows(self, toy):
        batch = single_firm_batch(toy, [])
        assert batch.psi.shape == (0, toy.n) and len(batch) == 0
        with pytest.raises(ValueError, match="batch has no scenarios"):
            run_batch(toy, batch)


class TestSingleFirmBatch:
    @pytest.mark.parametrize("rows", [1, 4, 6, 100])
    def test_blocks_stack_to_ones_with_zero_diagonal(self, toy, rows):
        dense = np.ones((toy.n, toy.n))
        np.fill_diagonal(dense, 0.0)
        batch = single_firm_batch(toy)
        blocks = list(batch.blocks(rows))
        assert [b.shape[0] for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        np.testing.assert_array_equal(np.concatenate(blocks), dense)
        np.testing.assert_array_equal(batch.psi, dense)
        assert len(batch) == toy.n and batch.scenario_ids == list(range(toy.n))

    @pytest.mark.parametrize("rows", [1, 3, 100])
    def test_listed_firms_are_the_full_rows_in_their_order(self, toy, rows):
        ids = ["e", "a", "e", "f", "c"]
        full = single_firm_batch(toy).psi
        batch = single_firm_batch(toy, ids)
        got = np.concatenate(list(batch.blocks(rows)))
        assert got.shape == (len(ids), toy.n)
        assert got.tobytes() == full[[toy.firm_index[f] for f in ids]].tobytes()
        assert len(batch) == len(ids) and batch.scenario_ids == list(range(len(ids)))


class TestEveryBatchSource:
    """What ``run_batch`` reads of a batch, from each builder that makes one."""

    IDS = [-4, 0, 7, 9, 2**40]

    def batch(self, source, g, path):
        if source == "single-firm":
            return single_firm_batch(g, ["e", "a", "f", "b", "c"])
        covid = covid_style_batch(g, EmpiricalShockTable(reductions={"a": 0.3, "d": 0.5}), count=5, seed=2)
        if source == "covid-style":
            return covid
        dense = ShockBatch.dense(covid.psi, "test", scenario_ids=self.IDS)
        if source == "dense":
            return dense
        write_batch(dense, g.firm_ids, path)
        return read_batch(g, path)

    @pytest.mark.parametrize("rows", [1, 3, 100])
    @pytest.mark.parametrize("source", ["single-firm", "covid-style", "dense", "read_batch"])
    def test_blocks_stack_to_psi(self, toy, tmp_path, source, rows):
        batch = self.batch(source, toy, tmp_path / "batch.csv")
        blocks = list(batch.blocks(rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1) and 0 < len(blocks[-1]) <= rows
        assert np.concatenate(blocks).tobytes() == batch.psi.tobytes()
        assert batch.psi.shape == (len(batch), toy.n)
        assert batch.scenario_ids == (self.IDS if source in ("dense", "read_batch") else list(range(len(batch))))

    @pytest.mark.parametrize("rows", [1, 3, 100])
    @pytest.mark.parametrize("empty", [
        lambda g: single_firm_batch(g, []),
        lambda g: ShockBatch.dense(np.ones((0, g.n)), "test"),
    ], ids=["single-firm", "dense"])
    def test_an_empty_batch_is_one_block_of_no_rows(self, toy, empty, rows):
        batch = empty(toy)
        assert [b.shape for b in batch.blocks(rows)] == [(0, toy.n)]
        assert batch.psi.shape == (0, toy.n) and len(batch) == 0 and batch.scenario_ids == []


def sector_aggregates(g, table, batch):
    """Realized and target output-weighted aggregate reduction per sector."""
    nace2 = np.asarray([s[:2] for s in g.sectors], dtype=object)
    out = g.total_output()
    gaps = []
    for code in sorted(set(nace2)):
        members = np.flatnonzero(nace2 == code)
        data = [i for i in members if g.firm_ids[i] in table.reductions]
        emp = np.array([table.reductions[g.firm_ids[i]] for i in data])
        w_data = out[data]
        target = float(w_data @ emp / w_data.sum()) if w_data.sum() > 0 else float(emp.mean())
        weights = out[members]
        if weights.sum() <= 0:
            weights = np.ones(members.size)
        for s in range(len(batch)):
            red = 1.0 - batch.psi[s, members]
            realized = float(weights @ red / weights.sum())
            gaps.append(abs(realized - target))
    return max(gaps)


class TestCovidStyleBatch:
    def test_sector_aggregates_preserved(self):
        g = generate_synthetic_economy(SyntheticParams(n=300, m=5), seed=1)
        table = synthetic_shock_table(g, seed=2)
        batch = covid_style_batch(g, table, count=25, seed=3)
        assert sector_aggregates(g, table, batch) < 1e-9

    def test_zero_table_gives_all_ones(self):
        g = generate_synthetic_economy(SyntheticParams(n=100, m=4), seed=1)
        table = EmpiricalShockTable(
            reductions={fid: 0.0 for fid in g.firm_ids[:: 2]}
        )
        batch = covid_style_batch(g, table, count=5, seed=9)
        np.testing.assert_array_equal(batch.psi, np.ones((5, g.n)))

    def test_single_sector_toy_hits_hand_aggregate(self, toy):
        # all six firms of the toy share the two-digit sector '10'
        table = EmpiricalShockTable(reductions={"a": 0.2, "b": 0.2, "c": 0.2})
        out = toy.total_output()
        for seed in range(100):
            batch = covid_style_batch(toy, table, count=1, seed=seed)
            red = 1.0 - batch.psi[0]
            realized = float(out @ red / out.sum())
            assert realized == pytest.approx(0.2, abs=1e-9)

    def test_deterministic_given_seed(self):
        g = generate_synthetic_economy(SyntheticParams(n=150, m=4), seed=1)
        table = synthetic_shock_table(g, seed=2)
        a = covid_style_batch(g, table, count=10, seed=5)
        b = covid_style_batch(g, table, count=10, seed=5)
        np.testing.assert_array_equal(a.psi, b.psi)
        c = covid_style_batch(g, table, count=10, seed=6)
        assert (a.psi != c.psi).any()

    def test_all_shocks_in_unit_interval(self, monkeypatch):
        # high observed reductions: rescaling pushes some firms past 1, so rows go through the clipping loop
        g = generate_synthetic_economy(SyntheticParams(n=200, m=4), seed=1)
        rng = np.random.default_rng(2)
        table = EmpiricalShockTable({fid: float(rng.uniform(0.4, 0.95)) for fid in g.firm_ids})
        clipped = []
        rescale = scenarios._rescale_to_target
        monkeypatch.setattr(scenarios, "_rescale_to_target", lambda *a: clipped.append(1) or rescale(*a))
        psi = covid_style_batch(g, table, count=20, seed=3).psi
        assert clipped and np.all(psi >= 0.0) and np.all(psi <= 1.0)

    def test_sector_without_observations_is_an_error(self, toy):
        table = EmpiricalShockTable(reductions={})
        with pytest.raises(ValueError, match="'10'"):
            covid_style_batch(toy, table, count=1, seed=1)

    def test_economy_without_firms_is_an_error(self):
        with pytest.raises(DataFormatError, match="no firms"):
            covid_style_batch(bank_only_economy([100.0], []), EmpiricalShockTable({}), count=1, seed=1)
        with pytest.raises(DataFormatError, match="no firms"):
            single_firm_batch(bank_only_economy([100.0], []))
        with pytest.raises(DataFormatError, match="no firms"):
            single_firm_batch(bank_only_economy([100.0], []), ["a"])

    def test_unknown_firm_in_table_rejected(self, toy):
        table = EmpiricalShockTable(reductions={"zz": 0.5})
        with pytest.raises(ValueError, match="'zz'"):
            covid_style_batch(toy, table, count=1, seed=1)

    def test_imputation_prefers_four_digit_peers(self):
        # two firms share NACE-4 code 1011 (one observed at 0.8), a third sits
        # in 1099; the unobserved 1011 firm must draw from its 1011 peer only
        g = toy_economy()
        g.sectors[0] = "1011"  # a, observed
        g.sectors[1] = "1011"  # b, imputed from a
        g.sectors[2] = "1099"  # c, observed at a different level
        g.sectors[3:] = ["1099"] * 3
        table = EmpiricalShockTable(reductions={"a": 0.8, "c": 0.1, "d": 0.1, "e": 0.1, "f": 0.1})
        batch = covid_style_batch(g, table, count=50, seed=4)
        # before rescaling b's draw is always 0.8 (its only 1011 peer);
        # rescaling is shared per two-digit sector, so b's reduction must
        # always exceed a's only possible alternative draw source values
        assert np.all(batch.psi[:, 1] <= 1.0)
        reductions_b = 1.0 - batch.psi[:, 1]
        reductions_c = 1.0 - batch.psi[:, 2]
        assert reductions_b.mean() > reductions_c.mean()


@cache
def draw_case(case: str):
    """An economy, a shock table and a batch seed for each path of the batched draw."""
    if case == "covid-10k":  # the benchmark's inputs: every row rescales without clipping
        g = generate_synthetic_economy(SyntheticParams(n=10_000, m=19, target_exposure_ratio=12.5), seed=7)
        return g, synthetic_shock_table(g, seed=3), 11
    if case == "residuals":  # the golden residual case: rows clip and leave gaps
        g, table = _economy_and_table(residual_industry=True)
        return g, table, 0
    # one industry of zeros, one of zeros and ones, one of large reductions that clip and redistribute
    g = generate_synthetic_economy(SyntheticParams(n=400, m=3), seed=1)
    rng = np.random.default_rng(2)
    codes = sorted({sector[:2] for sector in g.sectors})
    reductions = {}
    for fid, value in synthetic_shock_table(g, seed=2).reductions.items():
        code = codes.index(g.sectors[g.firm_index[fid]][:2])
        reductions[fid] = [0.0, float(rng.random() < 0.1), rng.uniform(0.6, 1.0)][code] if code < 3 else value
    return g, EmpiricalShockTable(reductions), 4


class TestBatchedDraw:
    """The draw of eight rows a generator call against one row and draw group at a time."""

    # whether the case rescales rows that sum to zero, and rows that clip, one at a time
    FALLBACK = {"covid-10k": (False, False), "residuals": (False, True), "clipped": (True, True)}

    @pytest.mark.parametrize("rows", [1, 7, 24])
    @pytest.mark.parametrize("case", sorted(FALLBACK))
    def test_blocks_match_the_rows(self, monkeypatch, case, rows):
        g, table, seed = draw_case(case)
        count = 40
        want_psi, want_residuals = oracle_covid_rows(g, table, count, seed)
        currents, rescale = [], scenarios._rescale_to_target
        monkeypatch.setattr(scenarios, "_rescale_to_target",
                            lambda red, w, target: currents.append(float(w @ red)) or rescale(red, w, target))
        batch = covid_style_batch(g, table, count=count, seed=seed)
        blocks = list(batch.blocks(rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == want_psi.tobytes()
        assert batch.residuals == want_residuals  # list order included
        assert all(type(gap) is float for _, _, gap in batch.residuals)
        zero = sum(current <= 0.0 for current in currents)
        assert (zero > 0, len(currents) > zero) == self.FALLBACK[case]
        assert bool(want_residuals) == (case != "covid-10k")


class TestBatchIO:
    def test_round_trip(self, toy, tmp_path):
        table = EmpiricalShockTable(reductions={"a": 0.3, "d": 0.5})
        batch = covid_style_batch(toy, table, count=4, seed=2)
        path = tmp_path / "batch.csv"
        write_batch(batch, toy.firm_ids, path)
        back = read_batch(toy, path)
        np.testing.assert_array_equal(back.psi, batch.psi)
        assert back.provenance == "custom"

    def test_written_a_block_at_a_time(self, toy, tmp_path):
        table = EmpiricalShockTable(reductions={"a": 0.3, "d": 0.5})
        batch = covid_style_batch(toy, table, count=19, seed=4)
        path = tmp_path / "batch.csv"
        write_batch(batch, toy.firm_ids, path)
        assert "psi" not in vars(batch)  # never stacked
        back = read_batch(toy, path)
        assert back.scenario_ids == list(range(19))
        assert back.psi.tobytes() == batch.psi.tobytes()

    def test_shock_table_round_trip(self, tmp_path):
        table = EmpiricalShockTable(reductions={"a": 0.25, "b": 0.0})
        path = tmp_path / "shocks.csv"
        table.write_csv(path)
        back = EmpiricalShockTable.from_csv(path)
        assert back.reductions == table.reductions
