"""Scenario batches: the same arrays for any worker count, block size, chunk size and batch kind."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from netstress import (
    DefaultFlags,
    PropagationConfig,
    ShockBatch,
    SyntheticParams,
    bank_losses,
    bank_seed,
    covid_style_batch,
    default_flags,
    generate_synthetic_economy,
    pipeline,
    profit_shock,
    propagate,
    run_batch,
    synthetic_shock_table,
)

from .conftest import random_economy

PER_FIRM = ("chi_wo", "chi_w", "dp_w")
PER_BANK = ("di", "sc", "ib_wo", "ib_w", "sc_converged", "dr_wo_converged", "dr_w_converged")


@pytest.mark.parametrize("keep_defaults", [False, True])
def test_worker_count_does_not_change_results(keep_defaults):
    rng = np.random.default_rng(5)
    g = random_economy(rng, n=30, m=5)
    psi = np.where(rng.random((9, g.n)) < 0.3, rng.uniform(0.0, 1.0, (9, g.n)), 1.0)
    batch = ShockBatch(psi=psi, seed=None, provenance="test", scenario_ids=list(range(10, 19)))
    serial = run_batch(g, batch, workers=1, keep_defaults=keep_defaults)
    pooled = run_batch(g, batch, workers=2, keep_defaults=keep_defaults)
    assert serial.scenario_ids == pooled.scenario_ids == list(range(10, 19))
    for name in PER_BANK:
        assert getattr(serial, name).shape[0] == 9
        np.testing.assert_array_equal(getattr(pooled, name), getattr(serial, name))
    for name in PER_FIRM:
        if keep_defaults:
            assert getattr(serial, name).shape == (9, g.n)
            np.testing.assert_array_equal(getattr(pooled, name), getattr(serial, name))
        else:
            assert getattr(serial, name) is None and getattr(pooled, name) is None
    if keep_defaults:
        assert serial.chi_w.any()  # the shocks make some firms default


def test_empty_batch_rejected():
    g = random_economy(np.random.default_rng(1), n=5, m=2)
    with pytest.raises(ValueError, match="no scenarios"):
        run_batch(g, ShockBatch(psi=np.ones((0, g.n)), seed=None, provenance="test"))


def _covid_case(n=300, seed=3):
    g = generate_synthetic_economy(SyntheticParams(n=n, m=5), seed=seed)
    return g, synthetic_shock_table(g, seed=seed + 1)


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("block_rows", [1, 100])
def test_streamed_batch_matches_dense(monkeypatch, workers, block_rows):
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=24, seed=9)
    dense = ShockBatch(psi=covid_style_batch(g, table, count=24, seed=9).psi, seed=9, provenance="test")
    reference = run_batch(g, dense, workers=1, keep_defaults=True)
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 8 * g.n * block_rows)
    for result in (run_batch(g, b, workers=workers, keep_defaults=True) for b in (batch, dense)):
        for name in PER_BANK + PER_FIRM:
            assert getattr(result, name).shape[0] == 24
            np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))


def test_residuals_are_kept_once_per_batch():
    g, table = _covid_case(n=400)
    nace2 = {fid: sector[:2] for fid, sector in zip(g.firm_ids, g.sectors)}
    industry = nace2[g.firm_ids[0]]
    rng = np.random.default_rng(0)
    table.reductions = {
        fid: float(rng.random() < 0.1) if nace2[fid] == industry else value
        for fid, value in table.reductions.items()
    }
    expected = covid_style_batch(g, table, count=12, seed=1)
    dense = expected.psi
    assert expected.residuals  # the case needs some
    batch = covid_style_batch(g, table, count=12, seed=1)
    assert batch.residuals == []  # nothing is drawn before the batch is read
    run_batch(g, batch, workers=2)
    assert batch.residuals == expected.residuals
    np.testing.assert_array_equal(batch.psi, dense)  # a second pass
    assert batch.residuals == expected.residuals


def test_streamed_run_holds_one_block_at_a_time():
    g, table = _covid_case(n=2000, seed=5)
    count = 400  # four blocks of 100 scenarios (1.6 MB each) at workers=1
    run_batch(g, ShockBatch(psi=np.ones((1, g.n)), seed=None, provenance="warm-up"))
    tracemalloc.start()
    try:
        batch = covid_style_batch(g, table, count=count, seed=2)
        result = run_batch(g, batch, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == count
    assert peak < count * g.n * 8 / 2


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_chunks_do_not_change_results(monkeypatch, chunk, sigma):
    g, table = _covid_case()
    batch = ShockBatch(psi=covid_style_batch(g, table, count=20, seed=4).psi, seed=4, provenance="test")
    cfg = PropagationConfig(nonessential_weight=sigma)
    reference = run_batch(g, batch, cfg, keep_defaults=True)
    monkeypatch.setattr(pipeline, "CHUNK", chunk)
    for workers in (1, 2):
        result = run_batch(g, batch, cfg, workers=workers, keep_defaults=True)
        for name in PER_BANK + PER_FIRM:
            np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
    assert reference.chi_w.sum() > reference.chi_wo.sum()  # the cascade adds defaults


def test_blocks_hold_whole_chunks(monkeypatch):
    g, table = _covid_case()
    batch = ShockBatch(psi=covid_style_batch(g, table, count=100, seed=4).psi, seed=4, provenance="test")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 8 * g.n * 26)
    chunks, run_chunk = [], pipeline._run_chunk
    monkeypatch.setattr(pipeline, "_run_chunk", lambda *args: chunks.append(len(args[4])) or run_chunk(*args))
    run_batch(g, batch, workers=1)
    assert chunks == [8] * 12 + [4]  # blocks of 24 rows, not 26 (8 + 8 + 8 + 2)


@pytest.mark.parametrize("chunk", [1, 8])
def test_convergence_flags_follow_each_scenario(monkeypatch, chunk):
    g, table = _covid_case()
    batch = ShockBatch(psi=covid_style_batch(g, table, count=20, seed=4).psi, seed=4, provenance="test")
    cfg = PropagationConfig(max_iter=8)  # these cascades take 7 to 9 steps
    monkeypatch.setattr(pipeline, "CHUNK", chunk)
    expected = [propagate(g, psi, cfg).converged for psi in batch.psi]
    assert 0 < sum(expected) < len(expected)
    assert run_batch(g, batch, cfg).sc_converged.tolist() == expected


def test_credit_on_a_block_matches_its_rows():
    g, table = _covid_case()
    psi = covid_style_batch(g, table, count=6, seed=8).psi
    h = propagate(g, psi).h
    shock_wo, shock_w = profit_shock(g, psi), profit_shock(g, h)
    chi_wo, chi_w = default_flags(g, shock_wo), default_flags(g, shock_w)
    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    assert chi_w.chi.shape == (6, g.n) and ledger.di.shape == ledger.sc.shape == (6, g.m)
    assert chi_w.count() > chi_wo.count() > 0
    for k in range(6):
        row_wo, row_w = profit_shock(g, psi[k]), profit_shock(g, h[k])
        assert row_wo.dp.tobytes() == shock_wo.dp[k].tobytes() and row_w.dp.tobytes() == shock_w.dp[k].tobytes()
        flags_wo, flags_w = default_flags(g, row_wo), default_flags(g, row_w)
        assert np.array_equal(flags_wo.chi, chi_wo.chi[k]) and np.array_equal(flags_w.chi, chi_w.chi[k])
        assert bank_seed(g, flags_w).tobytes() == bank_seed(g, chi_w)[k].tobytes()
        row = bank_losses(g, chi_w=flags_w, chi_wo=flags_wo)
        assert row.di.tobytes() == ledger.di[k].tobytes() and row.sc.tobytes() == ledger.sc[k].tobytes()


def test_regression_names_the_firm_in_a_later_row():
    g, _ = _covid_case(n=50)
    chi_w = np.ones((3, g.n), dtype=bool)
    chi_w[2, 17] = False
    with pytest.raises(ValueError, match=f"firm {g.firm_ids[17]!r} defaults without"):
        bank_losses(g, chi_w=DefaultFlags(chi_w), chi_wo=DefaultFlags(np.ones((3, g.n), dtype=bool)))


class _InlinePool:
    """Stands in for the process pool: runs each block when its result is read."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)
        self.in_flight = self.most_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, block):
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        return self._Future(self, fn, block)

    class _Future:
        def __init__(self, pool, fn, block):
            self.pool, self.fn, self.block = pool, fn, block

        def result(self):
            self.pool.in_flight -= 1
            return self.fn(self.block)


def test_pool_keeps_at_most_two_blocks_per_worker_in_flight(monkeypatch):
    g, table = _covid_case()
    batch = covid_style_batch(g, table, count=40, seed=9)
    reference = run_batch(g, batch, workers=1)
    pools = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", lambda **kw: pools.append(_InlinePool(**kw)) or pools[-1])
    monkeypatch.setattr(pipeline, "_shared", None)
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 8 * g.n)  # one scenario a block
    result = run_batch(g, batch, workers=3)
    assert [pool.most_in_flight for pool in pools] == [6]
    for name in PER_BANK:
        np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
