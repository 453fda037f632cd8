"""Scenario batches: the same arrays for any worker count, block size and batch kind."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from netstress import (
    ShockBatch,
    SyntheticParams,
    covid_style_batch,
    generate_synthetic_economy,
    pipeline,
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
