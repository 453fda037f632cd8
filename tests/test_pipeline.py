"""Scenario batches: the same arrays for any worker count."""

from __future__ import annotations

import numpy as np
import pytest

from netstress import ShockBatch, run_batch

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
