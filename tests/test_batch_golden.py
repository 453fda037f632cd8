"""Golden output of the pandemic-style batch: SHA-256 of its shocks and residuals.

``covid_style_batch`` is a pure function of the economy, the shock table,
the count and the seed, so these digests change only when the random
stream or the rescaling arithmetic does. The count spans several blocks
of scenarios at n = 3000. The second case gives one industry a shock
table of zeros and a few ones, so many of its scenarios cannot meet the
aggregate exactly and the residual list is not empty.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from netstress import (
    EmpiricalShockTable,
    SyntheticParams,
    covid_style_batch,
    generate_synthetic_economy,
    synthetic_shock_table,
)

N = 3000
COUNT = 300


def _economy_and_table(residual_industry: bool):
    g = generate_synthetic_economy(SyntheticParams(n=N, m=5), seed=13)
    table = synthetic_shock_table(g, seed=5)
    if residual_industry:
        rng = np.random.default_rng(0)
        nace2 = {fid: sector[:2] for fid, sector in zip(g.firm_ids, g.sectors)}
        table = EmpiricalShockTable({
            fid: float(rng.random() < 0.05) if nace2[fid] == "10" else value
            for fid, value in table.reductions.items()
        })
    return g, table


CASES = {
    "synthetic": (False, 11, 0,
                  "a9837317b9c5b960bcb53fd5e448e2de7cdd440b98fa46c8a37733fbd3d86932",
                  "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "residuals": (True, 0, 196,
                  "3ca52f7f739db58ef03f9bae0d8259afad6b655c0c1d1d274fbda025dfc48126",
                  "7538eeae66bfb2247bb7658174b6b987ba5f32b68e6ec2ba6a1de848448159b6"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_covid_batch_unchanged(case):
    residual_industry, seed, n_residuals, psi_digest, residual_digest = CASES[case]
    g, table = _economy_and_table(residual_industry)
    batch = covid_style_batch(g, table, count=COUNT, seed=seed)
    psi = batch.psi
    assert psi.shape == (COUNT, N) and psi.dtype == np.float64
    assert hashlib.sha256(psi.tobytes()).hexdigest() == psi_digest
    assert len(batch.residuals) == n_residuals
    assert hashlib.sha256(repr(batch.residuals).encode()).hexdigest() == residual_digest
