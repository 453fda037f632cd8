"""Golden output of the stand-in shock table: SHA-256 of its entries in order.

``synthetic_shock_table`` is a pure function of the economy and the seed.
Its draws come in firm order (one ``random`` per firm unless the firm is
the first of its industry, one ``normal`` per kept firm), so these digests
change only when that stream, the clamp to [0, 1] or the entry order does.
Forty sectors give twenty industries at n = 3000, and both seeds clamp
some values to 0.
"""

from __future__ import annotations

import hashlib

import pytest

from netstress import SyntheticParams, generate_synthetic_economy, synthetic_shock_table

CASES = {
    5: (2103, "27e7679a8e9e536cc285196cbd4d11df3d4fef62cf46c6296d5d2439308b82c7"),
    21: (2075, "bb8ec7f65b6798643270c4b841a25c35d26f64f59d64da2800bdf22f22b04e3a"),
}


@pytest.fixture(scope="module")
def economy():
    return generate_synthetic_economy(SyntheticParams(n=3000, m=5, sector_count=40), seed=13)


@pytest.mark.parametrize("seed", sorted(CASES))
def test_shock_table_unchanged(economy, seed):
    size, digest = CASES[seed]
    items = list(synthetic_shock_table(economy, seed=seed).reductions.items())
    assert len(items) == size
    assert all(type(value) is float and 0.0 <= value <= 1.0 for _, value in items)
    assert any(value == 0.0 for _, value in items)
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest
