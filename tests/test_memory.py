"""Memory bounds of economy I/O.

The economy holds its firms and banks as columns, so generating, writing
and loading a 20 000-firm economy stays well below what one Python object
per firm cost: the ``tracemalloc`` peak of the three steps measured
21.4 MB with per-firm records and 13.4 MB with columns.
"""

from __future__ import annotations

import tracemalloc

from netstress import SyntheticParams, economy_files, generate_synthetic_economy, load_economy, write_economy


def test_generate_write_load_peak(tmp_path):
    tracemalloc.start()
    try:
        g = generate_synthetic_economy(SyntheticParams(n=20_000, m=19), seed=7)
        write_economy(g, tmp_path)
        back = load_economy(economy_files(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.n == g.n == 20_000
    assert peak < 17 * 2**20
