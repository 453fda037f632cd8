"""Memory bounds of economy and batch-file I/O.

The economy holds its firms and banks as columns, so generating, writing
and loading a 20 000-firm economy stays well below what one Python object
per firm cost: the ``tracemalloc`` peak of the three steps measured
21.4 MB with per-firm records and 13.4 MB with columns.

A batch file is read into its (scenario, firm) grid and a byte per pair,
with no Python object kept per line: 2000 firms in each of 40 scenarios
peaked at about 27 B a line, against about 229 B with a set of
``(scenario, firm id)`` tuples.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from netstress import SyntheticParams, economy_files, generate_synthetic_economy, load_economy, write_economy
from netstress.scenarios import ShockBatch, read_batch, write_batch


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


def test_read_batch_peak_per_line(tmp_path):
    g = generate_synthetic_economy(SyntheticParams(n=2000, m=19), seed=7)
    psi = np.random.default_rng(0).random((40, g.n))
    path = tmp_path / "batch.csv"
    write_batch(ShockBatch.dense(psi, provenance="test"), g.firm_ids, path)  # every firm in every scenario
    g.firm_index  # the economy's, built before the read as stress builds it
    tracemalloc.start()
    try:
        batch = read_batch(g, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(batch.psi, psi)
    assert peak <= 64 * psi.size
