#!/usr/bin/env python3
"""Stress a calibrated synthetic economy with a pandemic-style batch.

Generates an economy tuned to a firm-to-interbank exposure ratio of 12.5,
draws industry-aggregate-preserving shock scenarios, runs the full
pipeline in both regimes and prints the channel decomposition plus the
interbank amplification summary. Report files land in --out.

    python scripts/run_calibrated_batch.py --firms 10000 --scenarios 1000 --out runs/big
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from netstress import (
    ChannelDecomposition,
    SyntheticParams,
    covid_style_batch,
    generate_synthetic_economy,
    ib_amplification,
    ols_fit,
    run_batch,
    synthetic_shock_table,
)
from netstress.cli import _write_ledgers, _write_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--firms", type=int, default=2000)
    parser.add_argument("--banks", type=int, default=19)
    parser.add_argument("--scenarios", type=int, default=200)
    parser.add_argument("--ratio", type=float, default=12.5)
    parser.add_argument("--economy-seed", type=int, default=7)
    parser.add_argument("--shock-seed", type=int, default=3)
    parser.add_argument("--batch-seed", type=int, default=11)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="also write the report files here")
    args = parser.parse_args()

    start = time.perf_counter()
    economy = generate_synthetic_economy(
        SyntheticParams(n=args.firms, m=args.banks, target_exposure_ratio=args.ratio),
        seed=args.economy_seed,
    )
    table = synthetic_shock_table(economy, seed=args.shock_seed)
    batch = covid_style_batch(economy, table, count=args.scenarios, seed=args.batch_seed)
    result = run_batch(economy, batch, workers=args.workers)
    elapsed = time.perf_counter() - start

    decomposition = ChannelDecomposition(result)
    system = decomposition.system_losses()
    print(f"{args.scenarios} scenarios x {args.firms} firms in {elapsed:.1f}s "
          f"(converged: {result.all_converged})")
    print("\nsystem-level equity losses by channel:")
    print("  channel      mean     p95")
    for name, series in system.items():
        print(f"  {name:<10} {series.mean():7.2%}  {np.quantile(series, 0.95):7.2%}")

    mask = result.ib_wo.ravel() > 0.0
    if mask.sum() >= 3:
        fit = ols_fit(result.ib_wo.ravel()[mask], result.ib_w.ravel()[mask])
        print(f"\npooled interbank regression: slope {fit.slope:.2f}, R^2 {fit.r_squared:.2f}")
    stats = ib_amplification(result.ib_wo, result.ib_w)
    print(f"interbank amplification: median {np.median(stats.pooled_ratios):.2f}, "
          f"share above 2: {(stats.pooled_ratios > 2).mean():.1%}, "
          f"undefined ratios: {stats.n_undefined}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_ledgers(out, result)
        _write_stats(out, decomposition, "both")
        print(f"\nreport files written to {out}")


if __name__ == "__main__":
    main()
