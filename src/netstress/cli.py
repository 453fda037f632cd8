"""Command-line orchestration: validate, generate, fsri, stress, debtrank, report.

Every run is a pure function of its resolved configuration (config file
plus flag overrides), so repeated runs write bit-identical report files.
A manifest echoes the configuration, library versions, seeds and
convergence flags.

Exit codes: 0 ok, 1 validation problem (an invariant violation or an
unknown id), 2 convergence failure, 3 I/O or format problem (a file that
cannot be opened or parsed, or a value out of range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .credit import dump_defaults
from .debtrank import debtrank, debtrank_profile, write_trace
from .economy import (
    DataFormatError,
    EconomyGraph,
    EconomyValidationError,
    ReferentialError,
    validate_economy,  # noqa: F401  kept in this namespace: benchmarks/tracing.py wraps it here
)
from .ingest import economy_files, load_economy, load_essentiality, write_economy
from .metrics import (
    CHANNELS,
    ChannelDecomposition,
    ccdf,
    fsri_profile,
    ib_amplification,
    ols_fit,
)
from .pipeline import BatchResult, run_batch
from .propagation import PropagationConfig
from .scenarios import EmpiricalShockTable, ShockBatch, covid_style_batch, read_batch
from .synthetic import SyntheticParams, generate_synthetic_economy, synthetic_shock_table
from .tables import fmt, parse, read_rows
from .tables import write_csv as _write_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3

LEDGER_COLUMNS = ["scenario_id", "bank_id", "di", "sc", "ib_wo", "ib_w", "total_wo", "total_w"]

DEFAULT_CONFIG = {
    "economy": {"source": "files", "dir": ".", "lgd": 1.0, "seed": 7,
                "n": 1000, "m": 19, "mean_degree": 4.0, "sector_count": 20,
                "target_exposure_ratio": 12.5},
    "scenarios": {"kind": "covid", "count": 100, "seed": 11,
                  "shocks": "synthetic", "shocks_seed": 3, "batch_file": None},
    "propagation": {"epsilon": 0.01, "max_iter": 1000,
                    "nonessential_weight": 0.0, "essentiality": None},
    "debtrank": {"epsilon": 0.01, "max_iter": 1000},
    "regime": "both",
    "workers": 0,   # 0 = available parallelism
    "out": "out",
    "trace": False,
}


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _load_config(path: str | None) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise DataFormatError(f"{path}: cannot open ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
        config = _merge(config, user)
    return config


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "out", None):
        config["out"] = args.out
    if getattr(args, "workers", None) is not None:
        config["workers"] = args.workers
    if getattr(args, "seed", None) is not None:
        config["scenarios"]["seed"] = args.seed
    if getattr(args, "regime", None):
        config["regime"] = args.regime
    if getattr(args, "trace", False):
        config["trace"] = True
    if getattr(args, "economy_dir", None):
        config["economy"]["source"] = "files"
        config["economy"]["dir"] = args.economy_dir
    if getattr(args, "synthetic", False):
        config["economy"]["source"] = "synthetic"
    if getattr(args, "n", None) is not None:
        config["economy"]["n"] = args.n
    if getattr(args, "m", None) is not None:
        config["economy"]["m"] = args.m
    if getattr(args, "ratio", None) is not None:
        config["economy"]["target_exposure_ratio"] = args.ratio
    if getattr(args, "economy_seed", None) is not None:
        config["economy"]["seed"] = args.economy_seed
    if getattr(args, "count", None) is not None:
        config["scenarios"]["count"] = args.count
    if getattr(args, "shocks", None):
        config["scenarios"]["shocks"] = args.shocks
    if getattr(args, "batch_file", None):
        config["scenarios"]["kind"] = "file"
        config["scenarios"]["batch_file"] = args.batch_file
    if getattr(args, "single_firm", False):
        config["scenarios"]["kind"] = "single-firm"
    if getattr(args, "epsilon", None) is not None:
        config["propagation"]["epsilon"] = args.epsilon
    if getattr(args, "sigma", None) is not None:
        config["propagation"]["nonessential_weight"] = args.sigma
    if getattr(args, "essentiality", None):
        config["propagation"]["essentiality"] = args.essentiality
    return config


def _economy_from_config(config: dict) -> EconomyGraph:
    eco = config["economy"]
    if eco["source"] == "synthetic":
        extras = {
            key: eco[key]
            for key in (
                "weight_family", "missing_financials_rate", "negative_income_rate",
                "loan_coverage", "interbank_density", "essential_fraction",
            )
            if key in eco
        }
        params = SyntheticParams(
            n=int(eco["n"]), m=int(eco["m"]),
            mean_degree=float(eco.get("mean_degree", 4.0)),
            sector_count=int(eco.get("sector_count", 20)),
            target_exposure_ratio=eco.get("target_exposure_ratio"),
            **extras,
        )
        graph = generate_synthetic_economy(params, seed=int(eco["seed"]))
    elif eco["source"] == "files":
        spec = economy_files(eco["dir"], lgd=float(eco.get("lgd", 1.0)))
        graph = load_economy(spec)
    else:
        raise DataFormatError(f"unknown economy source {eco['source']!r}")
    ess_path = config["propagation"].get("essentiality")
    if ess_path:
        graph.essentiality = load_essentiality(ess_path)
    return graph


def _propagation_config(config: dict, trace: bool = False) -> PropagationConfig:
    prop = config["propagation"]
    return PropagationConfig(
        epsilon=float(prop["epsilon"]),
        max_iter=int(prop["max_iter"]),
        nonessential_weight=float(prop["nonessential_weight"]),
        record_trajectory=trace,
    )


def _batch_from_config(config: dict, graph: EconomyGraph) -> ShockBatch:
    spec = config["scenarios"]
    kind = spec["kind"]
    if kind == "single-firm":
        psi = np.ones((graph.n, graph.n))
        np.fill_diagonal(psi, 0.0)
        return ShockBatch(psi=psi, seed=None, provenance="single-firm")
    if kind == "covid":
        shocks = spec.get("shocks", "synthetic")
        if shocks == "synthetic":
            table = synthetic_shock_table(graph, seed=int(spec.get("shocks_seed", 3)))
        else:
            table = EmpiricalShockTable.from_csv(shocks)
        return covid_style_batch(graph, table, count=int(spec["count"]), seed=int(spec["seed"]))
    if kind == "file":
        return read_batch(graph, spec["batch_file"])
    raise DataFormatError(f"unknown scenario kind {kind!r}")


def _workers(config: dict) -> int:
    workers = int(config.get("workers", 0))
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _write_manifest(out: Path, command: str, config: dict, extra: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "netstress": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    manifest.update(extra)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(config: dict) -> int:
    eco = config["economy"]
    spec = economy_files(eco["dir"], lgd=float(eco.get("lgd", 1.0)))
    try:
        load_economy(spec)
    except EconomyValidationError as exc:
        print(exc.report, file=sys.stderr)
        return EXIT_VALIDATION
    print("economy valid")
    return EXIT_OK


def cmd_generate(config: dict) -> int:
    graph = _economy_from_config(config)
    out = Path(config["out"])
    write_economy(graph, out)
    # building the graph validated it: an invalid economy raised before here
    _write_manifest(out, "generate", config, {"n": graph.n, "m": graph.m, "valid": True})
    print(f"wrote economy with {graph.n} firms and {graph.m} banks to {out}")
    return EXIT_OK


def _write_profile(out: Path, records) -> None:
    _write_csv(
        out / "fsri_profile.csv",
        ["rank", "firm_id", "fsri", "fsri_plus", "amplification"],
        [
            [rank, r.firm_id, fmt(r.fsri), fmt(r.fsri_plus),
             "" if np.isnan(r.amplification) else fmt(r.amplification)]
            for rank, r in enumerate(records, start=1)
        ],
    )


def cmd_fsri(config: dict) -> int:
    graph = _economy_from_config(config)
    cfg = _propagation_config(config)
    dr = config["debtrank"]
    records = fsri_profile(
        graph, cfg, dr_epsilon=float(dr["epsilon"]), dr_max_iter=int(dr["max_iter"])
    )
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_profile(out, records)

    rows = []
    for metric, values in (
        ("fsri", [r.fsri for r in records]),
        ("fsri_plus", [r.fsri_plus for r in records]),
    ):
        levels, survival = ccdf(values)
        rows += [[metric, fmt(lv), fmt(sv)] for lv, sv in zip(levels, survival)]
    _write_csv(out / "ccdf.csv", ["metric", "level", "survival"], rows)

    _write_manifest(out, "fsri", config, {
        "firms": graph.n,
        "outputs": ["fsri_profile.csv", "ccdf.csv"],
    })
    print(f"wrote systemic-risk profile for {graph.n} firms to {out}")
    return EXIT_OK


def _write_ledgers(out: Path, result: BatchResult) -> None:
    dec = ChannelDecomposition(result)
    losses = dec.channel_losses()
    _write_csv(out / "ledgers.csv", LEDGER_COLUMNS, (
        [scenario, bank_id,
         fmt(result.di[s, k]), fmt(result.sc[s, k]),
         fmt(result.ib_wo[s, k]), fmt(result.ib_w[s, k]),
         fmt(losses["di_ib"][s, k]), fmt(losses["di_sc_ib"][s, k])]
        for s, scenario in enumerate(result.scenario_ids)
        for k, bank_id in enumerate(result.bank_ids)
    ))


def _regime_channels(regime: str) -> tuple[str, ...]:
    if regime == "wo":
        return ("di", "di_ib")
    if regime == "w":
        return ("di_sc", "di_sc_ib")
    return CHANNELS


def _write_stats(out: Path, dec: ChannelDecomposition, regime: str) -> dict:
    channels = _regime_channels(regime)
    rows = [
        [bank, channel, fmt(summary.el), fmt(summary.var95), fmt(summary.es95), reg]
        for bank, channel, reg, summary in dec.summaries()
        if channel in channels
    ]
    _write_csv(out / "risk_summary.csv", ["bank", "channel", "el", "var95", "es95", "regime"], rows)

    records = dec.amplification_records()
    _write_csv(
        out / "amplification.csv",
        ["scenario_id", "bank_id", "ib_wo", "ib_w", "ratio"],
        [
            [r.scenario, r.bank_id, fmt(r.ib_wo), fmt(r.ib_w),
             "" if np.isnan(r.ratio) else fmt(r.ratio)]
            for r in records
        ],
    )

    fits: dict = {"pooled": None, "pooled_log": None, "per_bank": {}, "skipped_banks": []}
    result = dec.result
    x = result.ib_wo.ravel()
    y = result.ib_w.ravel()
    defined = x > 0.0
    stats_extra: dict = {"amplification_defined": int(defined.sum()),
                         "amplification_undefined": int((~defined).sum())}
    if defined.sum() >= 3 and np.ptp(x[defined]) > 0.0:
        fit = ols_fit(x[defined], y[defined])
        fits["pooled"] = {"slope": fit.slope, "intercept": fit.intercept,
                          "r_squared": fit.r_squared, "log_log": False, "n": fit.n}
        positive = defined & (y > 0.0)
        if positive.sum() >= 3 and np.ptp(x[positive]) > 0.0:
            logfit = ols_fit(x[positive], y[positive], log_log=True)
            fits["pooled_log"] = {"slope": logfit.slope, "intercept": logfit.intercept,
                                  "r_squared": logfit.r_squared, "log_log": True, "n": logfit.n}
    # banks that never see interbank losses (e.g. no interbank edges) are skipped
    for k, bank_id in enumerate(result.bank_ids):
        xk, yk = result.ib_wo[:, k], result.ib_w[:, k]
        mask = xk > 0.0
        if mask.sum() < 3 or np.ptp(xk[mask]) <= 0.0:
            fits["skipped_banks"].append(bank_id)
            continue
        fit = ols_fit(xk[mask], yk[mask])
        fits["per_bank"][bank_id] = {"slope": fit.slope, "intercept": fit.intercept,
                                     "r_squared": fit.r_squared, "log_log": False, "n": fit.n}
    with open(out / "fits.json", "w", encoding="utf-8") as fh:
        json.dump(fits, fh, indent=2, sort_keys=True)
        fh.write("\n")

    try:
        amp = ib_amplification(records)
        levels, survival = amp.pooled_levels, amp.pooled_survival
        _write_csv(
            out / "ccdf.csv",
            ["metric", "level", "survival"],
            [["ib_amplification", fmt(lv), fmt(sv)] for lv, sv in zip(levels, survival)],
        )
    except ValueError:
        _write_csv(out / "ccdf.csv", ["metric", "level", "survival"], [])
    return stats_extra


def cmd_stress(config: dict) -> int:
    graph = _economy_from_config(config)
    cfg = _propagation_config(config)
    batch = _batch_from_config(config, graph)
    dr = config["debtrank"]
    trace = bool(config.get("trace", False))
    result = run_batch(
        graph, batch, cfg,
        dr_epsilon=float(dr["epsilon"]), dr_max_iter=int(dr["max_iter"]),
        workers=_workers(config), keep_defaults=trace,
    )
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    dec = ChannelDecomposition(result)
    _write_ledgers(out, result)
    stats_extra = _write_stats(out, dec, config["regime"])
    if trace:
        dump_defaults(
            out / "defaults.csv",
            result.scenario_ids, result.chi_wo, result.chi_w, result.dp_w, graph.firm_ids,
        )

    ids = np.asarray(result.scenario_ids)
    convergence = {
        "sc_failures": int((~result.sc_converged).sum()),
        "debtrank_wo_failures": int((~result.dr_wo_converged).sum()),
        "debtrank_w_failures": int((~result.dr_w_converged).sum()),
        "sc_failed_scenarios": ids[~result.sc_converged].tolist(),
        "debtrank_wo_failed_scenarios": ids[~result.dr_wo_converged].tolist(),
        "debtrank_w_failed_scenarios": ids[~result.dr_w_converged].tolist(),
        "residual_sectors": len(batch.residuals),
        "complete": result.all_converged,
    }
    outputs = ["ledgers.csv", "risk_summary.csv", "amplification.csv", "fits.json", "ccdf.csv"]
    if trace:
        outputs.append("defaults.csv")
    _write_manifest(out, "stress", config, {
        "scenarios": len(batch),
        "provenance": batch.provenance,
        "convergence": convergence,
        "outputs": outputs,
        **stats_extra,
    })
    print(f"ran {len(batch)} scenarios on {graph.n} firms / {graph.m} banks -> {out}")
    if not result.all_converged:
        print("warning: some scenarios did not converge; see manifest.json", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_debtrank(config: dict) -> int:
    graph = _economy_from_config(config)
    dr = config["debtrank"]
    profile = debtrank_profile(
        graph, epsilon=float(dr["epsilon"]), max_iter=int(dr["max_iter"])
    )
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "debtrank.csv",
        ["bank_id", "total", "contagion_only"],
        [
            [bid, fmt(t), fmt(c)]
            for bid, t, c in zip(profile.bank_ids, profile.total, profile.contagion_only)
        ],
    )
    if config.get("trace"):
        for k, bank_id in enumerate(graph.bank_ids):
            seed = np.zeros(graph.m)
            seed[k] = 1.0
            result = debtrank(
                graph, seed,
                epsilon=float(dr["epsilon"]), max_iter=int(dr["max_iter"]), record_trace=True,
            )
            write_trace(result, graph.bank_ids, out / f"debtrank_trace_{bank_id}.csv")
    _write_manifest(out, "debtrank", config, {"banks": graph.m, "outputs": ["debtrank.csv"]})
    print(f"wrote full-default impact profile for {graph.m} banks to {out}")
    return EXIT_OK


def cmd_report(config: dict, ledgers: str) -> int:
    path = Path(ledgers)
    cells: dict[tuple[int, str], list[float]] = {}
    for line, row in read_rows(path, LEDGER_COLUMNS):
        key = (parse(path, line, "scenario_id", row["scenario_id"], int), row["bank_id"].strip())
        if key in cells:
            raise DataFormatError(
                f"{path} line {line}: second row for scenario {key[0]} and bank {key[1]!r}"
            )
        cells[key] = [parse(path, line, c, row[c]) for c in ("di", "sc", "ib_wo", "ib_w")]
    if not cells:
        raise DataFormatError(f"{path}: no ledgers found")

    scenarios = sorted({s for s, _ in cells})
    bank_ids = list(dict.fromkeys(b for _, b in cells))
    losses = np.zeros((4, len(scenarios), len(bank_ids)))
    for si, s in enumerate(scenarios):
        for k, bank_id in enumerate(bank_ids):
            if (s, bank_id) not in cells:
                raise DataFormatError(f"{path}: no row for scenario {s} and bank {bank_id!r}")
            losses[:, si, k] = cells[s, bank_id]
    di, sc, ib_wo, ib_w = losses

    # recomputed statistics need equity weights; without the economy they
    # are taken as equal, which only affects the synthetic 'system' rows
    result = BatchResult(
        bank_ids=bank_ids,
        bank_equity=np.ones(len(bank_ids)),
        di=di, sc=sc, ib_wo=ib_wo, ib_w=ib_w,
        sc_converged=np.ones(len(scenarios), dtype=bool),
        dr_wo_converged=np.ones(len(scenarios), dtype=bool),
        dr_w_converged=np.ones(len(scenarios), dtype=bool),
        scenario_ids=scenarios,
    )
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    dec = ChannelDecomposition(result)
    stats_extra = _write_stats(out, dec, config["regime"])
    _write_manifest(out, "report", config, {
        "ledgers": str(path),
        "scenarios": len(scenarios),
        "outputs": ["risk_summary.csv", "amplification.csv", "fits.json", "ccdf.csv"],
        **stats_extra,
    })
    print(f"recomputed statistics for {len(scenarios)} scenarios -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netstress",
        description="supply-chain and interbank network stress-testing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--workers", type=int, help="scenario worker count (0 = all cores)")
        p.add_argument("--seed", type=int, help="scenario RNG seed")
        p.add_argument("--regime", choices=("w", "wo", "both"), help="which regimes to report")
        p.add_argument("--trace", action="store_true", help="write iteration/default dumps")
        p.add_argument("--economy-dir", help="directory with economy CSV files")
        p.add_argument("--synthetic", action="store_true", help="generate a synthetic economy")
        p.add_argument("--n", type=int, help="synthetic economy: firm count")
        p.add_argument("--m", type=int, help="synthetic economy: bank count")
        p.add_argument("--ratio", type=float, help="synthetic economy: target exposure ratio")
        p.add_argument("--economy-seed", type=int, help="synthetic economy RNG seed")
        p.add_argument("--epsilon", type=float, help="propagation convergence tolerance")
        p.add_argument("--sigma", type=float, help="non-essential input weight in [0, 1]")
        p.add_argument("--essentiality", help="essentiality.csv path")

    p_validate = sub.add_parser("validate", help="validate economy files")
    common(p_validate)

    p_generate = sub.add_parser("generate", help="generate a synthetic economy as CSV files")
    common(p_generate)

    p_fsri = sub.add_parser("fsri", help="per-firm systemic risk profile (single-firm sweep)")
    common(p_fsri)

    p_stress = sub.add_parser("stress", help="run a scenario batch through the full pipeline")
    common(p_stress)
    p_stress.add_argument("--count", type=int, help="number of scenarios")
    p_stress.add_argument("--shocks", help="empirical shock table CSV, or 'synthetic'")
    p_stress.add_argument("--batch-file", help="long-format shock batch CSV")
    p_stress.add_argument("--single-firm", action="store_true",
                          help="sweep single-firm failure scenarios instead")

    p_dr = sub.add_parser("debtrank", help="per-bank full-default impact profile")
    common(p_dr)

    p_report = sub.add_parser("report", help="recompute statistics from dumped ledgers")
    common(p_report)
    p_report.add_argument("--ledgers", required=True, help="ledgers.csv from a stress run")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(_load_config(args.config), args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "generate":
            config["economy"]["source"] = "synthetic"
            return cmd_generate(config)
        if args.command == "fsri":
            return cmd_fsri(config)
        if args.command == "stress":
            return cmd_stress(config)
        if args.command == "debtrank":
            return cmd_debtrank(config)
        if args.command == "report":
            return cmd_report(config, args.ledgers)
        raise AssertionError(f"unhandled command {args.command}")
    except EconomyValidationError as exc:
        print(f"validation error:\n{exc.report}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReferentialError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
