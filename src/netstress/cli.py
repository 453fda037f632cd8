"""Command-line orchestration: validate, generate, fsri, stress, debtrank, report.

Every run is a pure function of its resolved configuration (config file
plus flag overrides), so repeated runs write bit-identical report files.
A manifest echoes the configuration, library versions, seeds and
convergence flags.

Exit codes: 0 ok, 1 validation problem (an invariant violation or an
unknown id), 2 convergence failure, 3 I/O or format problem (a file that
cannot be opened or parsed, a value out of range, or a bad command line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple
from pathlib import Path
from urllib.parse import quote

import numpy as np
import scipy

from . import __version__
from .credit import BankLossLedger
from .debtrank import DEFAULT_EPSILON, DEFAULT_MAX_ITER, debtrank_profile
from .economy import (
    DataFormatError,
    EconomyGraph,
    EconomyValidationError,
    InvalidRowError,
    ReferentialError,
    validate_economy,  # noqa: F401  kept in this namespace: benchmarks/tracing.py wraps it here
)
from .ingest import IngestionSpec, economy_files, load_economy, load_essentiality, write_economy
from .metrics import ChannelDecomposition, ccdf, fsri_profile, ib_amplification, ols_fit
from .pipeline import BatchResult, run_batch
from .propagation import PropagationConfig
from .scenarios import EmpiricalShockTable, ShockBatch, covid_style_batch, read_batch, single_firm_batch
from .synthetic import FRACTIONS as _SYNTHETIC_FRACTIONS
from .synthetic import SyntheticParams, generate_synthetic_economy, synthetic_shock_table
from .tables import Block, RowError, first_repeat, read_blocks
from .tables import write_columns as _write_csv  # the name benchmarks/tracing.py wraps

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3

LEDGER_COLUMNS = ["scenario_id", "bank_id", "di", "sc", "ib_wo", "ib_w", "total_wo", "total_w"]

REGIMES = ("w", "wo", "both")

_SYNTHETIC = SyntheticParams()

DEFAULT_CONFIG = {
    "economy": {"source": "files", "dir": ".", "lgd": 1.0, "seed": 7, **{
        key: getattr(_SYNTHETIC, key) for key in ("n", "m", "mean_degree", "sector_count", "target_exposure_ratio")}},
    "scenarios": {"kind": "covid", "count": 100, "seed": 11,
                  "shocks": "synthetic", "shocks_seed": 3, "batch_file": None},
    "propagation": {**asdict(PropagationConfig()), "essentiality": None},
    "debtrank": {"epsilon": DEFAULT_EPSILON, "max_iter": DEFAULT_MAX_ITER},
    "regime": "both",
    "workers": 0,   # 0 = the CPUs this process may run on
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
    """The defaults merged with the JSON file at ``path``. A file whose shape
    does not fit them is an input error: a top level or section that is not
    an object, a path that is not a string (``None`` where the file is
    optional), a regime not in :data:`REGIMES`, or a ``trace`` that is not
    a JSON boolean."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if not path:
        return config
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(user, dict):
        raise DataFormatError(f"{path}: the top level must be a JSON object")
    config = _merge(config, user)
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(config[section], dict):
            raise DataFormatError(f"{path}: {section!r} must be a JSON object")
    eco, spec, prop = config["economy"], config["scenarios"], config["propagation"]
    for name, value, optional in (
        ("economy.dir", eco["dir"], False), ("scenarios.shocks", spec["shocks"], False),
        ("out", config["out"], False), ("scenarios.batch_file", spec["batch_file"], True),
        ("propagation.essentiality", prop["essentiality"], True),
    ):
        if not (isinstance(value, str) or (optional and value is None)):
            raise DataFormatError(f"{path}: {name} must be a path string, got {value!r}")
    if config["regime"] not in REGIMES:
        raise DataFormatError(f"{path}: regime must be one of {', '.join(REGIMES)}, got {config['regime']!r}")
    if not isinstance(config["trace"], bool):
        raise DataFormatError(f"{path}: trace must be true or false, got {config['trace']!r}")
    return config


def _set(config: dict, path: str, value) -> None:
    *sections, key = path.split(".")
    for section in sections:
        config = config[section]
    config[key] = value


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    """Set each flag given on the command line at its config path, after the
    setting it implies (:data:`IMPLIED`). A flag left out is ``None``; an
    empty string counts as left out."""
    for _, path, _ in FLAGS + STRESS_FLAGS:
        value = getattr(args, path, None)
        if value is not None and value != "":
            if path in IMPLIED:
                _set(config, *IMPLIED[path])
            _set(config, path, value)
    return config


@contextmanager
def _settings(section: str):
    """Read settings: a value that is not a number, or out of range, is an
    input error (exit 3), not a crash."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{section}: {exc}") from exc


def _number(section: dict, key: str, kind: type = float):
    """Setting ``key`` of ``section`` as a ``kind`` (int or float). A boolean is refused, and so is
    a number that is not whole where an int is due: ``int`` would truncate it."""
    value = section[key]
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be {'a whole number' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _seed(section: dict, key: str) -> int:
    seed = _number(section, key, int)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _economy_files(eco: dict) -> IngestionSpec:
    with _settings("economy"):
        lgd = _number(eco, "lgd")
    return economy_files(eco["dir"], lgd=lgd)


def _economy_from_config(config: dict) -> EconomyGraph:
    eco = config["economy"]
    if eco["source"] == "synthetic":
        with _settings("SyntheticParams"):
            ratio = eco["target_exposure_ratio"]
            params = SyntheticParams(
                n=_number(eco, "n", int), m=_number(eco, "m", int),
                mean_degree=_number(eco, "mean_degree"),
                sector_count=_number(eco, "sector_count", int),
                target_exposure_ratio=None if ratio is None else _number(eco, "target_exposure_ratio"),
                **{key: _number(eco, key) for key in _SYNTHETIC_FRACTIONS if key in eco},
                **{key: eco[key] for key in ("weight_family",) if key in eco},
            )
            seed = _seed(eco, "seed")
        graph = generate_synthetic_economy(params, seed=seed)
    elif eco["source"] == "files":
        graph = load_economy(_economy_files(eco))
    else:
        raise DataFormatError(f"unknown economy source {eco['source']!r}")
    ess_path = config["propagation"]["essentiality"]
    if ess_path:
        graph.essentiality = load_essentiality(ess_path)
    return graph


def _propagation_config(config: dict) -> PropagationConfig:
    prop = config["propagation"]
    with _settings("PropagationConfig"):
        return PropagationConfig(
            epsilon=_number(prop, "epsilon"),
            max_iter=_number(prop, "max_iter", int),
            nonessential_weight=_number(prop, "nonessential_weight"),
        )


def _debtrank_settings(config: dict) -> tuple[float, int]:
    """``(epsilon, max_iter)`` of the contagion stage, checked before any run."""
    dr = config["debtrank"]
    with _settings("debtrank"):
        epsilon, max_iter = _number(dr, "epsilon"), _number(dr, "max_iter", int)
        if not 0.0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    return epsilon, max_iter


def _batch_from_config(config: dict, graph: EconomyGraph) -> ShockBatch:
    spec = config["scenarios"]
    kind = spec["kind"]
    if kind == "single-firm":
        return single_firm_batch(graph)
    if kind == "covid":
        with _settings("scenarios"):
            count, seed = _number(spec, "count", int), _seed(spec, "seed")
            shocks_seed = _seed(spec, "shocks_seed")
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
        shocks = spec["shocks"]
        if shocks == "synthetic":
            table = synthetic_shock_table(graph, seed=shocks_seed)
        else:
            table = EmpiricalShockTable.from_csv(shocks)
        return covid_style_batch(graph, table, count=count, seed=seed)
    if kind == "file":
        if not isinstance(spec["batch_file"], str):
            raise DataFormatError(f"scenarios.batch_file must be a path string, got {spec['batch_file']!r}")
        return read_batch(graph, spec["batch_file"])
    raise DataFormatError(f"unknown scenario kind {kind!r}")


def _workers(config: dict) -> int:
    """The configured worker count; 0 or less means the CPUs this process may
    run on (its affinity mask, which ``taskset`` and cpusets narrow)."""
    with _settings("workers"):
        workers = _number(config, "workers", int)
    if workers > 0:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    spec = _economy_files(config["economy"])
    try:
        load_economy(spec)
    except EconomyValidationError as exc:
        print(exc.report, file=sys.stderr)
        return EXIT_VALIDATION
    print("economy valid")
    return EXIT_OK


def cmd_generate(config: dict) -> int:
    config["economy"]["source"] = "synthetic"
    graph = _economy_from_config(config)
    out = Path(config["out"])
    write_economy(graph, out)
    # building the graph validated it: an invalid economy raised before here
    _write_manifest(out, "generate", config, {"n": graph.n, "m": graph.m, "valid": True})
    print(f"wrote economy with {graph.n} firms and {graph.m} banks to {out}")
    return EXIT_OK


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ma.MaskedArray:
    """``num / den``, masked (a blank cell) where ``den`` is 0."""
    undefined = den == 0.0
    return np.ma.masked_array(np.divide(num, den, out=np.zeros_like(num), where=~undefined), mask=undefined)


def _write_ccdf(out: Path, curves: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """``ccdf.csv``: a row per level of each named ``(levels, survival)`` curve, in turn."""
    _write_csv(out / "ccdf.csv", ["metric", "level", "survival"], [
        np.repeat(list(curves), [len(levels) for levels, _ in curves.values()]),
        *map(np.concatenate, zip(*curves.values())),
    ])


def _write_profile(out: Path, firm_ids: list[str], base: np.ndarray, plus: np.ndarray) -> None:
    """``fsri_profile.csv``: the firms ranked by descending FSRI, ties in firm order."""
    order = np.argsort(-base, kind="stable")
    base, plus = base[order], plus[order]
    _write_csv(out / "fsri_profile.csv", ["rank", "firm_id", "fsri", "fsri_plus", "amplification"], [
        np.arange(1, len(order) + 1), [firm_ids[i] for i in order.tolist()], base, plus, _ratio(plus, base),
    ])


def cmd_fsri(config: dict) -> int:
    graph = _economy_from_config(config)
    cfg = _propagation_config(config)
    dr_epsilon, dr_max_iter = _debtrank_settings(config)
    base, plus = fsri_profile(graph, cfg, dr_epsilon=dr_epsilon, dr_max_iter=dr_max_iter)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_profile(out, graph.firm_ids, base, plus)
    _write_ccdf(out, {"fsri": ccdf(base), "fsri_plus": ccdf(plus)})
    _write_manifest(out, "fsri", config, {
        "firms": graph.n,
        "outputs": ["fsri_profile.csv", "ccdf.csv"],
    })
    print(f"wrote systemic-risk profile for {graph.n} firms to {out}")
    return EXIT_OK


def _pairs(result: BatchResult) -> list:
    """The ``scenario_id`` and ``bank_id`` columns of a table with a row per (scenario, bank)."""
    return [np.repeat(result.scenario_ids, len(result.bank_ids)), result.bank_ids * len(result)]


def _write_ledgers(out: Path, result: BatchResult) -> None:
    losses = ChannelDecomposition(result).channel_losses()
    _write_csv(out / "ledgers.csv", LEDGER_COLUMNS, [
        *_pairs(result),
        *(a.ravel() for a in (result.di, result.sc, result.ib_wo, result.ib_w, losses["di_ib"], losses["di_sc_ib"])),
    ])


def _fit(x: np.ndarray, y: np.ndarray, keep: np.ndarray, log_log: bool = False) -> dict | None:
    """The least-squares line through the (x, y) pairs where ``keep``; None below three or with no spread in x."""
    x, y = x[keep], y[keep]
    if x.size < 3 or np.ptp(x) <= 0.0:
        return None
    return asdict(ols_fit(x, y, log_log=log_log))


def _write_stats(out: Path, dec: ChannelDecomposition, regime: str) -> dict:
    banks, channels, regimes, summaries = zip(*(row for row in dec.summaries() if regime in ("both", row[2])))
    measures = np.array([astuple(summary) for summary in summaries])  # el, var95, es95
    _write_csv(out / "risk_summary.csv", ["bank", "channel", "el", "var95", "es95", "regime"],
               [banks, channels, *measures.T, regimes])

    result = dec.result
    _write_csv(out / "amplification.csv", ["scenario_id", "bank_id", "ib_wo", "ib_w", "ratio"], [
        *_pairs(result), result.ib_wo.ravel(), result.ib_w.ravel(), _ratio(result.ib_w, result.ib_wo).ravel(),
    ])

    x, y = result.ib_wo, result.ib_w
    defined = x > 0.0
    per_bank = {bank: _fit(x[:, k], y[:, k], defined[:, k]) for k, bank in enumerate(result.bank_ids)}
    fits = {
        "pooled": _fit(x, y, defined),
        "pooled_log": _fit(x, y, defined & (y > 0.0), log_log=True),
        "per_bank": {bank: fit for bank, fit in per_bank.items() if fit is not None},
        # banks that never see interbank losses (e.g. no interbank edges)
        "skipped_banks": [bank for bank, fit in per_bank.items() if fit is None],
    }
    with open(out / "fits.json", "w", encoding="utf-8") as fh:
        json.dump(fits, fh, indent=2, sort_keys=True)
        fh.write("\n")

    try:
        amp = ib_amplification(result.ib_wo, result.ib_w)
        curve = (amp.pooled_levels, amp.pooled_survival)
    except ValueError:  # no interbank loss anywhere: no ratio is defined
        curve = (np.zeros(0), np.zeros(0))
    _write_ccdf(out, {"ib_amplification": curve})
    return {"amplification_defined": int(defined.sum()), "amplification_undefined": int((~defined).sum())}


def cmd_stress(config: dict) -> int:
    graph = _economy_from_config(config)
    cfg = _propagation_config(config)
    dr_epsilon, dr_max_iter = _debtrank_settings(config)
    workers = _workers(config)
    batch = _batch_from_config(config, graph)
    trace = config["trace"]
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    result = run_batch(
        graph, batch, cfg, dr_epsilon=dr_epsilon, dr_max_iter=dr_max_iter, workers=workers,
        defaults=out / "defaults.csv" if trace else None,
    )
    dec = ChannelDecomposition(result)
    _write_ledgers(out, result)
    stats_extra = _write_stats(out, dec, config["regime"])

    ids = np.asarray(result.scenario_ids)
    convergence = {"residual_sectors": len(batch.residuals), "complete": result.all_converged}
    for stage, failed in (("sc", ~result.sc_converged), ("debtrank_wo", ~result.dr_wo_converged),
                          ("debtrank_w", ~result.dr_w_converged)):
        convergence[f"{stage}_failures"] = int(failed.sum())
        convergence[f"{stage}_failed_scenarios"] = ids[failed].tolist()
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
    epsilon, max_iter = _debtrank_settings(config)
    profile = debtrank_profile(graph, epsilon=epsilon, max_iter=max_iter, record_trace=config["trace"])
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "debtrank.csv", ["bank_id", "total", "contagion_only"],
               [profile.bank_ids, profile.total, profile.contagion_only])
    if config["trace"]:
        run = profile.run  # row k seeds bank k's full default
        for k, bank_id in enumerate(graph.bank_ids):
            trace = run.trace[: run.steps[k] + 1, k]  # the seed, then each update
            # percent-encoded, so an id holding "/" names no directory; letters, digits and -_.~ stay as they are
            _write_csv(out / f"debtrank_trace_{quote(bank_id, safe='')}.csv", ["iteration", "bank_id", "loss"], [
                np.repeat(np.arange(len(trace)), graph.m), graph.bank_ids * len(trace), trace.ravel()])
    _write_manifest(out, "debtrank", config, {"banks": graph.m, "outputs": ["debtrank.csv"]})
    print(f"wrote full-default impact profile for {graph.m} banks to {out}")
    return EXIT_OK


def _ledger_rows(b: Block, seen: dict) -> dict[tuple[int, str], tuple[float, ...]]:
    keys = list(zip(b.numbers("scenario_id", int), b.text("bank_id")))
    r = first_repeat(keys, seen)
    if r is not None:
        raise RowError(r, f"second row for scenario {keys[r][0]} and bank {keys[r][1]!r}")
    names = LEDGER_COLUMNS[2:6]
    losses = np.array([b.floats(c) for c in names])
    bad = ~(np.isfinite(losses) & (losses >= 0.0))
    if bad.any():
        r = int(np.flatnonzero(bad.any(axis=0))[0])
        c = names[int(np.argmax(bad[:, r]))]
        raise RowError(r, f"column {c} is {b.cells[c][r].strip()}, not a finite loss >= 0")
    di, sc, ib_wo, ib_w = losses  # each total is its row's channels clamped as _write_ledgers does
    levels = BankLossLedger(di=di, sc=sc).levels(ib_wo, ib_w)
    for c, total in zip(LEDGER_COLUMNS[6:], (levels["di_ib"], levels["di_sc_ib"])):
        wrong = np.flatnonzero(b.floats(c) != total)
        if wrong.size:
            r = int(wrong[0])
            raise RowError(r, f"column {c} is {b.cells[c][r].strip()}, not {float(total[r])} from the row's channels")
    return dict(zip(keys, zip(*losses.tolist())))


def cmd_report(config: dict, ledgers: str) -> int:
    path = Path(ledgers)
    cells: dict[tuple[int, str], tuple[float, ...]] = {}
    for block in read_blocks(path, LEDGER_COLUMNS):
        cells.update(block.convert(lambda b: _ledger_rows(b, cells)))
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

# each flag: its name, its config path (the argparse dest) and its argparse settings
FLAGS = (
    ("--out", "out", {"help": "output directory"}),
    ("--workers", "workers", {"type": int, "help": "scenario worker threads (0 = the usable CPUs)"}),
    ("--seed", "scenarios.seed", {"type": int, "help": "scenario RNG seed"}),
    ("--regime", "regime", {"choices": REGIMES, "help": "which regimes to report"}),
    ("--trace", "trace", {"action": "store_const", "const": True, "help": "write iteration/default dumps"}),
    ("--economy-dir", "economy.dir", {"help": "directory with economy CSV files"}),
    ("--synthetic", "economy.source", {"action": "store_const", "const": "synthetic",
                                       "help": "generate a synthetic economy"}),
    ("--n", "economy.n", {"type": int, "help": "synthetic economy: firm count"}),
    ("--m", "economy.m", {"type": int, "help": "synthetic economy: bank count"}),
    ("--ratio", "economy.target_exposure_ratio", {"type": float, "help": "synthetic economy: target exposure ratio"}),
    ("--economy-seed", "economy.seed", {"type": int, "help": "synthetic economy RNG seed"}),
    ("--epsilon", "propagation.epsilon", {"type": float, "help": "propagation convergence tolerance"}),
    ("--sigma", "propagation.nonessential_weight", {"type": float, "help": "non-essential input weight in [0, 1]"}),
    ("--essentiality", "propagation.essentiality", {"help": "essentiality.csv path"}),
)
STRESS_FLAGS = (
    ("--count", "scenarios.count", {"type": int, "help": "number of scenarios"}),
    ("--shocks", "scenarios.shocks", {"help": "empirical shock table CSV, or 'synthetic'"}),
    ("--batch-file", "scenarios.batch_file", {"help": "long-format shock batch CSV"}),
    ("--single-firm", "scenarios.kind", {"action": "store_const", "const": "single-firm",
                                         "help": "sweep single-firm failure scenarios instead"}),
)
# a flag given at the first path also sets the second, unless a later row (--synthetic, --single-firm) does
IMPLIED = {"economy.dir": ("economy.source", "files"), "scenarios.batch_file": ("scenarios.kind", "file")}

# each subcommand: its help text, its handler and the flags it takes besides FLAGS
COMMANDS = {
    "validate": ("validate economy files", cmd_validate, ()),
    "generate": ("generate a synthetic economy as CSV files", cmd_generate, ()),
    "fsri": ("per-firm systemic risk profile (single-firm sweep)", cmd_fsri, ()),
    "stress": ("run a scenario batch through the full pipeline", cmd_stress, STRESS_FLAGS),
    "debtrank": ("per-bank full-default impact profile", cmd_debtrank, ()),
    "report": ("recompute statistics from dumped ledgers", cmd_report,
               (("--ledgers", "ledgers", {"required": True, "help": "ledgers.csv from a stress run"}),)),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with :data:`EXIT_IO`; argparse's own code, 2, is
    the code of a convergence failure. Its subcommand parsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netstress",
        description="supply-chain and interbank network stress-testing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, extra) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name, path, settings in FLAGS + extra:
            if "action" not in settings and "choices" not in settings:  # as if dest were the flag's name
                settings = {"metavar": name[2:].replace("-", "_").upper(), **settings}
            p.add_argument(name, dest=path, **settings)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = COMMANDS[args.command][1]
    try:
        config = _apply_overrides(_load_config(args.config), args)
        return handler(config, args.ledgers) if args.command == "report" else handler(config)
    except EconomyValidationError as exc:
        print(f"validation error:\n{exc.report}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ReferentialError, InvalidRowError) as exc:
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
