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
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import NamedTuple
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
from .ingest import economy_files, load_economy, load_essentiality, write_economy
from .metrics import ChannelDecomposition, ccdf, fsri_profile, ib_amplification, ols_fit
from .pipeline import BatchResult, run_batch
from .propagation import PropagationConfig
from .scenarios import EmpiricalShockTable, ShockBatch, covid_style_batch, read_batch, single_firm_batch
from .synthetic import FRACTIONS as _SYNTHETIC_FRACTIONS
from .synthetic import WEIGHT_FAMILIES, SyntheticParams, generate_synthetic_economy, synthetic_shock_table
from .tables import Block, RowError, read_long, write_long
from .tables import write_columns as _write_csv  # the name benchmarks/tracing.py wraps

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3

LEDGER_COLUMNS = ["scenario_id", "bank_id", "di", "sc", "ib_wo", "ib_w", "total_wo", "total_w"]

REGIMES = ("w", "wo", "both")

_SYNTHETIC = SyntheticParams()
_PROPAGATION = PropagationConfig()


class Setting(NamedTuple):
    """One config path: what it holds and the flag that sets it; a new setting is one row of :data:`SETTINGS`.
    A manifest echoes a path with no default only where a config file sets it. SyntheticParams and
    PropagationConfig check their own ranges."""

    kind: type | tuple[str, ...]  # int or float (a number), str (a path), bool, or the tuple of words it may be
    default: object = ...  # ... leaves the path out of DEFAULT_CONFIG
    bound: tuple[str, float, float] | None = None  # the range the CLI owns: its text, lo and hi of lo < value <= hi
    null: bool = False  # the value may also be None
    flag: tuple[str, str] | None = None  # the option that sets the path, and its help text
    const: object = None  # the value the flag sets, where it takes none
    stress: bool = False  # only stress takes the flag
    implies: tuple[str, object] | None = None  # a path and value the flag sets too, unless a flag sets that path


_AT_LEAST_0 = (">= 0", -1, np.inf)
_AT_LEAST_1 = (">= 1", 0, np.inf)

# each config path, in the order its value is checked; a key a section leaves out is not read
SETTINGS = {
    "economy.source": Setting(("files", "synthetic"), "files", flag=("--synthetic", "generate a synthetic economy"),
                              const="synthetic"),
    "economy.dir": Setting(str, ".", flag=("--economy-dir", "directory with economy CSV files"),
                           implies=("economy.source", "files")),
    "economy.lgd": Setting(float, 1.0, ("in (0, 1]", 0.0, 1.0)),
    "economy.seed": Setting(int, 7, _AT_LEAST_0, flag=("--economy-seed", "synthetic economy RNG seed")),
    "economy.n": Setting(int, _SYNTHETIC.n, flag=("--n", "synthetic economy: firm count")),
    "economy.m": Setting(int, _SYNTHETIC.m, flag=("--m", "synthetic economy: bank count")),
    "economy.sector_count": Setting(int, _SYNTHETIC.sector_count),
    "economy.mean_degree": Setting(float, _SYNTHETIC.mean_degree),
    **{f"economy.{key}": Setting(float) for key in _SYNTHETIC_FRACTIONS},
    "economy.target_exposure_ratio": Setting(float, _SYNTHETIC.target_exposure_ratio, null=True,
                                             flag=("--ratio", "synthetic economy: target exposure ratio")),
    "economy.weight_family": Setting(WEIGHT_FAMILIES),
    "scenarios.kind": Setting(("covid", "single-firm", "file"), "covid", const="single-firm", stress=True,
                              flag=("--single-firm", "sweep single-firm failure scenarios instead")),
    "scenarios.count": Setting(int, 100, _AT_LEAST_1, flag=("--count", "number of scenarios"), stress=True),
    "scenarios.seed": Setting(int, 11, _AT_LEAST_0, flag=("--seed", "scenario RNG seed")),
    "scenarios.shocks": Setting(str, "synthetic", flag=("--shocks", "empirical shock table CSV, or 'synthetic'"),
                                stress=True),
    "scenarios.shocks_seed": Setting(int, 3, _AT_LEAST_0),
    "scenarios.batch_file": Setting(str, None, null=True, flag=("--batch-file", "long-format shock batch CSV"),
                                    stress=True, implies=("scenarios.kind", "file")),
    "propagation.epsilon": Setting(float, _PROPAGATION.epsilon,
                                   flag=("--epsilon", "propagation convergence tolerance")),
    "propagation.max_iter": Setting(int, _PROPAGATION.max_iter),
    "propagation.nonessential_weight": Setting(float, _PROPAGATION.nonessential_weight,
                                               flag=("--sigma", "non-essential input weight in [0, 1]")),
    "propagation.essentiality": Setting(str, None, null=True, flag=("--essentiality", "essentiality.csv path")),
    "debtrank.epsilon": Setting(float, DEFAULT_EPSILON, ("finite and > 0", 0.0, sys.float_info.max)),
    "debtrank.max_iter": Setting(int, DEFAULT_MAX_ITER, _AT_LEAST_1),
    "regime": Setting(REGIMES, "both", flag=("--regime", "which regimes to report")),
    "workers": Setting(int, 0, flag=("--workers", "scenario worker threads (0 = the usable CPUs)")),
    "out": Setting(str, "out", flag=("--out", "output directory")),
    "trace": Setting(bool, False, flag=("--trace", "write iteration/default dumps"), const=True),
}
_SECTIONS = {path.rpartition(".")[0] for path in SETTINGS} - {""}


def _set(config: dict, path: str, value) -> None:
    name, _, key = path.rpartition(".")
    (config.setdefault(name, {}) if name else config)[key] = value


def _load_config(path: str | None) -> dict:
    """The defaults with the JSON file at ``path`` set over them. A top level or section that is not an object
    is an input error, and so is a key that is not a setting; :func:`_read_settings` checks the values."""
    config: dict = {}
    for name, setting in SETTINGS.items():
        if setting.default is not ...:
            _set(config, name, setting.default)
    if not path:
        return config
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8 or an integer past Python's digit limit
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(user, dict):
        raise DataFormatError(f"{path}: the top level must be a JSON object")
    for key, value in user.items():
        if key in _SECTIONS and not isinstance(value, dict):
            raise DataFormatError(f"{path}: {key!r} must be a JSON object")
        leaves = {f"{key}.{k}": v for k, v in value.items()} if key in _SECTIONS else {key: value}
        for name, leaf in leaves.items():
            if name not in SETTINGS or "." in key:  # a dotted key at the top level names no setting
                raise DataFormatError(f"{name} is not a setting")
            _set(config, name, leaf)
    return config


DEFAULT_CONFIG = _load_config(None)


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    """Set each flag given on the command line at its config path, after the settings the flags given imply, so
    that a flag beats an implied value (``--synthetic`` the source ``--economy-dir`` implies). A flag left out
    is ``None``; an empty string counts as left out."""
    given = {path: value for path in SETTINGS if (value := getattr(args, path, None)) is not None and value != ""}
    implied = [SETTINGS[path].implies for path in given if SETTINGS[path].implies]
    for path, value in [*implied, *given.items()]:
        _set(config, path, value)
    return config


def _read(path: str, value, setting: Setting):
    """``value`` as the setting at ``path`` holds it; a value it cannot hold is an input error."""
    kind = setting.kind
    if kind is int or kind is float:
        # int() would truncate a fraction, and float() would read a boolean as 0 or 1
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise DataFormatError(f"{path} must be {'a whole number' if kind is int else 'a number'}, got {value!r}")
        try:
            value = kind(value)
        except OverflowError:  # an int past the largest float
            raise DataFormatError(f"{path} must be a number, got {value!r}") from None
        if setting.bound is not None and not setting.bound[1] < value <= setting.bound[2]:
            raise DataFormatError(f"{path} must be {setting.bound[0]}, got {value!r}")
    elif kind is str or kind is bool:
        if not isinstance(value, kind):
            raise DataFormatError(f"{path} must be {'a string' if kind is str else 'true or false'}, got {value!r}")
    elif value not in kind:
        raise DataFormatError(f"{path} must be one of {', '.join(kind)}, got {value!r}")
    return value


def _read_settings(config: dict) -> dict:
    """Read each setting of ``config`` in place, as :data:`SETTINGS` says it holds (a whole float
    where an int is due becomes that int); the first bad value raises :class:`DataFormatError`."""
    for path, setting in SETTINGS.items():
        name, _, key = path.rpartition(".")
        section = config[name] if name else config
        if key in section and not (section[key] is None and setting.null):
            section[key] = _read(path, section[key], setting)
    if config["scenarios"]["kind"] == "file" and config["scenarios"]["batch_file"] is None:
        raise DataFormatError("scenarios.batch_file must be a path string where scenarios.kind is file, got None")
    return config


def _built(cls, section: dict):
    """``cls`` built from the fields ``section`` holds; a value out of the range it checks is an input error."""
    try:
        return cls(**{f.name: section[f.name] for f in fields(cls) if f.name in section})
    except ValueError as exc:
        raise DataFormatError(f"{cls.__name__}: {exc}") from exc


def _economy_from_config(config: dict) -> EconomyGraph:
    eco = config["economy"]
    if eco["source"] == "synthetic":
        graph = generate_synthetic_economy(_built(SyntheticParams, eco), seed=eco["seed"])
    else:
        graph = load_economy(economy_files(eco["dir"]))
    graph.loans.lgd = eco["lgd"]
    ess_path = config["propagation"]["essentiality"]
    if ess_path:
        graph.essentiality = load_essentiality(ess_path)
    return graph


def _batch_from_config(config: dict, graph: EconomyGraph) -> ShockBatch:
    spec = config["scenarios"]
    if spec["kind"] == "single-firm":
        return single_firm_batch(graph)
    if spec["kind"] == "file":
        return read_batch(graph, spec["batch_file"])
    if spec["shocks"] == "synthetic":
        table = synthetic_shock_table(graph, seed=spec["shocks_seed"])
    else:
        table = EmpiricalShockTable.from_csv(spec["shocks"])
    return covid_style_batch(graph, table, count=spec["count"], seed=spec["seed"])


def _workers(config: dict) -> int:
    """The configured worker count; 0 or less means the CPUs this process may
    run on (its affinity mask, which ``taskset`` and cpusets narrow)."""
    if config["workers"] > 0:
        return config["workers"]
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
    try:
        _economy_from_config(config)
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
    outputs = [path.name for path in astuple(economy_files(out)) if path is not None]
    # building the graph validated it: an invalid economy raised before here
    _write_manifest(out, "generate", config, {"n": graph.n, "m": graph.m, "valid": True, "outputs": outputs})
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
    dr = config["debtrank"]
    base, plus = fsri_profile(graph, _built(PropagationConfig, config["propagation"]),
                              dr_epsilon=dr["epsilon"], dr_max_iter=dr["max_iter"])
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


def _write_ledgers(out: Path, result: BatchResult) -> None:
    losses = ChannelDecomposition(result).channel_losses()
    write_long(out / "ledgers.csv", LEDGER_COLUMNS, result.scenario_ids, result.bank_ids, [
        (result.di, result.sc, result.ib_wo, result.ib_w, losses["di_ib"], losses["di_sc_ib"])])


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
    write_long(out / "amplification.csv", ["scenario_id", "bank_id", "ib_wo", "ib_w", "ratio"],
               result.scenario_ids, result.bank_ids, [(result.ib_wo, result.ib_w, _ratio(result.ib_w, result.ib_wo))])

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
    cfg = _built(PropagationConfig, config["propagation"])
    dr = config["debtrank"]
    batch = _batch_from_config(config, graph)
    trace = config["trace"]
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    result = run_batch(
        graph, batch, cfg, dr_epsilon=dr["epsilon"], dr_max_iter=dr["max_iter"], workers=_workers(config),
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
    dr = config["debtrank"]
    profile = debtrank_profile(graph, epsilon=dr["epsilon"], max_iter=dr["max_iter"], record_trace=config["trace"])
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "debtrank.csv", ["bank_id", "total", "contagion_only"],
               [profile.bank_ids, profile.total, profile.contagion_only])
    outputs = ["debtrank.csv"]
    if config["trace"]:
        run = profile.run  # row k seeds bank k's full default
        for k, bank_id in enumerate(graph.bank_ids):
            trace = run.trace[: run.steps[k] + 1, k]  # the seed, then each update
            # percent-encoded, so an id holding "/" names no directory; letters, digits and -_.~ stay as they are
            outputs.append(f"debtrank_trace_{quote(bank_id, safe='')}.csv")
            write_long(out / outputs[-1], ["iteration", "bank_id", "loss"], range(len(trace)), graph.bank_ids,
                       [(trace,)])
    _write_manifest(out, "debtrank", config, {"banks": graph.m, "outputs": outputs})
    print(f"wrote full-default impact profile for {graph.m} banks to {out}")
    return EXIT_OK


def _ledger_losses(b: Block) -> np.ndarray:
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
    return losses


def cmd_report(config: dict, ledgers: str) -> int:
    path = Path(ledgers)
    scenarios, bank_ids, filled, losses = read_long(path, LEDGER_COLUMNS, _ledger_losses)
    if not scenarios:
        raise DataFormatError(f"{path}: no ledgers found")
    if not filled.all():
        si, k = np.argwhere(~filled)[0]
        raise DataFormatError(f"{path}: no row for scenario {scenarios[si]} and bank {bank_ids[k]!r}")
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

# each subcommand: its help text and its handler
COMMANDS = {
    "validate": ("validate economy files", cmd_validate),
    "generate": ("generate a synthetic economy as CSV files", cmd_generate),
    "fsri": ("per-firm systemic risk profile (single-firm sweep)", cmd_fsri),
    "stress": ("run a scenario batch through the full pipeline", cmd_stress),
    "debtrank": ("per-bank full-default impact profile", cmd_debtrank),
    "report": ("recompute statistics from dumped ledgers", cmd_report),
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
    for command, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for path, setting in SETTINGS.items():
            if setting.flag is None or (setting.stress and command != "stress"):
                continue
            name, flag_help = setting.flag
            if setting.const is not None:
                settings = {"action": "store_const", "const": setting.const}
            elif isinstance(setting.kind, tuple):
                settings = {"choices": setting.kind}
            else:  # the metavar as if dest were the flag's name; a path is a str, which argparse gives anyway
                settings = {"type": None if setting.kind is str else setting.kind,
                            "metavar": name[2:].replace("-", "_").upper()}
            p.add_argument(name, dest=path, help=flag_help, **settings)
        if command == "report":
            p.add_argument("--ledgers", required=True, metavar="LEDGERS", help="ledgers.csv from a stress run")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = COMMANDS[args.command][1]
    try:
        config = _read_settings(_apply_overrides(_load_config(args.config), args))
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
