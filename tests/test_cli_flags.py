"""How the command line's flags map onto the resolved configuration.

Each flag is given alone on every subcommand that takes it, against the
defaults and against a config file that moves every value a flag sets;
the resolved configuration must differ from that base at exactly the
flag's config path, plus the data source or scenario kind the flag
implies. The precedence rules between flags are pinned as well.
"""

from __future__ import annotations

import argparse
import json

import pytest

from netstress import cli

# flag -> (its arguments, the config paths it sets and the values they get)
COMMON = {
    "--out": (["runs/x"], {"out": "runs/x"}),
    "--workers": (["0"], {"workers": 0}),
    "--seed": (["5"], {"scenarios.seed": 5}),
    "--regime": (["wo"], {"regime": "wo"}),
    "--trace": ([], {"trace": True}),
    "--economy-dir": (["eco"], {"economy.dir": "eco", "economy.source": "files"}),
    "--synthetic": ([], {"economy.source": "synthetic"}),
    "--n": (["0"], {"economy.n": 0}),
    "--m": (["2"], {"economy.m": 2}),
    "--ratio": (["2.5"], {"economy.target_exposure_ratio": 2.5}),
    "--economy-seed": (["4"], {"economy.seed": 4}),
    "--epsilon": (["0.5"], {"propagation.epsilon": 0.5}),
    "--sigma": (["0.25"], {"propagation.nonessential_weight": 0.25}),
    "--essentiality": (["ess.csv"], {"propagation.essentiality": "ess.csv"}),
}
STRESS = {
    "--count": (["9"], {"scenarios.count": 9}),
    "--shocks": (["shocks.csv"], {"scenarios.shocks": "shocks.csv"}),
    "--batch-file": (["batch.csv"], {"scenarios.batch_file": "batch.csv", "scenarios.kind": "file"}),
    "--single-firm": ([], {"scenarios.kind": "single-firm"}),
}
NOT_CONFIG = {"-h", "--help", "--config", "--ledgers"}
COMMANDS = ("validate", "generate", "fsri", "stress", "debtrank", "report")
NUMERIC = ("--workers", "--seed", "--n", "--m", "--ratio", "--economy-seed", "--epsilon", "--sigma", "--count")
STRINGS = ("--out", "--economy-dir", "--essentiality", "--shocks", "--batch-file")

# a base in which every value a flag sets, implied ones included, is something else
MOVED = {"economy": {"source": "synthetic"}, "propagation": {"nonessential_weight": 0.5}, "workers": 2}


def flags(command: str) -> dict:
    return {**COMMON, **(STRESS if command == "stress" else {})}


def leaves(config: dict, prefix: str = "") -> dict:
    """The config as ``{dotted.path: value}``, one entry per non-section value."""
    flat = {}
    for key, value in config.items():
        if isinstance(value, dict):
            flat.update(leaves(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.fixture(params=["defaults", "moved"])
def base(request, tmp_path):
    """``(config path or None, the loaded config)`` for a base to apply flags to."""
    if request.param == "defaults":
        return None, cli._load_config(None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MOVED))
    return str(path), cli._load_config(str(path))


def resolve(config_path, command: str, *argv: str) -> dict:
    extra = ["--ledgers", "ledgers.csv"] if command == "report" else []
    if config_path:
        extra += ["--config", config_path]
    args = cli._build_parser().parse_args([command, *argv, *extra])
    return leaves(cli._apply_overrides(cli._load_config(config_path), args))


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def test_every_subcommand_takes_the_common_flags_with_one_help_text():
    helps = {}
    for command, parser in subcommands().items():
        options = {option: action.help for action in parser._actions for option in action.option_strings}
        assert set(options) - NOT_CONFIG == set(flags(command)), command
        assert ("--ledgers" in options) == (command == "report"), command
        helps[command] = {option: options[option] for option in COMMON}
    assert set(helps) == set(COMMANDS)
    assert all(h == helps["validate"] for h in helps.values())


@pytest.mark.parametrize("command", COMMANDS)
def test_each_flag_sets_its_path_and_no_other(base, command):
    config_path, config = base
    for flag, (argv, expected) in flags(command).items():
        assert resolve(config_path, command, flag, *argv) == {**leaves(config), **expected}, flag


def test_every_path_a_flag_sets_moves_against_one_base(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MOVED))
    bases = [leaves(cli._load_config(None)), leaves(cli._load_config(str(path)))]
    for flag, (_, expected) in flags("stress").items():
        moved = {p for p, value in expected.items() for b in bases if b[p] != value}
        assert moved == set(expected), flag


@pytest.mark.parametrize("argv", [
    ["--economy-dir", "eco", "--synthetic"],
    ["--synthetic", "--economy-dir", "eco"],
])
def test_synthetic_beats_the_source_economy_dir_implies(base, argv):
    resolved = resolve(base[0], "stress", *argv)
    assert (resolved["economy.source"], resolved["economy.dir"]) == ("synthetic", "eco")


@pytest.mark.parametrize("argv", [
    ["--batch-file", "b.csv", "--single-firm"],
    ["--single-firm", "--batch-file", "b.csv"],
])
def test_single_firm_beats_the_kind_batch_file_implies(base, argv):
    resolved = resolve(base[0], "stress", *argv)
    assert (resolved["scenarios.kind"], resolved["scenarios.batch_file"]) == ("single-firm", "b.csv")


@pytest.mark.parametrize("flag", STRINGS)
def test_an_empty_string_flag_is_ignored(base, flag):
    config_path, config = base
    assert resolve(config_path, "stress", flag, "") == leaves(config)


@pytest.mark.parametrize("flag", NUMERIC)
def test_a_numeric_zero_is_applied(tmp_path, flag):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MOVED))
    (target,) = flags("stress")[flag][1]
    assert leaves(cli._load_config(str(path)))[target] != 0
    assert resolve(str(path), "stress", flag, "0")[target] == 0


def test_generate_always_writes_a_synthetic_economy(tmp_path):
    out = tmp_path / "economy"
    assert cli.main(["generate", "--economy-dir", str(tmp_path / "eco"), "--n", "30", "--m", "3",
                     "--out", str(out)]) == 0
    economy = json.loads((out / "manifest.json").read_text())["config"]["economy"]
    assert (economy["source"], economy["dir"]) == ("synthetic", str(tmp_path / "eco"))


# (option string, dest, metavar, help, type, choices, const) of each option every subcommand takes
PARSER_OPTIONS = {
    ("-h", "help", None, "show this help message and exit", None, None, None),
    ("--help", "help", None, "show this help message and exit", None, None, None),
    ("--config", "config", None, "JSON config file; flags override it", None, None, None),
    ("--out", "out", "OUT", "output directory", None, None, None),
    ("--workers", "workers", "WORKERS", "scenario worker threads (0 = the usable CPUs)", int, None, None),
    ("--seed", "scenarios.seed", "SEED", "scenario RNG seed", int, None, None),
    ("--regime", "regime", None, "which regimes to report", None, ("w", "wo", "both"), None),
    ("--trace", "trace", None, "write iteration/default dumps", None, None, True),
    ("--economy-dir", "economy.dir", "ECONOMY_DIR", "directory with economy CSV files", None, None, None),
    ("--synthetic", "economy.source", None, "generate a synthetic economy", None, None, "synthetic"),
    ("--n", "economy.n", "N", "synthetic economy: firm count", int, None, None),
    ("--m", "economy.m", "M", "synthetic economy: bank count", int, None, None),
    ("--ratio", "economy.target_exposure_ratio", "RATIO", "synthetic economy: target exposure ratio", float, None,
     None),
    ("--economy-seed", "economy.seed", "ECONOMY_SEED", "synthetic economy RNG seed", int, None, None),
    ("--epsilon", "propagation.epsilon", "EPSILON", "propagation convergence tolerance", float, None, None),
    ("--sigma", "propagation.nonessential_weight", "SIGMA", "non-essential input weight in [0, 1]", float, None, None),
    ("--essentiality", "propagation.essentiality", "ESSENTIALITY", "essentiality.csv path", None, None, None),
}
# the options one subcommand takes besides those
PARSER_EXTRA = {
    "stress": {
        ("--count", "scenarios.count", "COUNT", "number of scenarios", int, None, None),
        ("--shocks", "scenarios.shocks", "SHOCKS", "empirical shock table CSV, or 'synthetic'", None, None, None),
        ("--batch-file", "scenarios.batch_file", "BATCH_FILE", "long-format shock batch CSV", None, None, None),
        ("--single-firm", "scenarios.kind", None, "sweep single-firm failure scenarios instead", None, None,
         "single-firm"),
    },
    "report": {("--ledgers", "ledgers", "LEDGERS", "ledgers.csv from a stress run", None, None, None)},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_the_parser_builds_the_pinned_options(command):
    parser = subcommands()[command]
    built = {(option, a.dest, a.metavar, a.help, a.type, a.choices, a.const)
             for a in parser._actions for option in a.option_strings}
    assert built == PARSER_OPTIONS | PARSER_EXTRA.get(command, set())
