"""Fuzz the CLI's file boundary with one-cell mutations of the toy inputs
and one-key mutations of a config file run through ``stress`` and
``generate``.

Every mutated input must end in a documented exit code (0, 1 or 3) without
an exception escaping ``main``, and an economy that ``validate`` accepts
must also run through ``stress``. A mutated config may also end in 2 (a
tolerance or iteration cap that stops convergence).
"""

from __future__ import annotations

import ast
import copy
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstress.cli import _SYNTHETIC_FRACTIONS, DEFAULT_CONFIG, main

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"

SHOCKS = "firm_id,reduction\na,0.3\nd,0.5\nf,0.2\n"
BATCH = "scenario_id,firm_id,psi\n0,f,0.0\n0,a,1.0\n1,d,0.25\n1,b,0.5\n"
FILES = ("firms", "supply", "interbank", "loans", "banks", "shocks", "batch")


def _mutate(text: str, mutation: str, row: int, col: int) -> str:
    lines = text.splitlines()
    cells = lines[row % len(lines)].split(",")
    col %= len(cells)
    if mutation == "drop":
        del cells[col]
    elif mutation == "duplicate":
        cells.insert(col, cells[col])
    else:
        cells[col] = {
            "corrupt": cells[col][:1] + "?x", "nan": "nan", "inf": "inf",
            "negative": "-5", "unknown-id": "zz",
        }[mutation]
    lines[row % len(lines)] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    target=st.sampled_from(FILES),
    mutation=st.sampled_from(
        ["drop", "duplicate", "corrupt", "nan", "inf", "negative", "unknown-id"]
    ),
    row=st.integers(0, 6),
    col=st.integers(0, 6),
)
def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path_factory, target, mutation, row, col):
    work = tmp_path_factory.mktemp("fuzz")
    eco = work / "eco"
    shutil.copytree(TOY, eco)
    inputs = {"shocks": work / "shocks.csv", "batch": work / "batch.csv"}
    inputs["shocks"].write_text(SHOCKS)
    inputs["batch"].write_text(BATCH)
    path = inputs.get(target, eco / f"{target}.csv")
    path.write_text(_mutate(path.read_text(), mutation, row, col))

    stress = ["stress", "--economy-dir", str(eco), "--count", "3", "--workers", "1",
              "--out", str(work / "run")]
    if target == "shocks":
        assert main(stress + ["--shocks", str(path)]) in (0, 1, 3)
    elif target == "batch":
        assert main(stress + ["--batch-file", str(path)]) in (0, 1, 3)
    else:
        code = main(["validate", "--economy-dir", str(eco)])
        assert code in (0, 1, 3)
        if code == 0:
            assert main(stress) == 0


# (file, a pair with a row already, a pair without, the entity a violation names)
AMOUNT_ROWS = [
    ("loans", "a,1", "b,1", "firm:"),
    ("supply", "b,c", "a,b", "firm:"),
    ("interbank", "2,1", "3,1", "bank:"),
]


@pytest.mark.parametrize("value", ["-5.0", "nan", "inf"])
@pytest.mark.parametrize("pair", ["existing", "new"])
@pytest.mark.parametrize("name, existing, new, entity", AMOUNT_ROWS)
def test_bad_amount_row_is_named_by_its_line(tmp_path, capsys, name, existing, new, entity, pair, value):
    # a row is checked before duplicate rows are summed: a good row of the same pair hides nothing
    eco = tmp_path / "eco"
    shutil.copytree(TOY, eco)
    path = eco / f"{name}.csv"
    lines = path.read_text().splitlines()
    row = f"{existing if pair == 'existing' else new},{value}"
    path.write_text("\n".join(lines + [row]) + "\n")
    capsys.readouterr()
    assert main(["validate", "--economy-dir", str(eco)]) == 1
    (err,) = capsys.readouterr().err.strip().splitlines()
    assert f"{name}.csv line {len(lines) + 1}: {entity}{row.split(',')[0]}: " in err
    assert value in err


def test_zero_supply_weight_row_is_rejected(tmp_path, capsys):
    eco = tmp_path / "eco"
    shutil.copytree(TOY, eco)
    with open(eco / "supply.csv", "a") as fh:
        fh.write("b,c,0.0\n")
    assert main(["validate", "--economy-dir", str(eco)]) == 1
    assert "supply.csv line 8: firm:b: [edge-weight] weight is 0.0, must be finite and > 0" in capsys.readouterr().err


def _key_paths(config: dict, prefix: tuple = ()) -> list[tuple]:
    paths = []
    for key, value in config.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths += _key_paths(value, prefix + (key,))
    return paths


# the synthetic economy's optional keys, which DEFAULT_CONFIG does not list
CONFIG_KEYS = _key_paths(DEFAULT_CONFIG) + [
    ("economy", key) for key in ("weight_family", *_SYNTHETIC_FRACTIONS)
]
CONFIG_VALUES = ["null", "list", "string", "1e400", "-1", "object"]


# few enough pairs of key and value that the examples cover every one of them
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(CONFIG_KEYS), value=st.sampled_from(CONFIG_VALUES))
def test_mutated_config_ends_in_a_documented_exit_code(tmp_path_factory, key, value):
    work = tmp_path_factory.mktemp("config")
    config = copy.deepcopy(DEFAULT_CONFIG)
    config["economy"]["dir"] = str(TOY)
    config["scenarios"]["count"] = 3
    config["economy"].update(n=30, m=3)
    config["workers"] = 1
    config["out"] = str(work / "run")
    section = config
    for name in key[:-1]:
        section = section[name]
    section[key[-1]] = {
        "null": None, "list": [1, "x"], "string": str(work / "text"),
        "1e400": float("inf"), "-1": -1, "object": {"x": 1},
    }[value]
    path = work / "config.json"
    path.write_text(json.dumps(config).replace("Infinity", "1e400"))
    assert main(["stress", "--config", str(path)]) in (0, 1, 2, 3)
    # generate reads the synthetic economy's keys, which stress leaves alone
    assert main(["generate", "--config", str(path), "--out", str(work / "economy")]) in (0, 1, 3)


def test_only_the_tables_module_imports_csv():
    package = Path(__file__).resolve().parents[1] / "src" / "netstress"
    importers = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "csv" in names:
                importers.add(source.name)
    assert importers == {"tables.py"}
