"""Command-line interface: subcommands, outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import math
import sys

import pytest

from netstress import cli, economy_files, load_economy, write_economy
from netstress.cli import main

from .builders import ring_economy, toy_economy
from .conftest import DATA_DIR
from .test_cli_flags import COMMANDS, leaves

debtrank_module = sys.modules["netstress.debtrank"]  # the package's own name debtrank is the function


def run(argv) -> int:
    return main(argv)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_clean_fixture_exits_zero(self, toy_dir, capsys):
        assert run(["validate", "--economy-dir", str(toy_dir)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invariant_violation_exits_one(self, toy_dir, tmp_path, capsys):
        for name in ("firms", "supply", "interbank", "loans"):
            (tmp_path / f"{name}.csv").write_text((toy_dir / f"{name}.csv").read_text())
        (tmp_path / "banks.csv").write_text("id,tier1_equity\n1,200\n2,150\n3,-100\n4,100\n")
        assert run(["validate", "--economy-dir", str(tmp_path)]) == 1
        assert "bank:3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "stress"])
    def test_economy_without_banks_is_a_violation(self, toy_dir, tmp_path, capsys, command):
        eco, out = tmp_path / "economy", tmp_path / "run"
        eco.mkdir()
        for name in ("firms", "supply", "banks", "loans", "interbank"):
            lines = (toy_dir / f"{name}.csv").read_text().splitlines(keepends=True)
            (eco / f"{name}.csv").write_text("".join(lines if name in ("firms", "supply") else lines[:1]))
        extra = ["--count", "3", "--workers", "1", "--out", str(out)] if command == "stress" else []
        assert run([command, "--economy-dir", str(eco), *extra]) == 1
        err = capsys.readouterr().err
        assert "1 violation(s)" in err and "banks: [empty]" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exits_three(self, tmp_path):
        assert run(["validate", "--economy-dir", str(tmp_path)]) == 3

    def test_synthetic_economy_is_built_and_checked(self, capsys):
        assert run(["validate", "--synthetic", "--n", "50", "--m", "4"]) == 0
        assert "economy valid" in capsys.readouterr().out

    def test_essentiality_table_is_read(self, toy_dir, tmp_path, capsys):
        table = tmp_path / "essentiality.csv"
        table.write_text("supplier_sector,buyer_sector,essential\n10,10,2\n")
        assert run(["validate", "--economy-dir", str(toy_dir), "--essentiality", str(table)]) == 3
        assert "essential must be 0 or 1, got '2'" in one_line_error(capsys)

    @pytest.mark.parametrize("command, code", [
        (["fsri"], 3), (["stress", "--single-firm", "--workers", "1"], 3), (["debtrank"], 0),
    ])
    def test_economy_without_firms(self, toy_dir, tmp_path, capsys, command, code):
        eco, out = tmp_path / "economy", tmp_path / "run"
        eco.mkdir()
        for name in ("firms", "supply", "banks", "loans", "interbank"):
            lines = (toy_dir / f"{name}.csv").read_text().splitlines(keepends=True)
            (eco / f"{name}.csv").write_text("".join(lines if name in ("banks", "interbank") else lines[:1]))
        assert run([*command, "--economy-dir", str(eco), "--out", str(out)]) == code
        if code:
            assert "no firms" in one_line_error(capsys)


class TestGenerate:
    def test_generate_then_validate(self, tmp_path):
        out = tmp_path / "economy"
        assert run([
            "generate", "--n", "80", "--m", "5", "--economy-seed", "3",
            "--ratio", "10.0", "--out", str(out),
        ]) == 0
        assert run(["validate", "--economy-dir", str(out)]) == 0

    def test_generate_deterministic(self, tmp_path):
        args = ["generate", "--n", "50", "--m", "4", "--economy-seed", "9"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("firms", "supply", "interbank", "loans", "banks"):
            assert (tmp_path / "a" / f"{name}.csv").read_text() == \
                   (tmp_path / "b" / f"{name}.csv").read_text()

    def test_generate_over_an_earlier_economy(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"economy": {"essential_fraction": 0.5}}))
        args = ["generate", "--n", "200", "--m", "4"]
        assert run([*args, "--config", str(config), "--out", str(tmp_path / "eco")]) == 0
        assert (tmp_path / "eco" / "essentiality.csv").exists()
        for out in ("eco", "fresh"):  # the defaults have no essentiality table to write
            assert run([*args, "--out", str(tmp_path / out)]) == 0
        again, fresh = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("eco", "fresh"))
        assert again.keys() == fresh.keys() and again["firms.csv"] == fresh["firms.csv"]
        assert load_economy(economy_files(tmp_path / "eco")).essentiality.overrides == {}


class TestFsri:
    def test_profile_has_one_row_per_firm(self, toy_dir, tmp_path):
        out = tmp_path / "fsri"
        assert run(["fsri", "--economy-dir", str(toy_dir), "--out", str(out)]) == 0
        rows = read_rows(out / "fsri_profile.csv")
        assert len(rows) == 6
        assert {r["firm_id"] for r in rows} == {"a", "b", "c", "d", "e", "f"}
        assert (out / "ccdf.csv").exists() and (out / "manifest.json").exists()

    @pytest.mark.parametrize("economy", [toy_economy, ring_economy])
    def test_rank_order_by_descending_fsri_then_firm_order(self, tmp_path, economy):
        g = economy()
        write_economy(g, tmp_path / "economy")
        out = tmp_path / "fsri"
        assert run(["fsri", "--economy-dir", str(tmp_path / "economy"), "--out", str(out)]) == 0
        rows = read_rows(out / "fsri_profile.csv")
        assert [int(r["rank"]) for r in rows] == list(range(1, g.n + 1))
        keys = [(-float(r["fsri"]), g.firm_index[r["firm_id"]]) for r in rows]
        assert keys == sorted(keys) and len(set(keys)) == g.n
        if economy is ring_economy:  # every firm ties: the rows come in firm order
            assert len({key for key, _ in keys}) == 1 and [r["firm_id"] for r in rows] == g.firm_ids


class TestStress:
    def test_single_firm_sweep_outputs(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        assert run([
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--out", str(out), "--workers", "1",
        ]) == 0
        ledgers = read_rows(out / "ledgers.csv")
        assert len(ledgers) == 6 * 4
        summary = read_rows(out / "risk_summary.csv")
        assert len(summary) == (1 + 4) * 4  # system + banks, four channels
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["sc_failures"] == 0
        assert (out / "amplification.csv").exists()
        assert (out / "fits.json").exists()

    def test_synthetic_batch_shapes(self, tmp_path):
        out = tmp_path / "run"
        assert run([
            "stress", "--synthetic", "--n", "120", "--m", "19", "--economy-seed", "5",
            "--count", "40", "--seed", "11", "--out", str(out), "--workers", "1",
        ]) == 0
        summary = read_rows(out / "risk_summary.csv")
        assert len(summary) == (1 + 19) * 4
        banks = {r["bank"] for r in summary}
        assert "system" in banks and len(banks) == 20
        channels = {(r["channel"], r["regime"]) for r in summary}
        assert channels == {("di", "wo"), ("di_sc", "w"), ("di_ib", "wo"), ("di_sc_ib", "w")}

    def test_regime_flag_filters_channels(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        assert run([
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--regime", "wo", "--out", str(out), "--workers", "1",
        ]) == 0
        channels = {r["channel"] for r in read_rows(out / "risk_summary.csv")}
        assert channels == {"di", "di_ib"}

    def test_trace_writes_default_dump(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        assert run([
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--trace", "--out", str(out), "--workers", "1",
        ]) == 0
        rows = read_rows(out / "defaults.csv")
        assert len(rows) == 6 * 6

    def test_reruns_bit_identical(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        args = [
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--out", str(out), "--workers", "1",
        ]
        assert run(args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_batch_file_round_trip(self, toy_dir, tmp_path):
        batch_path = tmp_path / "batch.csv"
        lines = ["scenario_id,firm_id,psi"]
        for fid in ("a", "b", "c", "d", "e", "f"):
            lines.append(f"0,{fid},{0.0 if fid == 'f' else 1.0}")
        batch_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run([
            "stress", "--economy-dir", str(toy_dir), "--batch-file", str(batch_path),
            "--out", str(out), "--workers", "1",
        ]) == 0
        ledgers = read_rows(out / "ledgers.csv")
        by_bank = {r["bank_id"]: r for r in ledgers}
        assert float(by_bank["3"]["di"]) == pytest.approx(0.25)
        assert float(by_bank["3"]["sc"]) == pytest.approx(0.05)
        assert float(by_bank["4"]["sc"]) == pytest.approx(0.10)

    def test_essentiality_and_sigma_flags_change_cascade(self, toy_dir, tmp_path):
        # all inputs non-essential and sigma 0: the cascade only travels on
        # the demand side, so the supply-chain channel shrinks
        table = tmp_path / "essentiality.csv"
        lines = ["supplier_sector,buyer_sector,essential"]
        for sup in range(1011, 1017):
            for buy in range(1011, 1017):
                lines.append(f"{sup},{buy},0")
        table.write_text("\n".join(lines) + "\n")

        base = tmp_path / "base"
        soft = tmp_path / "soft"
        common = ["stress", "--economy-dir", str(toy_dir), "--single-firm", "--workers", "1"]
        assert run(common + ["--out", str(base)]) == 0
        assert run(common + ["--essentiality", str(table), "--sigma", "0.0", "--out", str(soft)]) == 0
        sc_base = sum(float(r["sc"]) for r in read_rows(base / "ledgers.csv"))
        sc_soft = sum(float(r["sc"]) for r in read_rows(soft / "ledgers.csv"))
        assert sc_soft < sc_base

    def test_unconverged_scenarios_exit_two(self, toy_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "propagation": {"epsilon": 1e-12, "max_iter": 1},
        }))
        out = tmp_path / "run"
        code = run([
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--config", str(config), "--out", str(out), "--workers", "1",
        ])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["sc_failures"] > 0


class TestReport:
    def test_recomputed_statistics_match(self, toy_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run([
            "stress", "--economy-dir", str(toy_dir), "--single-firm",
            "--out", str(run_dir), "--workers", "1",
        ]) == 0
        report_dir = tmp_path / "report"
        assert run([
            "report", "--ledgers", str(run_dir / "ledgers.csv"), "--out", str(report_dir),
        ]) == 0
        # per-bank rows do not depend on equity weights and must agree
        original = {
            (r["bank"], r["channel"]): r
            for r in read_rows(run_dir / "risk_summary.csv") if r["bank"] != "system"
        }
        recomputed = {
            (r["bank"], r["channel"]): r
            for r in read_rows(report_dir / "risk_summary.csv") if r["bank"] != "system"
        }
        assert original.keys() == recomputed.keys()
        for key, row in original.items():
            for col in ("el", "var95", "es95"):
                assert float(recomputed[key][col]) == pytest.approx(float(row[col]), abs=1e-12)

    def test_report_on_missing_ledgers_exits_three(self, tmp_path):
        assert run(["report", "--ledgers", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 3


class TestDebtrankCommand:
    def test_profile_csv(self, toy_dir, tmp_path):
        out = tmp_path / "dr"
        assert run(["debtrank", "--economy-dir", str(toy_dir), "--out", str(out)]) == 0
        rows = read_rows(out / "debtrank.csv")
        assert len(rows) == 4
        # bank 1 has no creditors: its failure is its own equity share only
        first = {r["bank_id"]: r for r in rows}
        assert float(first["1"]["contagion_only"]) == pytest.approx(0.0)

    def test_trace_files_written(self, toy_dir, tmp_path):
        out = tmp_path / "dr"
        assert run(["debtrank", "--economy-dir", str(toy_dir), "--trace", "--out", str(out)]) == 0
        assert (out / "debtrank_trace_1.csv").exists()

    def test_trace_runs_the_sweep_once(self, toy_dir, tmp_path, monkeypatch):
        # counted in every netstress module that binds the function, so a call from any of them counts
        original, calls = debtrank_module.debtrank, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("record_trace", False))
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("netstress") and getattr(module, "debtrank", None) is original:
                monkeypatch.setattr(module, "debtrank", counted)
        out = tmp_path / "dr"
        assert run(["debtrank", "--economy-dir", str(toy_dir), "--trace", "--out", str(out)]) == 0
        assert calls == [True]
        assert len(read_rows(out / "debtrank.csv")) == 4 and (out / "debtrank_trace_4.csv").is_file()

    def test_trace_file_of_a_bank_id_with_a_slash(self, toy_dir, tmp_path):
        # bank 1 renamed x/1 in every file that names it: its trace is bank 1's under an encoded name
        bank_columns = {"banks": [0], "interbank": [0, 1], "loans": [1]}
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for name in ("firms", "supply", "interbank", "loans", "banks"):
            rows = [line.split(",") for line in (toy_dir / f"{name}.csv").read_text().splitlines()]
            for row in rows[1:]:
                for c in bank_columns.get(name, []):
                    row[c] = "x/1" if row[c] == "1" else row[c]
            (renamed / f"{name}.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        assert run(["debtrank", "--economy-dir", str(toy_dir), "--trace", "--out", str(tmp_path / "toy")]) == 0
        assert run(["debtrank", "--economy-dir", str(renamed), "--trace", "--out", str(tmp_path / "dr")]) == 0
        losses = [[r["loss"] for r in read_rows(path)]
                  for path in (tmp_path / "toy" / "debtrank_trace_1.csv", tmp_path / "dr" / "debtrank_trace_x%2F1.csv")]
        assert losses[0] == losses[1] and len(losses[0]) > 4
        assert (tmp_path / "dr" / "manifest.json").is_file()


class TestManifestOutputs:
    """``outputs`` in each manifest names every file its command wrote, the manifest aside."""

    @pytest.mark.parametrize("argv", [
        ["stress", "--count", "3"],
        ["stress", "--count", "3", "--trace"],
        ["fsri"],
        ["debtrank"],
        ["debtrank", "--trace"],
        ["report"],
        ["generate", 1.0],
        ["generate", 0.5],  # with an essentiality table
    ])
    def test_outputs_are_the_files_written(self, toy_dir, tmp_path, argv):
        if argv == ["report"]:
            assert run(["stress", "--economy-dir", str(toy_dir), "--count", "3", "--workers", "1",
                        "--out", str(tmp_path / "run")]) == 0
            argv = ["report", "--ledgers", str(tmp_path / "run" / "ledgers.csv")]
        elif argv[0] == "generate":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"economy": {"essential_fraction": argv[1]}}))
            argv = ["generate", "--n", "200", "--m", "4", "--config", str(config)]
        else:
            argv = [*argv, "--economy-dir", str(toy_dir)]
        out = tmp_path / "out"
        assert run([*argv, "--workers", "1", "--out", str(out)]) == 0
        written = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == written


def copy_toy(toy_dir, dest, **replace):
    """Copy the toy economy into ``dest``, swapping line ``i`` of a file.

    ``replace`` maps a file stem to ``(line_index, new_line)``.
    """
    dest.mkdir(exist_ok=True)
    for name in ("firms", "supply", "interbank", "loans", "banks"):
        lines = (toy_dir / f"{name}.csv").read_text().splitlines()
        if name in replace:
            index, line = replace[name]
            lines[index] = line
        (dest / f"{name}.csv").write_text("\n".join(lines) + "\n")
    return dest


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


class TestBadInput:
    @pytest.mark.parametrize("name, line, entity", [
        ("banks", "1,nan", "bank:1"),
        ("banks", "1,inf", "bank:1"),
        ("firms", "a,1011,nan,70.0,500.0,600.0,50.0", "firm:a"),
        ("firms", "a,1011,100.0,70.0,500.0,inf,50.0", "firm:a"),
        ("supply", "b,c,inf", "firm:b"),
        ("supply", "b,c,nan", "firm:b"),
        ("interbank", "2,1,nan", "bank:2"),
        ("loans", "a,1,inf", "firm:a"),
        ("loans", "a,1,nan", "firm:a"),
    ])
    def test_non_finite_numbers_are_violations(self, toy_dir, tmp_path, capsys, name, line, entity):
        eco = copy_toy(toy_dir, tmp_path / "eco", **{name: (1, line)})
        assert run(["validate", "--economy-dir", str(eco)]) == 1
        err = capsys.readouterr().err
        assert entity in err and "Traceback" not in err
        assert run(["stress", "--economy-dir", str(eco), "--count", "2",
                    "--workers", "1", "--out", str(tmp_path / "run")]) == 1

    def test_file_that_is_not_utf8(self, toy_dir, tmp_path, capsys):
        eco = copy_toy(toy_dir, tmp_path / "eco")
        (eco / "banks.csv").write_bytes(b"id,tier1_equity\n1,200.0\n\xff2,150.0\n")
        assert run(["validate", "--economy-dir", str(eco)]) == 3
        assert "banks.csv" in one_line_error(capsys)

    @pytest.mark.parametrize("table, code, needle", [
        ("firm_id,reduction\na,1.5\nd,0.5\n", 3, "line 2"),
        ("firm_id,reduction\na,0.3\nd,nan\n", 3, "line 3"),
        ("firm_id,reduction\na,0.3\nzz,0.5\n", 1, "'zz'"),
        ("firm_id,reduction\n", 3, "'10'"),
        ("firm_id,reduction\na,0.3\nd,0.5\na,0.3\n", 3, "shocks.csv line 4: second row for firm 'a'"),
    ])
    def test_shock_table_errors(self, toy_dir, tmp_path, capsys, table, code, needle):
        path = tmp_path / "shocks.csv"
        path.write_text(table)
        assert run(["stress", "--economy-dir", str(toy_dir), "--shocks", str(path),
                    "--count", "2", "--workers", "1", "--out", str(tmp_path / "run")]) == code
        assert needle in one_line_error(capsys)

    @pytest.mark.parametrize("batch, code, needle", [
        ("scenario_id,firm_id,psi\n0,a,1.5\n", 3, "line 2"),
        ("scenario_id,firm_id,psi\n0,a,0.5\n0,b,nan\n", 3, "line 3"),
        ("scenario_id,firm_id,psi\nx,a,0.5\n", 3, "line 2"),
        ("scenario_id,firm_id,psi\n0,a,0.5\n0,zz,0.5\n", 1, "'zz'"),
        ("scenario_id,firm_id,psi\n0,f,0.0\n1,f,0.0\n0,f,1.0\n", 3,
         "batch.csv line 4: second row for scenario 0 and firm 'f'"),
        # every output writes the ids as int64: one past its top would come out as a float
        ("scenario_id,firm_id,psi\n-1,a,0.5\n9223372036854775808,b,0.5\n", 3,
         "batch.csv line 3: column scenario_id is 9223372036854775808"),
        # int and float also read Python's digit groups and other scripts' digits
        ("scenario_id,firm_id,psi\n0,a,0.5\n1_0,f,0.0\n", 3, "batch.csv line 3: column scenario_id is not int: '1_0'"),
        ("scenario_id,firm_id,psi\n0,a,\uff10.5\n", 3, "batch.csv line 2: column psi is not float: '\uff10.5'"),
        # a repeat more than a block of lines after its first line
        pytest.param("scenario_id,firm_id,psi\n" + "".join(f"{s},{f},0.5\n" for s in range(100) for f in "abcdef")
                     + "0,a,1.0\n", 3, "batch.csv line 602: second row for scenario 0 and firm 'a'",
                     id="repeat-in-a-later-block"),
    ])
    def test_batch_file_errors(self, toy_dir, tmp_path, capsys, batch, code, needle):
        path = tmp_path / "batch.csv"
        path.write_text(batch)
        assert run(["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                    "--workers", "1", "--out", str(tmp_path / "run")]) == code
        assert needle in one_line_error(capsys)

    @pytest.mark.parametrize("name, header, argv, found", [
        ("batch.csv", "scenario_id,firm_id,psi",
         ["stress", "--economy-dir", str(DATA_DIR / "toy"), "--workers", "1", "--batch-file"], "no scenarios found"),
        ("ledgers.csv", ",".join(cli.LEDGER_COLUMNS), ["report", "--ledgers"], "no ledgers found"),
    ], ids=["stress", "report"])
    def test_header_only_long_table(self, tmp_path, capsys, name, header, argv, found):
        path = tmp_path / name
        path.write_text(header + "\n")
        assert run([*argv, str(path), "--out", str(tmp_path / "out")]) == 3
        assert one_line_error(capsys) == f"input error: {path}: {found}"

    def test_report_on_a_repeat_in_a_later_block(self, toy_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--count", "200",
                    "--out", str(run_dir), "--workers", "1"]) == 0
        lines = (run_dir / "ledgers.csv").read_text().splitlines()
        assert len(lines) == 801  # 200 scenarios of 4 banks, under the header
        scenario, bank = lines[2].split(",")[:2]
        (tmp_path / "ledgers.csv").write_text("\n".join(lines + [lines[2]]) + "\n")
        capsys.readouterr()
        assert run(["report", "--ledgers", str(tmp_path / "ledgers.csv"),
                    "--out", str(tmp_path / "report")]) == 3
        assert one_line_error(capsys) == (
            f"input error: {tmp_path / 'ledgers.csv'} line 802: second row for scenario {scenario} and bank '{bank}'")

    def test_report_on_ledger_missing_a_row(self, toy_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--single-firm",
                    "--out", str(run_dir), "--workers", "1"]) == 0
        lines = (run_dir / "ledgers.csv").read_text().splitlines()
        assert lines[6].startswith("1,2,")
        (tmp_path / "ledgers.csv").write_text("\n".join(lines[:6] + lines[7:]) + "\n")
        capsys.readouterr()
        assert run(["report", "--ledgers", str(tmp_path / "ledgers.csv"),
                    "--out", str(tmp_path / "report")]) == 3
        err = one_line_error(capsys)
        assert "scenario 1" in err and "bank '2'" in err


    @pytest.mark.parametrize("row, column, cell", [
        (1, "di", "nan"),
        (2, "ib_wo", "-inf"),
        (3, "sc", "-0.25"),
        (4, "ib_w", "inf"),
        (1, "total_wo", "x"),
        (1, "total_w", "-5"),
        (2, "total_w", "0.125"),
        (3, "scenario_id", "9223372036854775808"),
        (2, "di", "0_0"),
        (3, "scenario_id", "\u0661"),
    ])
    def test_report_on_bad_loss(self, toy_dir, tmp_path, capsys, row, column, cell):
        run_dir = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--count", "5",
                    "--out", str(run_dir), "--workers", "1"]) == 0
        lines = (run_dir / "ledgers.csv").read_text().splitlines()
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[row] = ",".join(cells)
        (tmp_path / "ledgers.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["report", "--ledgers", str(tmp_path / "ledgers.csv"),
                    "--out", str(tmp_path / "report")]) == 3
        err = one_line_error(capsys)
        assert f"ledgers.csv line {row + 1}: column {column} is " in err and cell in err

    def test_report_on_a_total_that_disagrees_with_its_channels(self, toy_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--single-firm",
                    "--out", str(run_dir), "--workers", "1"]) == 0
        lines = (run_dir / "ledgers.csv").read_text().splitlines()
        column = lines[0].split(",").index("total_w")
        row = next(i for i, line in enumerate(lines) if i and float(line.split(",")[column]) > 0.0)
        cells = lines[row].split(",")
        total, cells[column] = cells[column], repr(2.0 * float(cells[column]))
        lines[row] = ",".join(cells)
        (tmp_path / "ledgers.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["report", "--ledgers", str(tmp_path / "ledgers.csv"),
                    "--out", str(tmp_path / "report")]) == 3
        assert one_line_error(capsys) == (
            f"input error: {tmp_path / 'ledgers.csv'} line {row + 1}: "
            f"column total_w is {cells[column]}, not {total} from the row's channels")

    def test_report_reads_totals_as_values(self, toy_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--count", "5",
                    "--out", str(run_dir), "--workers", "1"]) == 0
        lines = (run_dir / "ledgers.csv").read_text().splitlines()
        totals = [lines[0].split(",").index(c) for c in ("total_wo", "total_w")]
        for i in range(1, len(lines)):  # 0.5 as 0.50, 1e-05 as 1.00000000000000008e-05
            cells = lines[i].split(",")
            for c in totals:
                cells[c] = cells[c] + "0" if "e" not in cells[c] else format(float(cells[c]), ".17e")
            lines[i] = ",".join(cells)
        (tmp_path / "ledgers.csv").write_text("\n".join(lines) + "\n")
        for ledgers, out in ((run_dir / "ledgers.csv", "report"), (tmp_path / "ledgers.csv", "rewritten")):
            assert run(["report", "--ledgers", str(ledgers), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "rewritten" / "risk_summary.csv").read_bytes() == \
            (tmp_path / "report" / "risk_summary.csv").read_bytes()


class TestScenarioIds:
    BATCH = "scenario_id,firm_id,psi\n{high},f,0.0\n{low},d,0.0\n{low},b,0.5\n"

    def test_batch_file_ids_kept_in_every_output(self, toy_dir, tmp_path):
        self.check_ids_kept(toy_dir, tmp_path, "3", "7")

    def test_ids_at_both_ends_of_int64_kept(self, toy_dir, tmp_path):
        self.check_ids_kept(toy_dir, tmp_path, "-9223372036854775808", "9223372036854775807")

    def check_ids_kept(self, toy_dir, tmp_path, low, high):
        path = tmp_path / "batch.csv"
        path.write_text(self.BATCH.format(low=low, high=high))
        out = tmp_path / "run"
        args = ["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                "--workers", "1", "--trace", "--out", str(out)]
        assert run(args) == 0
        for name in ("ledgers.csv", "amplification.csv", "defaults.csv"):
            ids = [r["scenario_id"] for r in read_rows(out / name)]
            assert ids == [low] * (len(ids) // 2) + [high] * (len(ids) // 2), name

        report = tmp_path / "report"
        assert run(["report", "--ledgers", str(out / "ledgers.csv"), "--out", str(report)]) == 0
        assert (report / "amplification.csv").read_bytes() == (out / "amplification.csv").read_bytes()

    def test_failed_scenario_lists_use_file_ids(self, toy_dir, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(self.BATCH.format(low=3, high=7))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"propagation": {"epsilon": 1e-12, "max_iter": 1}}))
        out = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                    "--config", str(config), "--workers", "1", "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["sc_failed_scenarios"] == [3, 7]


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "0"],
    ["generate", "--n", "4"],  # the default mean_degree of 4 needs n >= 5
    ["generate", "--m", "0"],
    ["generate", "--ratio", "-1"],
    ["generate", "--ratio", "nan"],
    ["generate", "--ratio", "inf"],
    ["generate", "--ratio=-inf"],  # argparse reads a bare -inf as a flag
    ["stress", "--sigma", "2"],
    ["stress", "--epsilon", "-1"],
    ["stress", "--epsilon", "nan"],
    ["stress", "--epsilon", "inf"],
    ["stress", "--count", "0"],
    ["stress", "--seed", "-1"],
    ["generate", "--economy-seed", "-1"],
], ids=" ".join)
def test_bad_parameter_values_exit_three(toy_dir, tmp_path, capsys, argv):
    if argv[0] == "stress":
        argv = argv + ["--economy-dir", str(toy_dir), "--workers", "1"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert one_line_error(capsys).startswith("input error: ")


@pytest.mark.parametrize("command, config", [
    ("stress", {"debtrank": {"epsilon": -1}}),
    ("debtrank", {"debtrank": {"epsilon": -1}}),
    ("fsri", {"debtrank": {"epsilon": 0}}),
    ("stress", {"debtrank": {"max_iter": 0}}),
    ("stress", {"debtrank": {"epsilon": "abc"}}),
    ("stress", {"scenarios": {"count": "abc"}}),
    ("stress", {"scenarios": {"seed": None}}),
    ("stress", {"scenarios": {"shocks_seed": [3]}}),
    ("stress", {"workers": "x"}),
    ("stress", {"propagation": {"epsilon": "abc"}}),
    ("stress", {"propagation": {"epsilon": float("nan")}}),
    ("stress", {"propagation": {"epsilon": float("inf")}}),
    ("debtrank", {"debtrank": {"epsilon": float("inf")}}),
    ("stress", {"debtrank": {"epsilon": float("inf")}}),
    ("generate", {"economy": {"target_exposure_ratio": float("nan")}}),
    ("generate", {"economy": {"target_exposure_ratio": float("inf")}}),
    ("stress", {"propagation": {"max_iter": "many"}}),
    ("validate", {"economy": {"lgd": "x"}}),
    ("generate", {"economy": {"n": "many"}}),
    ("generate", {"economy": {"seed": "x"}}),
    ("generate", {"economy": {"loan_coverage": "most"}}),
    ("stress", [1, 2]),
    ("stress", {"economy": 5}),
    ("stress", {"scenarios": None}),
    ("stress", {"propagation": {"essentiality": 5}}),
    ("stress", {"scenarios": {"shocks": 7}}),
    ("stress", {"scenarios": {"kind": "file", "batch_file": ["b.csv"]}}),
    ("stress", {"scenarios": {"kind": "file"}}),
    ("stress", {"trace": "false"}),
    ("debtrank", {"trace": 1}),
    ("stress", {"workers": float("inf")}),
    ("stress", {"scenarios": {"count": float("inf")}}),
    ("stress", {"regime": "bogus"}),
    ("debtrank", {"regime": None}),
    ("stress", {"scenarios": {"seed": -1}}),
    ("stress", {"scenarios": {"shocks_seed": -1}}),
    ("generate", {"economy": {"seed": -1}}),
    ("generate", {"economy": {"mean_degree": float("inf")}}),
    ("generate", {"economy": {"n": 10, "mean_degree": 10}}),
    ("generate", {"economy": {"n": 30, "m": 3, "interbank_density": 2}}),
    ("generate", {"economy": {"n": 30, "m": 3, "missing_financials_rate": float("nan")}}),
    ("generate", {"economy": {"n": 30, "m": 3, "negative_income_rate": -0.5}}),
    ("generate", {"economy": {"n": 30, "m": 3, "loan_coverage": 1.5}}),
    ("generate", {"economy": {"n": 30, "loan_coverage": 0}}),
    # int() would truncate a fraction and float() would read a boolean as 0 or 1
    ("stress", {"scenarios": {"count": 2.5}}),
    ("generate", {"economy": {"n": 30.5}}),
    ("stress", {"workers": 1.5}),
    ("stress", {"scenarios": {"seed": True}}),
    ("stress", {"propagation": {"epsilon": True}}),
    ("stress", {"debtrank": {"max_iter": 10.5}}),
], ids=lambda value: json.dumps(value) if isinstance(value, (dict, list)) else value)
def test_bad_config_values_exit_three(toy_dir, tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command != "generate":
        argv += ["--economy-dir", str(toy_dir)]
    assert run(argv) == 3
    assert one_line_error(capsys).startswith("input error: ")
    assert not (tmp_path / "out").exists()


def test_whole_float_settings_are_read_as_ints(toy_dir, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenarios": {"count": 2.0, "seed": 5.0}, "workers": 1.0}))
    out = tmp_path / "out"
    assert run(["stress", "--config", str(path), "--economy-dir", str(toy_dir), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["scenarios"] == 2


class TestSettings:
    """The whole configuration is read before any command runs, against ``cli.SETTINGS``."""

    def test_every_default_has_a_setting_and_reads_back_unchanged(self):
        assert set(leaves(cli.DEFAULT_CONFIG)) <= set(cli.SETTINGS)
        config = cli._read_settings(cli._load_config(None))
        assert json.dumps(config, sort_keys=True) == json.dumps(cli.DEFAULT_CONFIG, sort_keys=True)

    @pytest.mark.parametrize("config", [
        {"scenarios": {"count": 0}}, {"debtrank": {"epsilon": -1}}, {"scenarios": {"kind": "all"}},
    ], ids=json.dumps)
    @pytest.mark.parametrize("command", ["validate", "generate", "report"])
    def test_a_setting_the_command_does_not_read_is_checked(self, toy_dir, tmp_path, capsys, command, config):
        ledgers = tmp_path / "run" / "ledgers.csv"
        assert run(["stress", "--economy-dir", str(toy_dir), "--count", "2", "--workers", "1",
                    "--out", str(ledgers.parent)]) == 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra = {"validate": ["--economy-dir", str(toy_dir)], "generate": ["--n", "30", "--m", "3"],
                 "report": ["--ledgers", str(ledgers)]}[command]
        capsys.readouterr()
        assert run([command, "--config", str(path), *extra, "--out", str(tmp_path / "out")]) == 3
        assert one_line_error(capsys).startswith(f"input error: {next(iter(leaves(config)))} must be ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b"\xff{}", b'{"workers": ' + b"1" * 5000 + b"}"], ids=["utf-8", "digits"])
    def test_a_file_json_cannot_read_exits_three(self, toy_dir, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert run(["validate", "--economy-dir", str(toy_dir), "--config", str(path)]) == 3
        assert one_line_error(capsys).startswith(f"input error: {path}: invalid JSON (")

    def test_the_manifest_echoes_the_values_read(self, toy_dir, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenarios": {"count": 2.0}, "workers": 1.0}))
        out = tmp_path / "out"
        assert run(["stress", "--config", str(path), "--economy-dir", str(toy_dir), "--out", str(out)]) == 0
        echoed = json.loads((out / "manifest.json").read_text())["config"]
        assert [(type(v), v) for v in (echoed["scenarios"]["count"], echoed["workers"])] == [(int, 2), (int, 1)]


def bad_values(setting: cli.Setting) -> list:
    """Values ``setting`` cannot hold, as its row says: one of the wrong kind (None too, where it may not be
    None), the ends just outside its bound, and a word outside its words."""
    values = [{int: "1", float: "1", str: 1, bool: 1}.get(setting.kind, 1)] + [None] * (not setting.null)
    if setting.bound is not None:
        _, lo, hi = setting.bound  # lo < value <= hi
        values += [lo] + [math.nextafter(hi, math.inf)] * (hi < math.inf)
    if isinstance(setting.kind, tuple):
        values.append("-".join(setting.kind))
    return values


@pytest.fixture(scope="module")
def toy_ledgers(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-run")
    assert run(["stress", "--economy-dir", str(DATA_DIR / "toy"), "--count", "2", "--workers", "1",
                "--out", str(out)]) == 0
    return out / "ledgers.csv"


class TestEverySetting:
    """Generated from ``cli.SETTINGS``: every command refuses, with exit 3 and one line naming the path, a
    value a row cannot hold and a key that is no row, before it creates any output directory."""

    @pytest.mark.parametrize("path", list(cli.SETTINGS))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_value_the_row_cannot_hold_exits_three(self, tmp_path, monkeypatch, capsys, command, path):
        monkeypatch.chdir(tmp_path)  # the default output directory is ./out
        name, _, key = path.rpartition(".")
        extra = ["--ledgers", "ledgers.csv"] if command == "report" else []  # no flag: it would override the value
        for value in bad_values(cli.SETTINGS[path]):
            (tmp_path / "config.json").write_text(json.dumps({name: {key: value}} if name else {key: value}))
            assert run([command, "--config", "config.json", *extra]) == 3, value
            assert one_line_error(capsys).startswith(f"input error: {path} must be "), value
            assert [p.name for p in tmp_path.iterdir()] == ["config.json"], value

    @pytest.mark.parametrize("config, named", [
        ({"economy": {"sed": 7}}, "economy.sed"),
        ({"scenarios": {"cuont": 5}}, "scenarios.cuont"),
        ({"propagation": {"epsilom": 0.5}}, "propagation.epsilom"),
        ({"debtrank": {"max_iters": 10}}, "debtrank.max_iters"),
        ({"propagaton": {"epsilon": 0.5}}, "propagaton"),
        ({"worker": 1}, "worker"),
        ({"economy.n": 30}, "economy.n"),  # a dotted key at the top level is not the path it spells
    ], ids=lambda value: json.dumps(value) if isinstance(value, dict) else value)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_key_that_is_not_a_setting_exits_three(self, toy_ledgers, tmp_path, capsys, command, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # inputs the command runs on and exits 0 with, but for the key
        extra = {"generate": ["--n", "30", "--m", "3"], "report": ["--ledgers", str(toy_ledgers)],
                 "stress": ["--economy-dir", str(DATA_DIR / "toy"), "--count", "2", "--workers", "1"],
                 }.get(command, ["--economy-dir", str(DATA_DIR / "toy")])
        assert run([command, "--config", str(path), *extra, "--out", str(tmp_path / "out")]) == 3
        assert one_line_error(capsys) == f"input error: {named} is not a setting"
        assert not (tmp_path / "out").exists()


class TestLossGivenDefault:
    def ledgers(self, tmp_path, lgd: float) -> list[dict]:
        path, out = tmp_path / f"lgd-{lgd}.json", tmp_path / f"run-{lgd}"
        path.write_text(json.dumps({"economy": {"lgd": lgd}}))
        assert run(["stress", "--synthetic", "--n", "300", "--m", "5", "--count", "5", "--workers", "1",
                    "--config", str(path), "--out", str(out)]) == 0
        return read_rows(out / "ledgers.csv")

    def test_halving_it_halves_both_credit_channels_on_a_synthetic_economy(self, tmp_path):
        full, half = self.ledgers(tmp_path, 1.0), self.ledgers(tmp_path, 0.5)
        for channel in ("di", "sc"):
            column = [float(row[channel]) for row in full]
            assert sum(column) > 0.0, channel
            # halving is exact, so each cell is half its full-LGD cell bit for bit
            assert [float(row[channel]) for row in half] == [0.5 * v for v in column], channel

    @pytest.mark.parametrize("lgd", [0.0, 1.5, float("nan")])
    @pytest.mark.parametrize("source", ["synthetic", "files"])
    def test_out_of_range_exits_three(self, toy_dir, tmp_path, capsys, source, lgd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"economy": {"lgd": lgd}}))
        economy = ["--synthetic", "--n", "50", "--m", "4"] if source == "synthetic" else ["--economy-dir", str(toy_dir)]
        assert run(["stress", *economy, "--count", "2", "--workers", "1", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 3
        assert one_line_error(capsys).startswith("input error: economy.lgd must be in (0, 1]")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["stress", "--count", "abc"], ["bogus"], ["stress", "--regime", "x"]], ids=" ".join)
def test_bad_command_line_exits_three(capsys, argv):
    # argparse's own code, 2, is the code of a convergence failure
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 3
    assert "error: " in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["--help"], ["stress", "--help"]], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: netstress" in capsys.readouterr().out


class TestWorkerCount:
    def test_zero_means_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._workers({"workers": 0}) == 1
        assert cli._workers({"workers": -1}) == 1
        assert cli._workers({"workers": 5}) == 5

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
        assert cli._workers({"workers": 0}) == 6
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._workers({"workers": 0}) == 1


def test_essentiality_table_with_a_repeated_pair_exits_three(toy_dir, tmp_path, capsys):
    path = tmp_path / "essentiality.csv"
    path.write_text("supplier_sector,buyer_sector,essential\n10,10,1\n1011,1012,0\n10,10,0\n")
    assert run(["stress", "--economy-dir", str(toy_dir), "--essentiality", str(path), "--count", "2",
                "--workers", "1", "--out", str(tmp_path / "run")]) == 3
    message = "essentiality.csv line 4: second row for supplier sector '10' and buyer sector '10'"
    assert message in one_line_error(capsys)
