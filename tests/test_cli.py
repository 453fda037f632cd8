"""Command-line interface: subcommands, outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import json

import pytest

from netstress.cli import main


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

    def test_missing_file_exits_three(self, tmp_path):
        assert run(["validate", "--economy-dir", str(tmp_path)]) == 3


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


class TestFsri:
    def test_profile_has_one_row_per_firm(self, toy_dir, tmp_path):
        out = tmp_path / "fsri"
        assert run(["fsri", "--economy-dir", str(toy_dir), "--out", str(out)]) == 0
        rows = read_rows(out / "fsri_profile.csv")
        assert len(rows) == 6
        assert {r["firm_id"] for r in rows} == {"a", "b", "c", "d", "e", "f"}
        assert (out / "ccdf.csv").exists() and (out / "manifest.json").exists()


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
    ])
    def test_batch_file_errors(self, toy_dir, tmp_path, capsys, batch, code, needle):
        path = tmp_path / "batch.csv"
        path.write_text(batch)
        assert run(["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                    "--workers", "1", "--out", str(tmp_path / "run")]) == code
        assert needle in one_line_error(capsys)

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


class TestScenarioIds:
    BATCH = "scenario_id,firm_id,psi\n7,f,0.0\n3,d,0.0\n3,b,0.5\n"

    def test_batch_file_ids_kept_in_every_output(self, toy_dir, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(self.BATCH)
        out = tmp_path / "run"
        args = ["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                "--workers", "1", "--trace", "--out", str(out)]
        assert run(args) == 0
        for name in ("ledgers.csv", "amplification.csv", "defaults.csv"):
            ids = [r["scenario_id"] for r in read_rows(out / name)]
            assert ids == sorted(ids) and set(ids) == {"3", "7"}, name

        report = tmp_path / "report"
        assert run(["report", "--ledgers", str(out / "ledgers.csv"), "--out", str(report)]) == 0
        assert (report / "amplification.csv").read_bytes() == (out / "amplification.csv").read_bytes()

    def test_failed_scenario_lists_use_file_ids(self, toy_dir, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(self.BATCH)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"propagation": {"epsilon": 1e-12, "max_iter": 1}}))
        out = tmp_path / "run"
        assert run(["stress", "--economy-dir", str(toy_dir), "--batch-file", str(path),
                    "--config", str(config), "--workers", "1", "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["sc_failed_scenarios"] == [3, 7]
