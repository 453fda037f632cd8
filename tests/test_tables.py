"""The CSV layer on inputs the toy files never hit.

Long files whose faults sit past the first block, CRLF line ends and blank
lines, whitespace around ids, ids that need quoting, and files with two
faults. The reader converts a block of rows at a time, so every error must
still name the line a row-by-row read would have stopped at.
"""

from __future__ import annotations

import csv
import io
import shutil

import numpy as np
import pytest

from netstress import (
    DataFormatError,
    ReferentialError,
    SyntheticParams,
    economy_files,
    generate_synthetic_economy,
    load_economy,
    toy_economy,
    write_economy,
)
from netstress.tables import BLOCK_ROWS, write_columns, write_csv


def toy_copy(toy_dir, tmp_path):
    eco = tmp_path / "eco"
    shutil.copytree(toy_dir, eco)
    return eco


def same_graph(a, b) -> bool:
    return (
        a.firm_ids == b.firm_ids and a.sectors == b.sectors and a.bank_ids == b.bank_ids
        and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in (
            "revenue", "op_cost", "equity", "short_assets", "short_liabs",
            "financials_present", "eligible_for_default", "bank_equity",
        ))
        and all((x != y).nnz == 0 for x, y in (
            (a.supply.weights, b.supply.weights),
            (a.interbank.liabilities, b.interbank.liabilities),
            (a.loans.principals, b.loans.principals),
        ))
    )


def long_supply(rows: int, bad: dict[int, str]) -> str:
    """``rows`` copies of one supply edge, with row ``i`` (0-based) replaced by ``bad[i]``."""
    lines = [bad.get(i, "b,c,1.0") for i in range(rows)]
    return "supplier_id,buyer_id,weight\n" + "\n".join(lines) + "\n"


class TestFaultsPastTheFirstBlock:
    def test_bad_float(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        row = BLOCK_ROWS + 37
        (eco / "supply.csv").write_text(long_supply(3 * BLOCK_ROWS, {row: "b,c,1.0x"}))
        message = rf"supply.csv line {row + 2}: column weight is not float: '1.0x'$"
        with pytest.raises(DataFormatError, match=message):
            load_economy(economy_files(eco))

    def test_unknown_id(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        row = 2 * BLOCK_ROWS + 5
        lines = ["a,1,1.0"] * (3 * BLOCK_ROWS)
        lines[row] = "a,9,1.0"
        (eco / "loans.csv").write_text("firm_id,bank_id,principal\n" + "\n".join(lines) + "\n")
        with pytest.raises(ReferentialError, match=rf"loans.csv line {row + 2}: unknown bank id '9'$"):
            load_economy(economy_files(eco))

    def test_wrong_field_count_after_a_bad_cell_of_the_same_block(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        bad = {BLOCK_ROWS + 3: "b,c,x", BLOCK_ROWS + 9: "b,c"}
        (eco / "supply.csv").write_text(long_supply(BLOCK_ROWS + 40, bad))
        with pytest.raises(DataFormatError, match=rf"line {BLOCK_ROWS + 5}: column weight"):
            load_economy(economy_files(eco))


class TestLineEndsAndWhitespace:
    def test_crlf_and_blank_lines_read_like_the_plain_files(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        for path in eco.glob("*.csv"):
            lines = path.read_text().splitlines()
            path.write_bytes(("\r\n".join(lines[:2] + [""] + lines[2:]) + "\r\n\r\n").encode())
        assert same_graph(load_economy(economy_files(eco)), load_economy(economy_files(toy_dir)))

    def test_blank_lines_count_in_the_reported_line(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        text = long_supply(BLOCK_ROWS + 20, {BLOCK_ROWS + 10: "b,c,nope"}).replace("\n", "\r\n", 3)
        lines = text.split("\n")
        lines[5:5] = ["", "\r"]  # two blank lines before the bad row
        (eco / "supply.csv").write_text("\n".join(lines))
        message = rf"line {BLOCK_ROWS + 14}: column weight is not float: 'nope'"
        with pytest.raises(DataFormatError, match=message):
            load_economy(economy_files(eco))

    def test_whitespace_around_ids_is_ignored(self, toy_dir, tmp_path):
        eco = toy_copy(toy_dir, tmp_path)
        for name in ("supply", "loans", "interbank"):
            path = eco / f"{name}.csv"
            lines = path.read_text().splitlines()
            padded = [" " + line.replace(",", " ,\t", 1) for line in lines[1:]]
            path.write_text("\n".join(lines[:1] + padded) + "\n")
        firms = (eco / "firms.csv").read_text().replace("\na,", "\n  a ,")
        (eco / "firms.csv").write_text(firms)
        assert same_graph(load_economy(economy_files(eco)), load_economy(economy_files(toy_dir)))


class TestQuotedIds:
    IDS = {"a": 'acme, "north"', "b": "b,b", "c": 'say "c"', "f": "plain"}
    BANKS = {"1": "bank, one", "3": '"3"'}

    def renamed_toy(self):
        g = toy_economy()
        g.firm_ids = [self.IDS.get(fid, fid) for fid in g.firm_ids]
        g.bank_ids = [self.BANKS.get(bid, bid) for bid in g.bank_ids]
        return g

    def test_round_trip_keeps_the_bytes_of_every_id(self, tmp_path):
        g = self.renamed_toy()
        write_economy(g, tmp_path)
        back = load_economy(economy_files(tmp_path))
        assert back.firm_ids == g.firm_ids and back.bank_ids == g.bank_ids
        assert same_graph(back, g)

    def test_written_like_csv_writer(self, tmp_path):
        g = self.renamed_toy()
        write_economy(g, tmp_path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["supplier_id", "buyer_id", "weight"])
        coo = g.supply.weights.tocoo()
        writer.writerows(
            [g.firm_ids[i], g.firm_ids[j], repr(float(x))] for i, j, x in zip(coo.row, coo.col, coo.data)
        )
        assert (tmp_path / "supply.csv").read_text(encoding="utf-8") == expected.getvalue()


@pytest.mark.parametrize("rows", [
    [["x", 1, "1.5"], ['a,"b"', -2, ""], ["line\nbreak", 0, "nan"], [" pad ", 7, "inf"]],
    [[f"id{i}", i, repr(i / 7)] for i in range(3 * BLOCK_ROWS + 1)],
    [],
])
def test_writers_match_csv_writer(tmp_path, rows):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["id", "n", "x"])
    writer.writerows(rows)
    write_csv(tmp_path / "rows.csv", ["id", "n", "x"], rows)
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8") == expected.getvalue()
    if rows:
        ids, counts, values = (list(c) for c in zip(*rows))
        floats = np.ma.masked_array([float(v or 0) for v in values], mask=[v == "" for v in values])
        write_columns(tmp_path / "columns.csv", ["id", "n", "x"], [ids, np.array(counts), floats])
        assert (tmp_path / "columns.csv").read_text(encoding="utf-8") == expected.getvalue()


TWO_FAULTS = [
    # (file, 0-based data rows -> replacement line, message of the earlier fault)
    ("firms", {4: "b,1012,90.0,40.0,400.0,450.0,50.0", 2: "c,1013,x,90.0,300.0,350.0,50.0"},
     "firms.csv line 4: column revenue is not float: 'x'"),
    ("firms", {1: "b,1012,90.0,40.0,400.0,450.0,oops", 3: "d,1014,80.0,50.0,,100.0,20.0"},
     "firms.csv line 3: column short_liabs is not float: 'oops'"),
    ("loans", {5: "zz,3,25.0", 3: "d,3,5.x"}, "loans.csv line 5: column principal is not float: '5.x'"),
    ("loans", {4: "d,4,nope", 1: "b,9,30.0"}, "loans.csv line 3: unknown bank id '9'"),
    ("interbank", {2: "4,1,x", 1: "3,7,30.0"}, "interbank.csv line 3: unknown bank id '7'"),
]


@pytest.mark.parametrize("name, replace, message", TWO_FAULTS)
def test_two_faults_report_the_earlier_line(toy_dir, tmp_path, name, replace, message):
    eco = toy_copy(toy_dir, tmp_path)
    path = eco / f"{name}.csv"
    lines = path.read_text().splitlines()
    for row, line in replace.items():
        lines[row + 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((DataFormatError, ReferentialError)) as info:
        load_economy(economy_files(eco))
    assert str(info.value).endswith(message)


def test_multi_block_round_trip(tmp_path):
    params = SyntheticParams(n=3 * BLOCK_ROWS + 11, m=5, missing_financials_rate=0.2)
    g = generate_synthetic_economy(params, seed=4)
    write_economy(g, tmp_path)
    assert same_graph(load_economy(economy_files(tmp_path)), g)


def test_header_only_files_load(toy_dir, tmp_path):
    eco = toy_copy(toy_dir, tmp_path)
    for name in ("supply", "interbank", "loans"):
        path = eco / f"{name}.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
    g = load_economy(economy_files(eco))
    assert g.supply.weights.nnz == g.interbank.liabilities.nnz == g.loans.principals.nnz == 0
