"""The CSV layer on inputs the toy files never hit.

Long files whose faults sit past the first block, CRLF line ends and blank
lines, whitespace around ids, ids that need quoting, and files with two
faults. The reader converts a block of rows at a time, so every error must
still name the line a row-by-row read would have stopped at. The reader
splits plain blocks of text without :mod:`csv`, so it is checked block for
block against a reader that parses every row with :mod:`csv`.
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
    write_economy,
)
from netstress import ingest, tables
from netstress.tables import BLOCK_ROWS, read_blocks, write_columns, write_long, write_parts

from .builders import toy_economy
from .oracle import oracle_read_blocks


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
    ids, counts, values = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    floats = np.ma.masked_array([float(v or 0) for v in values], mask=[v == "" for v in values])
    columns = [ids, np.array(counts, dtype=int), floats]
    write_columns(tmp_path / "columns.csv", ["id", "n", "x"], columns)
    assert (tmp_path / "columns.csv").read_text(encoding="utf-8") == expected.getvalue()
    cut = len(ids) // 3  # a stream of parts that cut across blocks
    write_parts(tmp_path / "parts.csv", ["id", "n", "x"], [[c[:cut] for c in columns], [c[cut:] for c in columns]])
    assert (tmp_path / "parts.csv").read_text(encoding="utf-8") == expected.getvalue()

    # a long table: each row above against entities whose ids need quoting too
    entities = ["e,1", 'say "e"', "plain"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["id", "entity", "n", "x"])
    writer.writerows([i, e, c + k, x] for i, c, x in zip(ids, counts, values) for k, e in enumerate(entities))
    grid = [np.add.outer(np.array(counts, dtype=int), np.arange(len(entities))),
            np.repeat(floats[:, None], len(entities), axis=1)]
    cuts = [0, 0, 1, len(ids)]  # blocks of 0 rows, 1 row and the rest
    write_long(tmp_path / "long.csv", ["id", "entity", "n", "x"], ids, entities,
               ([a[start:stop] for a in grid] for start, stop in zip(cuts, cuts[1:])))
    assert (tmp_path / "long.csv").read_text(encoding="utf-8") == expected.getvalue()


def test_booleans_are_written_as_0_and_1(tmp_path):
    flags = np.array([True, False, True])
    write_columns(tmp_path / "columns.csv", ["flag"], [flags])
    assert (tmp_path / "columns.csv").read_text() == "flag\n1\n0\n1\n"
    write_long(tmp_path / "long.csv", ["row", "entity", "flag"], [7], ["a", "b", "c"], [(flags[None],)])
    assert (tmp_path / "long.csv").read_text() == "row,entity,flag\n7,a,1\n7,b,0\n7,c,1\n"


TWO_FAULTS = [
    # (file, 0-based data rows -> replacement line, message of the earlier fault)
    ("firms", {4: "b,1012,90.0,40.0,400.0,450.0,50.0", 2: "c,1013,x,90.0,300.0,350.0,50.0"},
     "firms.csv line 4: column revenue is not float: 'x'"),
    ("firms", {1: "b,1012,90.0,40.0,400.0,450.0,oops", 3: "d,1014,80.0,50.0,,100.0,20.0"},
     "firms.csv line 3: column short_liabs is not float: 'oops'"),
    ("loans", {5: "zz,3,25.0", 3: "d,3,5.x"}, "loans.csv line 5: column principal is not float: '5.x'"),
    ("loans", {4: "d,4,nope", 1: "b,9,30.0"}, "loans.csv line 3: unknown bank id '9'"),
    ("interbank", {2: "4,1,x", 1: "3,7,30.0"}, "interbank.csv line 3: unknown bank id '7'"),
    # int and float also read Python's digit groups and other scripts' digits
    ("firms", {3: "d,1014,80.0,\u0665\u0660.\u0660,20.0,100.0,20.0", 1: "b,1012,9_0.0,40.0,400.0,450.0,50.0"},
     "firms.csv line 3: column revenue is not float: '9_0.0'"),
    ("firms", {4: "e,1015,50.0,30.0,10.0,40.0,\uff12\uff10.0"},
     "firms.csv line 6: column short_liabs is not float: '\uff12\uff10.0'"),
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


LIMIT = csv.field_size_limit()
# each takes a data line without its line end and returns the bytes that replace it
MUTATIONS = {
    "quoted comma": lambda line: b'"a,1"' + line[line.index(b","):] + b"\n",
    "quoted quote": lambda line: b'"say ""a"""' + line[line.index(b","):] + b"\n",
    "quoted newline": lambda line: b'"two\nlines"' + line[line.index(b","):] + b"\n",
    "quote inside a field": lambda line: b'a"b' + line + b"\n",
    "crlf": lambda line: line + b"\r\n",
    "lone cr line end": lambda line: line + b"\r",
    "cr inside a field": lambda line: b"a\rb" + line + b"\n",
    "blank line": lambda line: b"\n" + line + b"\n",
    "whitespace-only line": lambda line: b" \t \n" + line + b"\n",
    "nul": lambda line: b"a\0" + line + b"\n",
    "invalid utf-8": lambda line: b"a\xff" + line + b"\n",
    "short row": lambda line: line[:line.rindex(b",")] + b"\n",
    "long row": lambda line: line + b",extra\n",
    "field at the size limit": lambda line: b"z" * LIMIT + line[line.index(b","):] + b"\n",
    "field over the size limit": lambda line: b"z" * (LIMIT + 1) + line[line.index(b","):] + b"\n",
    "form feed": lambda line: b"a\x0cb" + line + b"\n",
    "line separator": lambda line: "a\u2028b".encode() + line + b"\n",
    "other splitlines breaks": lambda line: "\x0b\x1c\x1d\x1e\x85".encode() + line + b"\n",
    # one line that str.splitlines would read as two rows of the right width
    "rows joined by a form feed": lambda line: line + b"\x0c" + line + b"\n",
    "rows joined by a line separator": lambda line: line + "\u2028".encode() + line + b"\n",
    "rows joined by a next line": lambda line: line + "\x85".encode() + line + b"\n",
    "padded cells": lambda line: b"  " + line.replace(b",", b" , ") + b"\t\n",
    "empty cells": lambda line: b"," * line.count(b",") + b"\n",
}


def read_all(read, path, columns):
    """Every block ``read`` yields as (start, size, columns), then the exception it ends with."""
    blocks = []
    try:
        for b in read(path, columns):
            blocks.append((b.start, b.size, [list(c) for c in b.cells.values()]))
    except Exception as exc:  # compared, not handled
        return blocks, (type(exc), str(exc))
    return blocks, None


def data_lines(rows: int) -> list[bytes]:
    return [f"id{i},s{i % 7},{i / 7!r}".encode() for i in range(rows)]


def same_as_csv(path, columns=("id", "sector", "x")) -> None:
    columns = list(columns)
    got, want = read_all(read_blocks, path, columns), read_all(oracle_read_blocks, path, columns)
    assert got == want


class TestSameBlocksAsCsv:
    @pytest.mark.parametrize("block", [0, 1, 2])
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutated_row(self, tmp_path, mutation, block):
        path = tmp_path / "t.csv"
        for offset in (0, 200, BLOCK_ROWS - 1):
            lines = data_lines(3 * BLOCK_ROWS + 40)
            r = block * BLOCK_ROWS + offset
            text = [line + b"\n" for line in lines]
            text[r] = MUTATIONS[mutation](lines[r])
            path.write_bytes(b"id,sector,x\n" + b"".join(text))
            same_as_csv(path)

    @pytest.mark.parametrize("rows", [3 * BLOCK_ROWS, 3 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
    @pytest.mark.parametrize("end", [b"", b"\n", b"\n\n", b"\r\n", b"\r"])
    def test_file_end(self, tmp_path, rows, end):
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,sector,x\n" + b"\n".join(data_lines(rows)) + end)
        same_as_csv(path)

    def test_faults_in_two_blocks(self, tmp_path):
        lines = [line + b"\n" for line in data_lines(4 * BLOCK_ROWS)]
        lines[BLOCK_ROWS + 3] = b"\r\n" + lines[BLOCK_ROWS + 3]
        lines[3 * BLOCK_ROWS + 9] = b"id,x\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,sector,x\n" + b"".join(lines))
        same_as_csv(path)

    def test_short_and_long_row_in_one_block(self, tmp_path):
        lines = [line + b"\n" for line in data_lines(3 * BLOCK_ROWS)]
        lines[BLOCK_ROWS + 3] = b"id,x,y,z\n"
        lines[BLOCK_ROWS + 9] = b"id,x\n"  # the block has as many commas as a plain one
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,sector,x\n" + b"".join(lines))
        same_as_csv(path)

    @pytest.mark.parametrize("header", [
        b"", b"\n", b"id,sector,x", b"id,sector,x\r\n", b' id , "sector",x\n', b"id,sector\n",
        b"id,sector,x,y\n", b"id,\xffsector,x\n", b'"id,sector,x\n', b"\xef\xbb\xbfid,sector,x\n",
    ])
    def test_header(self, tmp_path, header):
        path = tmp_path / "t.csv"
        path.write_bytes(header + b"\n".join(data_lines(BLOCK_ROWS + 3)) + b"\n")
        same_as_csv(path)
        path.write_bytes(header)
        same_as_csv(path)

    def test_one_column(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = [f"id{i}".encode() for i in range(2 * BLOCK_ROWS)]
        lines[BLOCK_ROWS + 2] = b"   "
        path.write_bytes(b"id\n" + b"\n".join(lines) + b"\n")
        same_as_csv(path, ["id"])
        lines[3] = b""
        path.write_bytes(b"id\n" + b"\n".join(lines) + b"\n")
        same_as_csv(path, ["id"])

    def test_missing_file(self, tmp_path):
        same_as_csv(tmp_path / "none.csv")


ECONOMY_FAULTS = [
    # (file, 0-based data row of a copy with 3 blocks of rows, replacement line or lines)
    ("supply", BLOCK_ROWS + 7, "b,c,1.0x"),
    ("supply", 2 * BLOCK_ROWS + 1, '"b,c",c,1.0'),
    ("loans", BLOCK_ROWS - 1, "a,9,1.0"),
    ("loans", 2 * BLOCK_ROWS, "\r\na,1,1.0\r\nzz,1,2.0"),
    ("loans", 5, "\na,1,x"),
    ("interbank", BLOCK_ROWS + 2, "2,1,nan"),
]


@pytest.mark.parametrize("name, row, line", ECONOMY_FAULTS)
def test_load_same_as_with_csv(toy_dir, tmp_path, monkeypatch, name, row, line):
    eco = toy_copy(toy_dir, tmp_path)
    path = eco / f"{name}.csv"
    lines = path.read_text().splitlines()
    body = (lines[1:] * (3 * BLOCK_ROWS))[:3 * BLOCK_ROWS]
    body[row] = line
    path.write_text("\n".join(lines[:1] + body) + "\n")
    outcomes = []
    for read in (read_blocks, oracle_read_blocks):
        monkeypatch.setattr(ingest, "read_blocks", read)
        try:
            outcomes.append(load_economy(economy_files(eco)))
        except Exception as exc:  # compared, not handled
            outcomes.append((type(exc), str(exc)))
    if isinstance(outcomes[1], tuple):
        assert outcomes[0] == outcomes[1]
    else:
        assert same_graph(*outcomes)


def test_unknown_ids_raise_at_the_first_row():
    index = {"a": 0, "b": 1}
    block = tables.Block("t.csv", 0, ["id"], [["a", " b", "c", "d"]])
    assert block.positions("id", {**index, "c": 2, "d": 3}, "firm").tolist() == [0, 1, 2, 3]
    with pytest.raises(tables.RowError, match="unknown firm id 'c'") as info:
        block.positions("id", index, "firm")
    assert info.value.row == 2
