"""The one CSV format of every file netstress reads or writes.

UTF-8, '.' decimal separator, no thousands separators, a header row that
must match exactly, the same number of fields on every row and ``\\n`` line
ends (``\\r\\n`` and blank lines are accepted on input). Floats are written
with :func:`fmt` (``repr``), so they read back bit for bit; a text cell
holding ``,``, ``"`` or a line end is quoted the way ``csv.writer`` quotes
it. Every read error raises :class:`DataFormatError` naming the file and,
past the header, the line.

Both directions work on blocks of :data:`BLOCK_ROWS` rows held as columns,
so a file of any length is converted in bulk with bounded memory.
"""

from __future__ import annotations

import csv
from itertools import compress, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .economy import DataFormatError, ReferentialError

BLOCK_ROWS = 512
_QUOTE = (",", '"', "\r", "\n")

T = TypeVar("T")


def fmt(x: float) -> str:
    """A float as the shortest text that reads back to the same value."""
    return repr(float(x))


class RowError(Exception):
    """A fault in row ``row`` of a :class:`Block`; :meth:`Block.convert` adds file and line."""

    def __init__(self, row: int, message: str, kind: type[ValueError] = DataFormatError):
        super().__init__(message)
        self.row, self.message, self.kind = int(row), message, kind


class Block:
    """Consecutive rows of one CSV file, as a column of raw cell text per header name."""

    def __init__(self, path: Path, start: int, names: Sequence[str], columns: Sequence[Sequence[str]]):
        self.path = path
        self.start = start  # rows of the file before this block, header and blank lines not counted
        self.cells = dict(zip(names, columns))
        self.size = len(columns[0])

    def head(self, rows: int) -> "Block":
        return Block(self.path, self.start, list(self.cells), [c[:rows] for c in self.cells.values()])

    def text(self, name: str) -> list[str]:
        """A column with surrounding whitespace removed."""
        return list(map(str.strip, self.cells[name]))

    def numbers(self, name: str, kind: Callable = float, rows: np.ndarray | None = None) -> list:
        """A column converted with ``kind``; with a boolean mask ``rows``, those rows only."""
        cells = self.cells[name]
        if rows is not None:
            cells = list(compress(cells, rows))
        try:
            return list(map(kind, cells))
        except ValueError:
            where = range(self.size) if rows is None else np.flatnonzero(rows)
            for r, cell in zip(where, cells):
                try:
                    kind(cell)
                except ValueError:
                    raise RowError(r, f"column {name} is not {kind.__name__}: {cell!r}") from None
            raise

    def fractions(self, name: str) -> np.ndarray:
        """A float column in [0, 1]; NaN is outside."""
        values = np.array(self.numbers(name), dtype=float)
        outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if outside.size:
            r = outside[0]
            raise RowError(r, f"column {name} is {self.cells[name][r].strip()}, outside [0, 1]")
        return values

    def positions(self, name: str, index: dict[str, int], what: str) -> list[int]:
        """Look up an id column in ``index``; an unknown id is a :class:`ReferentialError`."""
        ids = self.text(name)
        found = list(map(index.get, ids))
        if None in found:
            r = found.index(None)
            raise RowError(r, f"unknown {what} id {ids[r]!r}", ReferentialError)
        return found

    def convert(self, fn: Callable[["Block"], T]) -> T:
        """``fn(self)``, failing with the fault a row-by-row read would have met first.

        ``fn`` checks one kind of fault at a time over the whole block and
        raises :class:`RowError` at the first row that has it, so it must
        run its checks in the order one row is checked in, and change
        nothing outside its result. A later check can fail in an earlier
        row; so after a fault ``fn`` runs again on the rows before it,
        until those rows hold none.
        """
        try:
            return fn(self)
        except RowError as exc:
            fault = exc
        while True:
            try:
                fn(self.head(fault.row))
            except RowError as exc:
                fault = exc
            else:
                raise fault.kind(f"{self.path} line {self.line(fault.row)}: {fault.message}")

    def line(self, row: int) -> int:
        """The line number of ``row``, found by reading the file again (errors only)."""
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for _ in islice(filter(None, reader), self.start + row + 1):
                pass
            return reader.line_num


def first_repeat(keys: Sequence, seen) -> int | None:
    """Index of the first key that is in ``seen`` or earlier in ``keys``, or None."""
    fresh = dict.fromkeys(keys)
    if len(fresh) == len(keys) and not any(map(seen.__contains__, fresh)):
        return None
    earlier = set()
    for r, key in enumerate(keys):
        if key in seen or key in earlier:
            return r
        earlier.add(key)
    return None


def read_blocks(path: Path, columns: list[str]) -> Iterator[Block]:
    """Yield a headered CSV as blocks of at most :data:`BLOCK_ROWS` rows, checking the header.

    A row with the wrong number of fields, or text that is not UTF-8 or
    not CSV, raises after the block of the rows before it.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    with handle:
        reader = csv.reader(handle)
        rows: list[list[str]] = []
        start = 0
        failure = None
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file, expected header {','.join(columns)}")
            if [c.strip() for c in header] != columns:
                raise DataFormatError(f"{path}: header is {','.join(header)}, expected {','.join(columns)}")
            width = len(columns)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue  # a blank line
                    failure = DataFormatError(f"{path} line {reader.line_num}: wrong number of fields")
                    break
                rows.append(row)
                if len(rows) == BLOCK_ROWS:
                    yield Block(path, start, columns, list(zip(*rows)))
                    start += len(rows)
                    rows = []
        except (UnicodeDecodeError, csv.Error) as exc:
            failure = DataFormatError(f"{path} line {reader.line_num}: {exc}")
        if rows:
            yield Block(path, start, columns, list(zip(*rows)))
        if failure is not None:
            raise failure


def _text(column) -> list[str]:
    """One block of a column as CSV cells."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            cells = list(map(repr, column.tolist()))
            if np.ma.is_masked(column):
                for r in np.flatnonzero(column.mask):
                    cells[r] = ""
            return cells
        if column.dtype.kind in "biu":  # numbers need no quoting
            return list(map(str, column.tolist()))
        column = column.tolist()
    cells = list(map(str, column))
    joined = "".join(cells)
    if any(c in joined for c in _QUOTE):
        cells = ['"' + c.replace('"', '""') + '"' if any(q in c for q in _QUOTE) else c for c in cells]
    return cells


def _write(path: Path, header: list[str], blocks: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_text(header)) + "\n")
        for block in blocks:
            fh.write("\n".join(map(",".join, zip(*map(_text, block)))) + "\n")


def write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header and then ``rows`` of text and integers, floats already through :func:`fmt`."""
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, BLOCK_ROWS)), [])
    _write(path, header, (list(zip(*chunk)) for chunk in chunks))


def write_columns(path: Path, header: list[str], columns: Sequence[Sequence]) -> None:
    """Write a header and then equal-length columns, one block of rows at a time.

    A float array is written with :func:`fmt`, a masked cell as a blank;
    any other column is written as text.
    """
    write_parts(path, header, [columns])


def write_parts(path: Path, header: list[str], parts: Iterable[Sequence[Sequence]]) -> None:
    """:func:`write_columns` for a stream of parts, each a list of equal-length columns, in turn."""
    _write(path, header, (
        [column[start:start + BLOCK_ROWS] for column in part]
        for part in parts
        for start in range(0, len(part[0]), BLOCK_ROWS)
    ))
