"""The one CSV format of every file netstress reads or writes.

UTF-8, '.' decimal separator, no thousands separators, a header row that
must match exactly, the same number of fields on every row and ``\\n`` line
ends (``\\r\\n`` and blank lines are accepted on input). Floats are written
with :func:`fmt` (``repr``), so they read back bit for bit; a text cell
holding ``,``, ``"`` or a line end is quoted the way ``csv.writer`` quotes
it. Every read error raises :class:`DataFormatError` naming the file and,
past the header, the line.

Both directions work on blocks of :data:`BLOCK_ROWS` rows held as columns,
so a file of any length is converted in bulk with bounded memory. Every
file is written by :func:`write_columns`, or :func:`write_parts` for a
stream.

Reading takes one of two paths, which give the same blocks and the same
errors. The header is always read with :mod:`csv`. Then each block of
:data:`BLOCK_ROWS` lines is *plain* when its text has no ``"``, no ``\\r``
and no NUL, no line is blank, every line has exactly one comma fewer than
the header has columns, and no line is longer than
``csv.field_size_limit()``. A plain block has no quoting and no line-end
rules to apply, so its text is split on commas and line ends in one call.
At the first block that is not plain, or text that is not UTF-8, the file
is read again with :mod:`csv` from that block's first row to its end: quoted
cells, ``\\r\\n`` and blank lines, and every fault get the rows, messages and
line numbers of a row-by-row read. Lines are split at ``\\n`` only, as
:mod:`csv` splits them, never with :meth:`str.splitlines`.
"""

from __future__ import annotations

import csv
from itertools import compress, islice
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, Sequence, TypeVar

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

    def floats(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """:meth:`numbers` for ``float``, parsed straight into an array."""
        cells = self.cells[name] if rows is None else list(compress(self.cells[name], rows))
        try:
            return np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            return np.array(self.numbers(name, rows=rows))  # raises at the first bad cell

    def fractions(self, name: str) -> np.ndarray:
        """A float column in [0, 1]; NaN is outside."""
        values = self.floats(name)
        outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if outside.size:
            r = outside[0]
            raise RowError(r, f"column {name} is {self.cells[name][r].strip()}, outside [0, 1]")
        return values

    def positions(self, name: str, index: dict[str, int], what: str) -> np.ndarray:
        """Look up an id column in ``index``; an unknown id is a :class:`ReferentialError`."""
        ids = self.text(name)
        try:
            return lookup(ids, index)
        except KeyError:
            r = list(map(index.get, ids)).index(None)
            raise RowError(r, f"unknown {what} id {ids[r]!r}", ReferentialError) from None

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


def lookup(ids: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """The int64 positions of ``ids`` in ``index``; an unknown id raises :class:`KeyError`."""
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


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
        start = yield from _plain_blocks(path, handle, columns)
    if start is not None:
        yield from _row_blocks(path, columns, start)


def _check_header(path: Path, reader, columns: list[str]) -> None:
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected header {','.join(columns)}")
    if [c.strip() for c in header] != columns:
        raise DataFormatError(f"{path}: header is {','.join(header)}, expected {','.join(columns)}")


def _plain_blocks(path: Path, handle, columns: list[str]) -> Generator[Block, None, int | None]:
    """Yield the plain blocks that open the file (see the module notes).

    Return None at the end of the file, or else the ``start`` of the first
    block that is not plain, for :func:`_row_blocks` to read on from.
    """
    try:
        _check_header(path, csv.reader(handle), columns)
    except (UnicodeDecodeError, csv.Error):
        return 0
    width, limit = len(columns), csv.field_size_limit()
    start = 0
    while True:
        try:
            lines = list(islice(handle, BLOCK_ROWS))
        except UnicodeDecodeError:
            return start
        if not lines:
            return None
        text = "".join(lines)
        if not text.endswith("\n"):
            text += "\n"
        if '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text[0] == "\n" or (
            len(text) > limit and max(map(len, lines)) > limit
        ):
            return start
        # each line end becomes a cell of its own: every line has ``width`` fields
        # exactly when those cells sit ``width + 1`` apart
        cells = text.replace("\n", ",\n,").split(",")
        del cells[-1]
        rows = len(lines)
        if len(cells) != rows * (width + 1) or cells[width::width + 1].count("\n") != rows:
            return start
        yield Block(path, start, columns, [cells[k::width + 1] for k in range(width)])
        start += rows


def _row_blocks(path: Path, columns: list[str], start: int) -> Iterator[Block]:
    """:func:`read_blocks` row by row with :mod:`csv`, from non-blank row ``start`` on."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows: list[list[str]] = []
        failure = None
        try:
            _check_header(path, reader, columns)
            for _ in islice(filter(None, reader), start):
                pass
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


class Cells(list):
    """One block of a column that is CSV cells already: written as it is."""


def to_cells(column) -> list[str]:
    """One block of a column as CSV cells."""
    if isinstance(column, Cells):
        return column
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
        fh.write(",".join(to_cells(header)) + "\n")
        for block in blocks:
            fh.write("\n".join(map(",".join, zip(*map(to_cells, block)))) + "\n")


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
