"""The one CSV format of every file netstress reads or writes.

UTF-8, '.' decimal separator, no thousands separators, a header row that
must match exactly, the same number of fields on every row and ``\\n`` line
ends. Floats are written with :func:`fmt` (``repr``), so they read back bit
for bit. Every read error raises :class:`DataFormatError` naming the file
and, past the header, the line.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .economy import DataFormatError


def fmt(x: float) -> str:
    """A float as the shortest text that reads back to the same value."""
    return repr(float(x))


def read_rows(path: Path, columns: list[str]):
    """Yield (line_number, row_dict) from a headered CSV, checking the header."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    with handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None:
                raise DataFormatError(f"{path}: empty file, expected header {','.join(columns)}")
            if [c.strip() for c in reader.fieldnames] != columns:
                raise DataFormatError(
                    f"{path}: header is {','.join(reader.fieldnames)}, expected {','.join(columns)}"
                )
            for row in reader:
                if None in row.values() or None in row:
                    raise DataFormatError(f"{path} line {reader.line_num}: wrong number of fields")
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path} line {reader.line_num}: {exc}") from exc


def parse(path: Path, line: int, name: str, value: str, kind=float):
    """Convert one cell with ``kind`` (``float`` or ``int``)."""
    try:
        return kind(value)
    except ValueError as exc:
        raise DataFormatError(
            f"{path} line {line}: column {name} is not {kind.__name__}: {value!r}"
        ) from exc


def parse_fraction(path: Path, line: int, name: str, value: str) -> float:
    """A number in [0, 1]; NaN is outside."""
    x = parse(path, line, name, value)
    if not 0.0 <= x <= 1.0:
        raise DataFormatError(f"{path} line {line}: column {name} is {value.strip()}, outside [0, 1]")
    return x


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and then ``rows``, with floats already passed through :func:`fmt`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
