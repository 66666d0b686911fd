"""CSV reading/writing for count grids.

A grid file is plain CSV of non-negative integers: one row per spatial
row ``s`` (ascending), one column per ``t`` (ascending).  An optional
single header line can be skipped on read; ``write_grid`` never writes
one.  Rejections carry the offending file row/column (1-based, counting
any header line) so a bad cell in a large file can be found directly.

A file whose data lines hold only ASCII digits, commas, spaces, tabs and
line ends is read by one ``np.loadtxt``; any other file, and any file
``loadtxt`` refuses, is read by the CSV reader that locates the fault.
"""

import csv
import io

import numpy as np

from .errors import ValidationError
from .model import CountGrid

__all__ = ["read_grid", "write_grid"]

_INT64_MAX = int(np.iinfo(np.int64).max)
_PLAIN_BYTES = b"0123456789, \t"  # line ends are split off first


def read_grid(path, header=False):
    """Read a CountGrid from a CSV file of non-negative integers.

    Raises ValidationError, naming the file position, for: a cell that is
    not ASCII digits (a negative count is named as such) or is beyond
    int64, ragged rows, or an empty file; and,
    naming the file, for bytes that are not UTF-8 CSV text.
    ``header=True`` skips the first line; blank lines are skipped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read grid file: {exc}") from None
    counts = _plain_counts(data, header)
    if counts is None:
        counts = _located_counts(path, data, header)
    return CountGrid(counts)


def _plain_counts(data, header):
    """The counts of file bytes ``data`` by one ``np.loadtxt``, or None
    where the file is not plain: a data line holds a byte other than ASCII
    digits, commas, spaces and tabs, or a line is longer than the CSV
    reader's field limit, or the header line holds a quote (a quoted field
    may span lines) or NUL or is not UTF-8, or ``loadtxt`` refuses the
    lines.  Lines without a digit are blank records, skipped."""
    lines = data.splitlines()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    if header and lines:
        first = lines.pop(0)
        if b'"' in first or b"\0" in first:
            return None
        try:
            first.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if any(line.translate(None, _PLAIN_BYTES) for line in lines):
        return None
    kept = [line.decode("ascii") for line in lines if line.strip(b" \t,")]
    if not kept:
        return None
    try:
        return np.loadtxt(kept, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError:
        return None


def _located_counts(path, data, header):
    """The counts of file bytes ``data``, read record by record by the CSV
    reader, refusing the first faulty cell or row by its file position."""
    try:
        records = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        rows = [(r, _parse_row(path, record, r))
                for r, record in enumerate(records)
                if not (header and r == 0)
                and any(cell.strip() for cell in record)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not UTF-8 CSV text ({exc})") from None
    if not rows:
        raise ValidationError(f"{path}: empty grid file")
    width = len(rows[0][1])
    for r, parsed in rows:
        if len(parsed) != width:
            raise ValidationError(
                f"{path}: ragged rows — row {r + 1} has {len(parsed)} cells,"
                f" expected {width}"
            )
    return np.array([parsed for _, parsed in rows], dtype=np.int64)


def _parse_row(path, record, r):
    """The counts of CSV ``record``, file row r (0-based): ASCII digits once
    whitespace is stripped, checked by row and located only on failure."""
    cells = [cell.strip() for cell in record]
    if not (_is_count("".join(cells)) and all(cells)):
        c = next(c for c, text in enumerate(cells) if not _is_count(text))
        text, where = cells[c], f"at row {r + 1}, column {c + 1}"
        if text[:1] == "-" and _is_count(text[1:]) and int(text) < 0:
            raise ValidationError(f"{path}: negative count {int(text)} {where}")
        raise ValidationError(f"{path}: non-integer cell {text!r} {where}")
    parsed = list(map(int, cells))
    if max(parsed) > _INT64_MAX:
        c = next(c for c, value in enumerate(parsed) if value > _INT64_MAX)
        raise ValidationError(f"{path}: count {parsed[c]} too large for int64"
                              f" at row {r + 1}, column {c + 1}")
    return parsed


def _is_count(text):
    return text.isascii() and text.isdigit()


def write_grid(grid, path):
    """Write a CountGrid as headerless integer CSV (read_grid round-trips)."""
    np.savetxt(path, grid.values, fmt="%d", delimiter=",")
