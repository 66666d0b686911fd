"""CSV reading/writing for count grids.

A grid file is plain CSV of non-negative integers: one row per spatial
row ``s`` (ascending), one column per ``t`` (ascending).  An optional
single header line can be skipped on read; ``write_grid`` never writes
one.  Rejections carry the offending file row/column (1-based, counting
any header line) so a bad cell in a large file can be found directly.
"""

import csv

import numpy as np

from .errors import ValidationError
from .model import CountGrid

__all__ = ["read_grid", "write_grid"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def read_grid(path, header=False):
    """Read a CountGrid from a CSV file of non-negative integers.

    Raises ValidationError, naming the file position, for: a non-integer,
    negative or beyond-int64 cell, ragged rows, or an empty file; and,
    naming the file, for bytes that are not UTF-8 CSV text.
    ``header=True`` skips the first line; blank lines are skipped.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read grid file: {exc}") from None
    with handle as fh:
        try:
            rows = [(r, _parse_row(path, record, r))
                    for r, record in enumerate(csv.reader(fh))
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
    return CountGrid(np.array([parsed for _, parsed in rows], dtype=np.int64))


def _parse_row(path, record, r):
    """The counts of CSV ``record``, file row r (0-based)."""
    parsed = []
    for c, cell in enumerate(record):
        text = cell.strip()
        try:
            value = int(text)
        except ValueError:
            raise ValidationError(
                f"{path}: non-integer cell {text!r} at row {r + 1},"
                f" column {c + 1}"
            ) from None
        if value < 0:
            raise ValidationError(
                f"{path}: negative count {value} at row {r + 1},"
                f" column {c + 1}"
            )
        if value > _INT64_MAX:
            raise ValidationError(
                f"{path}: count {value} too large for int64 at row"
                f" {r + 1}, column {c + 1}"
            )
        parsed.append(value)
    return parsed


def write_grid(grid, path):
    """Write a CountGrid as headerless integer CSV (read_grid round-trips)."""
    np.savetxt(path, grid.values, fmt="%d", delimiter=",")
