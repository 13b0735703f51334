"""The CSV format of every emitted log and analysis table.

Rows end in CRLF, the csv module's default. Floats are written with repr,
so every value reads back bit for bit; ints stay ints and None is an
empty cell. The reader turns a malformed header, row or cell into an
InputError, so a damaged run directory never surfaces as a traceback.

format_rows writes the rows of all-numeric columns (int, uint or float
arrays) with one "%r,...,%r\r\n" template instead of the csv module: %r
of a Python int is its str and of a float its repr, which are the cells
csv.writer prints for them, and numbers never need quoting. Any other
column, bool arrays included, keeps csv.writer, its quoting and its empty
cells for None.

No table is ever built as one string: write_table formats and writes its
columns BLOCK_ROWS rows at a time, so the text in memory is bounded
whatever the row count. The harness writes event logs the same way, and
a lane that shares its first rounds with a lane already written copies
them as a byte prefix of that lane's file instead of formatting them
again. Every file goes to path + ".tmp" and is moved onto path with
os.replace (atomic_open), so a failed write leaves the old bytes, or no
file, never half a file; a killed process can leave only the temp file,
which the next write of path replaces.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np

from .errors import InputError

BLOCK_ROWS = 2048  # rows formatted per write; bounds the text held in memory


def format_rows(columns) -> str:
    """Row i from the i-th entry of every column, as CSV text.

    Columns are equal-length lists or 1-d arrays; arrays go through
    tolist(), so an int array prints ints and a float array repr floats.
    """
    numeric = all(isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns)
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns], strict=True)
    if numeric:
        return "".join(map((",".join(["%r"] * len(columns)) + "\r\n").__mod__, rows))
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue()


def header_line(names) -> str:
    """The CSV header row of names."""
    return format_rows([[name] for name in names])


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the BLOCK_ROWS-row blocks that cover n rows."""
    return [(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """open(path + ".tmp", mode, **kwargs), moved onto path when the block ends.

    os.replace swaps the whole file in at once, so path holds either its
    old bytes or all of the new ones. If the block raises, the temp file
    is removed and path is left as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_table(path, header, columns) -> None:
    """Write header, then the rows of columns, one block of rows at a time."""
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    with atomic_open(path, "w", newline="") as f:
        f.write(header_line(header))
        for lo, hi in row_blocks(n):
            f.write(format_rows([c[lo:hi] for c in columns]))


def read_table(path, header) -> list:
    """The columns of a table written by write_table.

    header maps each column name, in order, to int, float or str; a file
    whose header row differs raises InputError. Int and float columns come
    back as int64 and float64 arrays, str columns as lists.
    """
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, csv.Error, UnicodeDecodeError) as e:
        raise InputError(f"{path}: not a readable CSV table: {e}") from None
    if not rows:
        raise InputError(f"{path}: empty file")
    names, *rows = rows
    if names != list(header):
        raise InputError(f"{path}: unexpected header {names!r}")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise InputError(f"{path}: row {i} has {len(row)} cells, expected {len(names)}")
    columns = []
    for (name, kind), cells in zip(header.items(), zip(*rows) if rows else [()] * len(names)):
        try:
            columns.append(list(cells) if kind is str else np.fromiter(map(kind, cells), kind))
        except (ValueError, OverflowError) as e:
            raise InputError(f"{path}: bad {name!r} cell: {e}") from None
    return columns
