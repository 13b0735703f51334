"""The file formats of every emitted log and analysis table.

Rows end in CRLF, the csv module's default. Floats are written with repr,
so every value reads back bit for bit; ints stay ints and None is an
empty cell. The reader turns a malformed header, row or cell into an
InputError, so a damaged run directory never surfaces as a traceback.

format_rows writes the rows of all-numeric columns (int, uint or float
arrays) with one "%r,...,%r\r\n" template instead of the csv module: %r
of a Python int is its str and of a float its repr, which are the cells
csv.writer prints for them, and numbers never need quoting. Any other
column, bool arrays included, keeps csv.writer, its quoting and its empty
cells for None. read_table makes the same split: a table of int and float
columns only goes to np.loadtxt's C reader, with no quote or comment
character, since no number is ever quoted; so it refuses a quoted number,
a digit separator or a non-ASCII digit, which int() and float() would take.

No table is ever built as one string: write_table formats and writes its
columns BLOCK_ROWS rows at a time, so the text in memory is bounded
whatever the row count. Every file goes to path + ".tmp" and is moved
onto path with os.replace (atomic_open), so a failed write leaves the
old bytes, or no file, never half a file; a killed process can leave
only the temp file, which the next write of path replaces.

write_npy writes a table as one structured array in .npy format 1.0, the
bytes np.save writes, for np.load to read back bit for bit: the header
from np.lib.format, then the rows, BLOCK_ROWS at a time through
atomic_open, so it too holds one block in memory and never half a file.

read_table names a bad data row by its file line, the header being line
1: a blank line, a wrong cell count or a bad cell. The line is found only
after the parse has failed (the numeric path bisects np.loadtxt's
max_rows), so a good table costs nothing extra.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import re
import warnings

import numpy as np

from .errors import InputError, InternalError

BLOCK_ROWS = 2048  # rows formatted per write; bounds the text held in memory
# Where np.loadtxt's message puts a bad row: a cell's row counts from 0 and
# its column from 1, a wrong cell count's row from 1.
_LOADTXT_AT = re.compile(r" at row \d+(?:, column (\d+))?\.?")


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
        f.write(format_rows([[name] for name in header]))
        for lo in range(0, n, BLOCK_ROWS):
            f.write(format_rows([c[lo:lo + BLOCK_ROWS] for c in columns]))


def write_npy(path, dtype, columns) -> None:
    """Write columns, one per field of the structured dtype, as one .npy
    array of that dtype, one block of rows at a time."""
    n = len(columns[0])
    with atomic_open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(f, {
            "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (n,)})
        for lo in range(0, n, BLOCK_ROWS):
            block = np.empty(min(BLOCK_ROWS, n - lo), dtype)
            for name, column in zip(dtype.names, columns, strict=True):
                block[name] = column[lo:lo + BLOCK_ROWS]
            f.write(block.tobytes())


def read_table(path, header) -> list:
    """The columns of a table written by write_table.

    header maps each column name, in order, to int, float or str; a file
    whose header row differs raises InputError. Int and float columns come
    back as int64 and float64 arrays, str columns as lists.
    """
    numeric = str not in header.values()
    try:
        # Universal newlines: np.loadtxt reads a lone "\r" as an embedded newline.
        with open(path, newline=None if numeric else "") as f:
            reader = csv.reader(f)
            names = next(reader, None)
            rows = f.read() if numeric else list(reader)  # the text after the header, or its rows
    except (OSError, csv.Error, UnicodeDecodeError) as e:
        raise InputError(f"{path}: not a readable CSV table: {e}") from None
    if names is None:
        raise InputError(f"{path}: empty file")
    if names != list(header):
        raise InputError(f"{path}: unexpected header {names!r}")
    if numeric:
        return _parse_numeric(path, header, rows)
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise InputError(f"{path}: line {_csv_line(path, i)} has {len(row)} cells, "
                             f"expected {len(names)}")
    try:
        return [list(cells) if kind is str else np.fromiter(map(kind, cells), kind)
                for kind, cells in zip(header.values(), zip(*rows) if rows else [()] * len(names))]
    except (ValueError, OverflowError):
        pass  # name the first bad cell in file order
    for i, row in enumerate(rows):
        for (name, kind), cell in zip(header.items(), row):
            try:
                if kind is not str:
                    np.fromiter([kind(cell)], kind)
            except (ValueError, OverflowError) as e:
                raise InputError(f"{path}: line {_csv_line(path, i)}: bad {name!r} cell: {e}") \
                    from None
    raise InternalError(f"{path}: a column failed to convert, but none of its cells")


def _csv_line(path, row) -> int:
    """The file line on which data row `row` (from 0) starts; a quoted cell
    can span lines."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for _ in zip(range(row + 1), reader):  # the header and the rows before
            pass
        return reader.line_num + 1


def _loadtxt(text, dtype, max_rows=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.x warns of an int parsed via float
        return np.loadtxt(io.StringIO(text), dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1, max_rows=max_rows)


def _parse_numeric(path, header, text) -> list:
    """The int64 and float64 columns of the rows after the header, by np.loadtxt."""
    if text.startswith("\n") or "\n\n" in text:  # loadtxt would skip a blank line
        line = 2 if text.startswith("\n") else text.count("\n", 0, text.index("\n\n") + 1) + 2
        raise InputError(f"{path}: line {line} is blank")
    dtype = np.dtype(list(header.items()))
    if not text:
        return [np.empty(0, dtype[name]) for name in header]
    try:
        rows = _loadtxt(text, dtype)
    except (ValueError, Warning) as e:
        raise _numeric_row_error(path, dtype, text, e) from None
    return [np.ascontiguousarray(rows[name]) for name in header]


def _numeric_row_error(path, dtype, text, error) -> InputError:
    """The InputError for the first data row that _loadtxt refuses, given
    its error on the whole text. Each line is one row (no blank line, quote
    or comment), so the shortest failing prefix of max_rows rows ends at
    file line max_rows + 1."""
    good, bad = 0, text.count("\n") + (not text.endswith("\n"))
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _loadtxt(text, dtype, mid)
            good = mid
        except (ValueError, Warning) as e:
            bad, error = mid, e
    line, cells = bad + 1, text.split("\n", bad)[bad - 1].split(",")
    if len(cells) != len(dtype.names):
        return InputError(f"{path}: line {line} has {len(cells)} cells, "
                          f"expected {len(dtype.names)}")
    message = str(error).partition("\n")[0]  # the first line only: 1.x's warning runs on
    at = _LOADTXT_AT.search(message)
    if at:
        message = message[:at.start()] + message[at.end():]
        if at[1]:
            message = f"bad {dtype.names[int(at[1]) - 1]!r} cell: {message}"
    return InputError(f"{path}: line {line}: {message}")
