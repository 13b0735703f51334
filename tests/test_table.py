"""The emitted CSV format: exact bytes per writer, exact round trips, one owner."""

import ast
import csv
import io
import math
import pathlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asslab import harness, table
from asslab.acquisition import STRATEGIES
from asslab.analysis import (
    PairwiseResult,
    SnapshotSeries,
    export_series,
    load_series,
    write_pairwise_matrix,
    write_pseudo_ratio,
    write_spearman_series,
    write_ti_profile,
)
from asslab.data import Dataset, export_dataset
from asslab.errors import InputError
from asslab.table import BLOCK_ROWS, format_rows, read_table, write_table
from asslab.tracker import TrackerSnapshot, load_snapshot_csv

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "asslab"
SUBNORMAL = 5e-324
SNAPSHOT_FIELDS = ("u_mean", "u_var", "u_ucb", "i_mean", "i_var", "i_ucb", "score")


def report(seed, strategy, round_index, acc, ids, scores=None, losses=(0.0, 0.0, 0.0),
           n_events=0, n_labeled=0):
    sup, unsup, mask = losses
    return harness.RoundReport(
        seed=seed, strategy=strategy, round_index=round_index, test_accuracy=acc,
        supervised_loss=sup, unsupervised_loss=unsup, mask_rate=mask,
        n_events=n_events, n_labeled_after=n_labeled,
        acquired_ids=np.asarray(ids, dtype=np.int64),
        acquisition_scores=None if scores is None else np.asarray(scores, dtype=np.float64),
        acquisition_seconds=0.0, params=None,
    )


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def float_bits(v):
    return struct.pack("<d", v)


# Every row ends in CRLF, floats print as repr, ints as ints, None as "".
REPORTS = [
    report(3, "random", 0, 0.1, [7, 2], losses=(-0.0, SUBNORMAL, 0.0),
           n_events=64, n_labeled=25),
    report(3, "ucb-product", 1, math.nan, [4], scores=[-0.0], losses=(1.5, 0.25, 0.75),
           n_events=128, n_labeled=30),
]


def write_rounds(path):
    harness._write_rounds_csv(path, REPORTS)


def write_acquisitions(path):
    harness._write_acquisitions_csv(path, REPORTS)


def write_events(path):
    # One trained round's columns: step, sample_id, then the weak and the
    # strong probability of each class. The step-2 rows wrap an epoch of
    # the unlabeled stream: ids 5, 0. The event table is a .npy file;
    # path gets its rows as the oracle formats them after np.load.
    npy = f"{path}.npy"
    harness._write_events_csv(npy, [
        np.array([1, 1, 2, 2]), np.array([3, 4, 5, 0]),
        np.array([0.1, 1.0, 0.25, -0.0]), np.array([0.9, 0.0, 0.75, 1.0]),
        np.array([0.5, SUBNORMAL, 0.3, 0.2]), np.array([0.5, 1.0, 0.7, 0.8]),
    ])
    with open(path, "wb") as f:
        f.write(oracles.round_events_csv(npy))


def write_series(path):
    export_series(SnapshotSeries(
        ids=np.array([2, 5]), steps=np.array([10, 20]),
        labels=np.array([[0, 1], [1, 1]]),
        uncertainty=np.array([[0.1, -0.0], [SUBNORMAL, 0.5]]),
        max_prob=np.array([[0.9, 1.0], [0.75, 0.5]]),
    ), path)


def write_snapshot(path):
    TrackerSnapshot(
        ids=np.array([4, 1]), u_mean=np.array([0.1, -0.0]),
        u_var=np.array([SUBNORMAL, 0.0]), u_ucb=np.array([0.5, 1.0]),
        i_mean=np.array([0.25, 2.0]), i_var=np.array([0.0, 0.0]),
        i_ucb=np.array([1.5, 3.0]), score=np.array([0.75, 3.0]),
    ).export_csv(path)


def write_dataset(path):
    export_dataset(Dataset(
        x=np.array([[0.1, -0.0], [SUBNORMAL, 1.0], [2.5, -3.0]]),
        y=np.array([1, 0, 1]),
    ), path)


def write_ti(path):
    write_ti_profile(path, [(0, 3, 0.1, -0.0), (2, 1, SUBNORMAL, 0.0)])


def write_spearman(path):
    write_spearman_series(path, [0.5, None, -0.0])


def write_ratio(path):
    write_pseudo_ratio(path, [("u_ucb", 0.01, 0.1), ("i_ucb", 0.1, -0.0)])


def write_pairwise(path):
    write_pairwise_matrix(path, PairwiseResult(
        strategies=["random", "entropy"], settings=["s1", "s2"],
        matrix=np.array([[0, 2], [1, 0]], dtype=np.int64),
        column_means=np.array([0.5, 1.0]),
    ))


EXACT = {
    "rounds": (write_rounds, [
        "seed,strategy,round,test_accuracy,supervised_loss,unsupervised_loss,"
        "mask_rate,n_events,n_labeled",
        "3,random,0,0.1,-0.0,5e-324,0.0,64,25",
        "3,ucb-product,1,nan,1.5,0.25,0.75,128,30",
    ]),
    "acquisitions": (write_acquisitions, [
        "round,strategy,rank,sample_id,score",
        "0,random,0,7,",
        "0,random,1,2,",
        "1,ucb-product,0,4,-0.0",
    ]),
    "events": (write_events, [
        "step,sample_id,p_w0,p_w1,p_s0,p_s1",
        "1,3,0.1,0.9,0.5,0.5",
        "1,4,1.0,0.0,5e-324,1.0",
        "2,5,0.25,0.75,0.3,0.7",
        "2,0,-0.0,1.0,0.2,0.8",
    ]),
    "series": (write_series, [
        "step,sample_id,label,uncertainty,max_prob",
        "10,2,0,0.1,0.9",
        "10,5,1,-0.0,1.0",
        "20,2,1,5e-324,0.75",
        "20,5,1,0.5,0.5",
    ]),
    "snapshot": (write_snapshot, [
        "sample_id,u_mean,u_var,u_ucb,i_mean,i_var,i_ucb,score",
        "4,0.1,5e-324,0.5,0.25,0.0,1.5,0.75",
        "1,-0.0,0.0,1.0,2.0,0.0,3.0,3.0",
    ]),
    "dataset": (write_dataset, [
        "id,x0,x1,y",
        "0,0.1,-0.0,1",
        "1,5e-324,1.0,0",
        "2,2.5,-3.0,1",
    ]),
    "ti_profile": (write_ti, [
        "ti,count,mean_u,std_u",
        "0,3,0.1,-0.0",
        "2,1,5e-324,0.0",
    ]),
    "spearman": (write_spearman, [
        "pair_index,spearman",
        "0,0.5",
        "1,",
        "2,-0.0",
    ]),
    "pseudo_ratio": (write_ratio, [
        "metric,top_frac,ratio",
        "u_ucb,0.01,0.1",
        "i_ucb,0.1,-0.0",
    ]),
    "pairwise": (write_pairwise, [
        "strategy,random,entropy",
        "random,0,2",
        "entropy,1,0",
        "column_mean,0.5,1.0",
    ]),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_writer_bytes(tmp_path, name):
    write, lines = EXACT[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


# Finite floats, with -0.0 and subnormals drawn on purpose as well.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, SUBNORMAL, 2.2250738585072009e-308]
)
int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def series(draw):
    t = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    steps = sorted(draw(st.sets(st.integers(0, 10**6), min_size=t, max_size=t)))
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))

    def grid(elements):
        return draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=t, max_size=t))

    return SnapshotSeries(
        ids=np.array(ids, dtype=np.int64), steps=np.array(steps, dtype=np.int64),
        labels=np.array(grid(st.integers(0, 9)), dtype=np.int64),
        uncertainty=np.array(grid(finite), dtype=np.float64),
        max_prob=np.array(grid(finite), dtype=np.float64),
    )


@st.composite
def snapshots(draw):
    n = draw(st.integers(0, 5))
    column = st.lists(finite, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64))
    return TrackerSnapshot(
        ids=np.array(draw(st.lists(int64s, min_size=n, max_size=n)), dtype=np.int64),
        **{name: draw(column) for name in SNAPSHOT_FIELDS},
    )


@st.composite
def datasets(draw):
    k = draw(st.integers(1, 3))
    y = list(range(k)) + draw(st.lists(st.integers(0, k - 1), max_size=4))
    d = draw(st.integers(1, 3))
    x = draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                      min_size=len(y), max_size=len(y)))
    return Dataset(x=np.array(x, dtype=np.float64),
                   y=np.array(y, dtype=np.int64))


@st.composite
def rounds_logs(draw):
    rounds = draw(st.integers(1, 3))
    accuracy = finite | st.just(math.nan)  # n_test=0 evaluates to nan
    reports = [
        report(draw(st.integers(0, 99)), draw(st.sampled_from(STRATEGIES)),
               draw(st.integers(0, rounds - 1)), draw(accuracy), [],
               losses=(draw(finite), draw(finite), draw(finite)),
               n_events=draw(st.integers(0, 10**6)), n_labeled=draw(st.integers(0, 10**6)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return rounds, reports


class TestRoundTrip:
    @settings(deadline=None)
    @given(series())
    def test_series(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("series") / "s.csv"
        export_series(s, path)
        back = load_series(path)
        for name in ("ids", "steps", "labels", "uncertainty", "max_prob"):
            assert_bits_equal(getattr(back, name), getattr(s, name))

    @settings(deadline=None)
    @given(snapshots())
    def test_snapshot(self, tmp_path_factory, snap):
        path = tmp_path_factory.mktemp("snap") / "s.csv"
        snap.export_csv(path)
        back = load_snapshot_csv(path)
        for name in ("ids",) + SNAPSHOT_FIELDS:
            assert_bits_equal(getattr(back, name), getattr(snap, name))

    @settings(deadline=None)
    @given(datasets())
    def test_dataset(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("data") / "d.csv"
        export_dataset(ds, path)
        back = oracles.import_dataset(path)
        for name in ("x", "y"):
            assert_bits_equal(getattr(back, name), getattr(ds, name))

    @settings(deadline=None)
    @given(rounds_logs())
    def test_final_accuracies(self, tmp_path_factory, log):
        rounds, reports = log
        path = tmp_path_factory.mktemp("rounds") / "rounds.csv"
        harness._write_rounds_csv(path, reports)
        keys = [(r.seed, r.strategy, r.round_index) for r in reports]
        if len(set(keys)) < len(keys):  # no emitted log repeats a round
            with pytest.raises(InputError, match="twice"):
                harness._final_accuracies(path, rounds)
            return
        expected = {(r.strategy, r.seed): r.test_accuracy
                    for r in reports if r.round_index == rounds - 1}
        back = harness._final_accuracies(path, rounds)
        assert list(back) == list(expected)
        assert [float_bits(v) for v in back.values()] == [
            float_bits(v) for v in expected.values()]


def csv_writer_rows(columns):
    text = io.StringIO(newline="")
    csv.writer(text).writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                                     for c in columns]))
    return text.getvalue()


# Values whose repr takes every form: nan, inf, -0.0, subnormals, and both
# sides of the exponent forms at 1e-5 and 1e16.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-5, -1e-5, 0.0001, 1e16,
               9999999999999998.0]
NUMERIC_DTYPES = {
    "int64": int64s,
    "uint8": st.integers(0, 2**8 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "float32": st.floats(width=32) | st.sampled_from(EDGE_FLOATS + [1e-45, 3.4028235e38]),
    "float64": st.floats() | st.sampled_from(EDGE_FLOATS + [SUBNORMAL, 1.7976931348623157e308]),
}


@st.composite
def numeric_columns(draw):
    n = draw(st.integers(0, 6))
    return [np.array(draw(st.lists(NUMERIC_DTYPES[dtype], min_size=n, max_size=n)),
                     dtype=dtype)
            for dtype in draw(st.lists(st.sampled_from(sorted(NUMERIC_DTYPES)),
                                       min_size=1, max_size=4))]


class TestFormatRows:
    @settings(deadline=None)
    @given(numeric_columns())
    def test_numeric_rows_match_csv_writer(self, columns):
        assert format_rows(columns) == csv_writer_rows(columns)

    @pytest.mark.parametrize("other", [
        ["a,b", "c"], [None, 1.5], np.array([True, False]), ['say "hi"', ""],
    ])
    def test_other_columns_keep_csv_quoting(self, other):
        columns = [np.array([1, 2]), np.array([0.5, -0.0]), other]
        assert format_rows(columns) == csv_writer_rows(columns)
        assert format_rows([other]) == csv_writer_rows([other])

    def test_quoting_and_empty_cells(self):
        assert format_rows([np.array([1, 2]), ["a,b", None]]) == '1,"a,b"\r\n2,\r\n'

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            format_rows([np.array([1, 2]), np.array([0.5])])


def numeric_header(columns):
    return {f"c{j}": int if c.dtype.kind in "iu" else float for j, c in enumerate(columns)}


def read_outcome(reader, path, header, error):
    """The columns that reader returns from path, or None where it raises error."""
    try:
        return reader(path, header)
    except error:
        return None


def assert_columns_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert_bits_equal(a, b)
        assert a.flags.c_contiguous


@st.composite
def numeric_tables(draw):
    """numeric_columns() of 0, 1 or BLOCK_ROWS + 1 rows, each column's cells
    picked from a few drawn values: a draw per cell of 2,049 rows would
    overrun Hypothesis's buffer."""
    n = draw(st.sampled_from([0, 1, BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for dtype in draw(st.lists(st.sampled_from(sorted(NUMERIC_DTYPES)), min_size=1, max_size=4)):
        values = draw(st.lists(NUMERIC_DTYPES[dtype], min_size=1, max_size=6))
        columns.append(np.array(values, dtype=dtype)[rng.integers(len(values), size=n)])
    return columns


# int64's extremes and floats whose repr takes every form, subnormals
# included; the ints are padded to the floats' count, one pair per row.
EDGE_INTS = [-(2**63), 2**63 - 1, 0, -1, 2**53 + 1, -(2**53) - 1, 10, 7, 1, 12, 99]
EDGE_VALUES = EDGE_FLOATS + [SUBNORMAL, 2.2250738585072009e-308]
# Bytes a mutation splices in: random ones, or runs of number syntax,
# separators, quotes, whitespace and non-ASCII digits and spaces.
MUTATIONS = st.binary(max_size=8) | st.lists(st.sampled_from([
    b"0", b"1", b"9", b".", b",", b"-", b"+", b"e", b"_", b'"', b" ", b"\t", b"\r", b"\n",
    b"\r\n", b"nan", b"inf", b"\x0c", b"\x00", "\uff11".encode(), "\u0661".encode(),
    "\xa0".encode(), "\u3000".encode(),
]), max_size=6).map(b"".join)


def new_rejection(text: str) -> bool:
    """Whether text holds what int() or float() takes but np.loadtxt refuses
    in a number: a quote, a digit separator or a non-ASCII digit."""
    return '"' in text or "_" in text or any(c.isdecimal() and not c.isascii() for c in text)


class TestNumericReader:
    """read_table's np.loadtxt path against the csv module's reader."""

    @settings(deadline=None)
    @given(numeric_columns() | numeric_tables())
    def test_written_tables_match_the_csv_oracle(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("numeric") / "t.csv"
        header = numeric_header(columns)
        write_table(path, list(header), columns)
        expected = read_outcome(oracles.read_table_csv, path, header, ValueError)
        got = read_outcome(read_table, path, header, InputError)
        if expected is None:  # a uint64 past int64
            assert got is None
        else:
            assert_columns_equal(got, expected)

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1])
    def test_edge_values_match_the_csv_oracle(self, tmp_path, n):
        header = {"i": int, "f": float}
        for start in range(len(EDGE_INTS)) if n == 1 else [0]:
            columns = [np.resize(np.roll(np.array(values), -start), n)
                       for values in (EDGE_INTS, EDGE_VALUES)]
            write_table(tmp_path / "t.csv", list(header), columns)
            got = read_table(tmp_path / "t.csv", header)
            assert_columns_equal(got, oracles.read_table_csv(tmp_path / "t.csv", header))
            assert_columns_equal(got, columns)
            assert [c.dtype for c in got] == [np.int64, np.float64]

    @settings(deadline=None, max_examples=300)
    @given(numeric_columns(), st.data())
    def test_mutated_file_is_refused_where_the_oracle_refuses(
            self, tmp_path_factory, columns, data):
        # Otherwise it gives the oracle's arrays, unless the text holds one
        # of the new rejections.
        path = tmp_path_factory.mktemp("mutated") / "t.csv"
        header = numeric_header(columns)
        write_table(path, list(header), columns)
        text = path.read_bytes()
        lo = data.draw(st.integers(0, len(text)))
        hi = data.draw(st.integers(lo, min(len(text), lo + 16)))
        mutated = text[:lo] + data.draw(MUTATIONS) + text[hi:]
        path.write_bytes(mutated)
        expected = read_outcome(oracles.read_table_csv, path, header, ValueError)
        got = read_outcome(read_table, path, header, InputError)
        if expected is None:
            assert got is None
        elif got is None:
            assert new_rejection(mutated.decode())
        else:
            assert_columns_equal(got, expected)

    @pytest.mark.parametrize("row", ['"1",0.5', "1_0,0.5", "1,2_5", "\uff11,0.5", "1,\u0661"])
    def test_new_rejections(self, tmp_path, row):
        # int() and float() take these cells; write_table never writes them.
        path = tmp_path / "t.csv"
        path.write_bytes(f"i,f\r\n{row}\r\n".encode())
        header = {"i": int, "f": float}
        assert oracles.read_table_csv(path, header) is not None
        with pytest.raises(InputError, match="could not convert"):
            read_table(path, header)

    @pytest.mark.parametrize("body", [
        "\r\n1,0.5\r\n", "1,0.5\r\n\r\n2,0.5\r\n", "1,0.5\r\n\r\n", "1,0.5\r\r\n",
        "1\r\n", "1,0.5,2\r\n", "1,x\r\n", "1,\r\n", "1.0,0.5\r\n", "1e3,0.5\r\n",
        "9223372036854775808,0.5\r\n", "-9223372036854775809,0.5\r\n", " \r\n",
    ])
    def test_bad_rows_raise_one_line_naming_the_path(self, tmp_path, body):
        # Blank lines (np.loadtxt would skip them), a wrong cell count, a
        # non-numeric cell, a float in an int column, an int past int64.
        path = tmp_path / "t.csv"
        path.write_bytes(f"i,f\r\n{body}".encode())
        header = {"i": int, "f": float}
        with pytest.raises(ValueError):
            oracles.read_table_csv(path, header)
        with pytest.raises(InputError) as e:
            read_table(path, header)
        assert str(e.value).startswith(f"{path}: ") and "\n" not in str(e.value)

    @pytest.mark.parametrize("row, line, message", [
        ("", 2, "line 2 is blank"),
        ("1", 2, "line 2 has 1 cells, expected 2"),
        ("1,x", 2, "line 2: bad 'f' cell: could not convert string 'x' to float64"),
        ("1.0,0.5", 2, "line 2: bad 'i' cell: could not convert string '1.0' to int64"),
        ("", 1502, "line 1502 is blank"),
        ("1,0.5,", 1502, "line 1502 has 3 cells, expected 2"),
        ("x,0.5", 1502, "line 1502: bad 'i' cell: could not convert string 'x' to int64"),
        ("9223372036854775808,0.5", 3001,
         "line 3001: bad 'i' cell: could not convert string '9223372036854775808' to int64"),
        ("1,", 3001, "line 3001: bad 'f' cell: could not convert string '' to float64"),
    ])
    def test_bad_row_is_named_by_its_file_line(self, tmp_path, row, line, message):
        # The header is line 1; 3,000 data rows, one of them bad and the
        # ones after it bad too, so only the first is named.
        rows = ["1,0.5"] * 3000
        rows[line - 2:] = [row] * (3002 - line)
        path = tmp_path / "t.csv"
        path.write_bytes("\r\n".join(["i,f", *rows, ""]).encode())
        with pytest.raises(InputError) as e:
            read_table(path, {"i": int, "f": float})
        assert str(e.value) == f"{path}: {message}"

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        for text in ("i,f\r\n", "i,f"):
            path.write_bytes(text.encode())
            got = read_table(path, {"i": int, "f": float})
            assert_columns_equal(got, [np.empty(0, np.int64), np.empty(0, np.float64)])

    def test_unexpected_header_and_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"i,g\r\n1,0.5\r\n")
        with pytest.raises(InputError, match="unexpected header"):
            read_table(path, {"i": int, "f": float})
        path.write_bytes(b"")
        with pytest.raises(InputError, match="empty file"):
            read_table(path, {"i": int, "f": float})

    def test_a_numpy_warning_is_an_input_error(self, tmp_path, monkeypatch):
        # As numpy 1.x's deprecated parse of an int via a float warns, in
        # a message of several lines: the error keeps the first.
        def warning_loadtxt(*args, **kwargs):
            warnings.warn("int via float\nis deprecated", DeprecationWarning, stacklevel=2)
            return np.zeros(1, args[1])

        path = tmp_path / "t.csv"
        path.write_bytes(b"i,f\r\n1,0.5\r\n")
        monkeypatch.setattr(table.np, "loadtxt", warning_loadtxt)
        with pytest.raises(InputError) as e:
            read_table(path, {"i": int, "f": float})
        assert str(e.value) == f"{path}: line 2: int via float"

    def test_tables_with_a_str_column_keep_the_csv_module(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table.np, "loadtxt", None)  # any call would raise
        path = tmp_path / "t.csv"
        write_table(path, ["s", "i"], [['"1"', "a,b"], [10, 2]])
        got = read_table(path, {"s": str, "i": int})
        assert got[0] == ['"1"', "a,b"]
        assert_bits_equal(got[1], np.array([10, 2]))


@pytest.mark.parametrize("body, message", [
    ("a\r\n", "line 2 has 1 cells, expected 3"),
    ('"a\r\nb",1,1\r\nc,2,2\r\nd\r\n', "line 5 has 1 cells, expected 3"),
    ("a,x,1\r\n", "line 2: bad 'i' cell: invalid literal for int() with base 10: 'x'"),
    # Column by column, the 'i' cell of line 4 would fail first.
    ('"a\r\nb",1,1\r\nc,1,x\r\nd,x,1\r\n',
     "line 4: bad 'j' cell: invalid literal for int() with base 10: 'x'"),
    ("a,1,1\r\nb,1,9223372036854775808\r\n",
     "line 3: bad 'j' cell: Python int too large to convert to C long"),
])
def test_str_table_names_a_bad_row_by_its_file_line(tmp_path, body, message):
    # The csv module's path: a quoted cell may span lines, so a row's line
    # is where it starts, the header being line 1.
    path = tmp_path / "t.csv"
    path.write_bytes(f"s,i,j\r\n{body}".encode())
    with pytest.raises(InputError) as e:
        read_table(path, {"s": str, "i": int, "j": int})
    assert str(e.value) == f"{path}: {message}"


class Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


class TestWriteTable:
    @settings(deadline=None)
    @given(numeric_columns(), st.integers(1, 7))
    def test_blocks_match_one_string(self, tmp_path_factory, columns, block_rows):
        # Written a block of rows at a time, below, at or above the row
        # count: the bytes of the header and all rows as one string.
        path = tmp_path_factory.mktemp("blocks") / "t.csv"
        header = [f"c{j}" for j in range(len(columns))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(table, "BLOCK_ROWS", block_rows)
            write_table(path, header, columns)
        assert path.read_bytes() == (csv_writer_rows([[h] for h in header])
                                     + csv_writer_rows(columns)).encode()

    def test_quoted_cells_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table, "BLOCK_ROWS", 2)
        columns = [np.arange(5), ["a,b", None, 'say "hi"', "", "x"], [0.5, -0.0, None, 1e16, 2]]
        write_table(tmp_path / "t.csv", ["id", "text", "value"], columns)
        assert (tmp_path / "t.csv").read_bytes() == (
            "id,text,value\r\n" + csv_writer_rows(columns)).encode()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        write_table(path, ["v"], [[1, 2]])
        monkeypatch.setattr(table, "BLOCK_ROWS", 1)
        with pytest.raises(RuntimeError, match="no text"):
            write_table(path, ["v"], [[3, Unprintable()]])  # fails in the second block
        assert path.read_bytes() == b"v\r\n1\r\n2\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_unequal_lengths_write_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.arange(3), np.arange(4)])
        assert list(tmp_path.iterdir()) == []


def test_only_the_table_module_imports_csv():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["table.py"]
