"""The emitted CSV format: exact bytes per writer, exact round trips, one owner."""

import ast
import csv
import io
import math
import pathlib
import struct

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
from asslab.table import format_rows, write_table
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
    # One list per round, in round order. The step-2 chunk wraps an epoch
    # of the unlabeled iterator: ids 5, 0.
    harness._write_events_csv(path, [[
        (1, np.array([3, 4]), np.array([[0.1, 0.9], [1.0, 0.0]]),
         np.array([[0.5, 0.5], [SUBNORMAL, 1.0]])),
        (2, np.array([5, 0]), np.array([[0.25, 0.75], [-0.0, 1.0]]),
         np.array([[0.3, 0.7], [0.2, 0.8]])),
    ], [
        (1, np.array([2]), np.array([[0.6, 0.4]]), np.array([[0.4, 0.6]])),
    ]], {})


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
        "round,step,sample_id,p_w0,p_w1,p_s0,p_s1",
        "0,1,3,0.1,0.9,0.5,0.5",
        "0,1,4,1.0,0.0,5e-324,1.0",
        "0,2,5,0.25,0.75,0.3,0.7",
        "0,2,0,-0.0,1.0,0.2,0.8",
        "1,1,2,0.6,0.4,0.4,0.6",
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
