import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from asslab.analysis import (
    SnapshotSeries,
    consecutive_snapshot_spearman,
    export_series,
    load_series,
    pairwise_matrix,
    pseudo_label_flags,
    pseudo_labeled_ratio,
    spearman,
    temporal_instability_batch,
    ti_uncertainty_profile,
)
from asslab.errors import InputError


def make_series(labels, uncertainty=None, max_prob=None, ids=None, steps=None):
    labels = np.asarray(labels)
    t, n = labels.shape
    return SnapshotSeries(
        ids=np.arange(n) if ids is None else np.asarray(ids),
        steps=np.arange(1, t + 1) * 100 if steps is None else np.asarray(steps),
        labels=labels,
        uncertainty=np.zeros((t, n)) if uncertainty is None else np.asarray(uncertainty, dtype=float),
        max_prob=np.zeros((t, n)) if max_prob is None else np.asarray(max_prob, dtype=float),
    )


def label_changes(*histories):
    """temporal_instability_batch of one column per label history."""
    return temporal_instability_batch(make_series(np.column_stack(histories))).tolist()


class TestTemporalInstability:
    def test_constant(self):
        assert label_changes([1, 1, 1, 1]) == [0]

    def test_alternating(self):
        assert label_changes([0, 1, 0, 1]) == [3]

    def test_mixed(self):
        assert label_changes([1, 1, 2, 2, 1]) == [2]

    def test_single(self):
        assert label_changes([5], [2]) == [0, 0]

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            temporal_instability_batch(make_series(np.zeros((0, 3), dtype=int)))

    def test_range_and_concat_additivity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t_a, t_b = rng.integers(1, 10, size=2)
            a = rng.integers(0, 3, size=(t_a, 5))
            b = rng.integers(0, 3, size=(t_b, 5))
            ti_a = temporal_instability_batch(make_series(a))
            ti_b = temporal_instability_batch(make_series(b))
            assert np.all((ti_a >= 0) & (ti_a <= t_a - 1))
            joint = temporal_instability_batch(make_series(np.concatenate([a, b])))
            np.testing.assert_array_equal(joint, ti_a + ti_b + (a[-1] != b[0]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(6, 20))
        batch = temporal_instability_batch(make_series(labels))
        for j in range(20):
            assert batch[j] == oracles.temporal_instability(labels[:, j])


class TestSpearman:
    def test_identity(self):
        assert spearman([3.0, 1.0, 2.0, 5.0], [3.0, 1.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_reversal(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert spearman(a, [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_zero_variance_none(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) is None

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            expected = stats.spearmanr(a, b).statistic
            np.testing.assert_allclose(spearman(a, b), expected, atol=1e-12)

    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            expected = stats.spearmanr(a, b).statistic
            ours = spearman(a, b)
            if np.isnan(expected):
                assert ours is None
            else:
                np.testing.assert_allclose(ours, expected, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=20), rng.normal(size=20)
        base = spearman(a, b)
        np.testing.assert_allclose(spearman(np.exp(a), b), base, atol=1e-12)
        np.testing.assert_allclose(spearman(a, 3.0 * b + 7.0), base, atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = spearman(rng.normal(size=10), rng.normal(size=10))
            assert -1.0 <= r <= 1.0

    def test_length_checks(self):
        with pytest.raises(InputError):
            spearman([1.0], [2.0])
        with pytest.raises(InputError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_nan_rejected(self):
        # A NaN would rank above every number and give a finite coefficient.
        with pytest.raises(InputError):
            spearman([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            spearman([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0])

    def test_consecutive_series(self):
        u = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [3.0, 2.0, 1.0]])
        vals = consecutive_snapshot_spearman(make_series(np.zeros((3, 3), dtype=int), uncertainty=u))
        assert vals[0] == pytest.approx(0.5)
        assert vals[1] == pytest.approx(-0.5)


class TestTiProfile:
    def test_constant_labels_single_group(self):
        series = make_series(np.ones((4, 10), dtype=int), uncertainty=np.full((4, 10), 0.3))
        profile = ti_uncertainty_profile(series)
        assert len(profile) == 1
        ti, count, mean, std = profile[0]
        assert (ti, count) == (0, 10)
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.0, abs=1e-15)

    def test_counts_partition_pool(self):
        rng = np.random.default_rng(6)
        series = make_series(rng.integers(0, 2, size=(5, 40)),
                             uncertainty=rng.uniform(size=(5, 40)))
        profile = ti_uncertainty_profile(series)
        assert sum(count for _, count, _, _ in profile) == 40
        assert [row[0] for row in profile] == sorted({row[0] for row in profile})

    def test_high_ti_high_uncertainty_fixture(self):
        # Low-TI samples get near-one-hot uncertainty, high-TI samples get
        # near-uniform; the profile's mean must then increase with TI.
        t, per_group = 6, 8
        labels, u_cols = [], []
        rng = np.random.default_rng(7)
        for ti in range(4):
            for _ in range(per_group):
                lab = np.zeros(t, dtype=int)
                for flip in range(ti):
                    lab[flip + 1 :] = 1 - lab[flip + 1]
                labels.append(lab)
                level = 0.05 + 0.2 * ti
                u_cols.append(level + rng.uniform(0, 0.01, size=t))
        series = make_series(np.stack(labels, axis=1), uncertainty=np.stack(u_cols, axis=1))
        profile = ti_uncertainty_profile(series)
        means = [mean for _, _, mean, _ in profile]
        assert all(a < b for a, b in zip(means, means[1:]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_unique_oracle(self, data):
        t, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, 4))
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=t * n,
                                             max_size=t * n))).reshape(t, n)
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=t * n,
                                        max_size=t * n))).reshape(t, n)
        series = make_series(labels, uncertainty=u)
        assert ti_uncertainty_profile(series) == oracles.ti_uncertainty_profile(labels, u)

    def test_std_is_population(self):
        u = np.array([[0.1, 0.5], [0.3, 0.7]])
        series = make_series(np.zeros((2, 2), dtype=int), uncertainty=u)
        _, _, mean, std = ti_uncertainty_profile(series)[0]
        avg = u.mean(axis=0)
        assert mean == pytest.approx(avg.mean())
        assert std == pytest.approx(avg.std(ddof=0))


class TestPseudoRatio:
    def test_none_exceed(self):
        series = make_series(np.zeros((3, 10), dtype=int), max_prob=np.full((3, 10), 0.5))
        assert pseudo_labeled_ratio(series, np.arange(10.0), 0.5) == 0.0

    def test_all_exceed(self):
        series = make_series(np.zeros((3, 10), dtype=int), max_prob=np.full((3, 10), 0.99))
        for frac in [0.1, 0.5, 1.0]:
            assert pseudo_labeled_ratio(series, np.arange(10.0), frac) == 1.0

    def test_hand_fraction(self):
        # Top-50% by score = ids 9..5 with flags T,T,F,T,F -> 0.6.
        flags = {9: True, 8: True, 7: False, 6: True, 5: False}
        mp = np.zeros((1, 10))
        for i, flagged in flags.items():
            mp[0, i] = 0.99 if flagged else 0.5
        series = make_series(np.zeros((1, 10), dtype=int), max_prob=mp)
        assert pseudo_labeled_ratio(series, np.arange(10.0), 0.5) == pytest.approx(0.6)

    def test_threshold_strict(self):
        series = make_series(np.zeros((1, 4), dtype=int),
                             max_prob=np.array([[0.95, 0.95, 0.96, 0.94]]))
        flags = pseudo_label_flags(series, tau=0.95)
        np.testing.assert_array_equal(flags, [False, False, True, False])

    def test_bad_frac(self):
        series = make_series(np.zeros((1, 4), dtype=int))
        with pytest.raises(InputError):
            pseudo_labeled_ratio(series, np.zeros(4), 0.0)
        with pytest.raises(InputError):
            pseudo_labeled_ratio(series, np.zeros(4), 1.2)

    def test_wrong_length_scores(self):
        series = make_series(np.zeros((1, 4), dtype=int))
        for scores in [[1.0], np.zeros(5), np.zeros((4, 1))]:
            with pytest.raises(InputError):
                pseudo_labeled_ratio(series, scores, 0.5)

    def test_ceil_and_tie_break(self):
        # 3 of 4 -> ceil(0.6*4) = 3 picks; equal scores resolve to lower ids.
        mp = np.array([[0.99, 0.5, 0.5, 0.99]])
        series = make_series(np.zeros((1, 4), dtype=int), max_prob=mp)
        assert pseudo_labeled_ratio(series, np.ones(4), 0.6) == pytest.approx(1.0 / 3.0)


class TestPairwiseMatrix:
    def test_single_setting_ordering(self):
        res = pairwise_matrix(
            {"A": {"s": 0.9}, "B": {"s": 0.8}, "C": {"s": 0.7}}
        )
        np.testing.assert_array_equal(res.matrix, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        np.testing.assert_allclose(res.column_means, [0.0, 1 / 3, 2 / 3])

    def test_identical_accuracies_zero(self):
        res = pairwise_matrix(
            {"A": {"s1": 0.5, "s2": 0.6}, "B": {"s1": 0.5, "s2": 0.6}}
        )
        np.testing.assert_array_equal(res.matrix, np.zeros((2, 2), dtype=int))

    def test_complementarity_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n_set = int(rng.integers(1, 6))
            settings = [f"s{i}" for i in range(n_set)]
            results = {
                name: {s: float(rng.choice([0.5, 0.6, 0.7])) for s in settings}
                for name in ["a", "b", "c"]
            }
            res = pairwise_matrix(results)
            names = res.strategies
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    total = res.matrix[i, j] + res.matrix[j, i]
                    assert total <= n_set
                    ties = sum(
                        results[names[i]][s] == results[names[j]][s] for s in settings
                    )
                    assert total == n_set - ties

    def test_mismatched_settings_rejected(self):
        with pytest.raises(InputError):
            pairwise_matrix({"A": {"s1": 0.5}, "B": {"s2": 0.5}})


class TestSeriesIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        series = make_series(
            rng.integers(0, 3, size=(4, 12)),
            uncertainty=rng.uniform(size=(4, 12)),
            max_prob=rng.uniform(0.3, 1.0, size=(4, 12)),
        )
        path = tmp_path / "series.csv"
        export_series(series, path)
        back = load_series(path)
        np.testing.assert_array_equal(back.ids, series.ids)
        np.testing.assert_array_equal(back.steps, series.steps)
        np.testing.assert_array_equal(back.labels, series.labels)
        np.testing.assert_array_equal(back.uncertainty, series.uncertainty)
        np.testing.assert_array_equal(back.max_prob, series.max_prob)

    def test_series_shape_validation(self):
        with pytest.raises(InputError):
            SnapshotSeries(
                ids=np.arange(3),
                steps=np.array([100, 200]),
                labels=np.zeros((2, 2), dtype=int),
                uncertainty=np.zeros((2, 3)),
                max_prob=np.zeros((2, 3)),
            )
        with pytest.raises(InputError):
            make_series(np.zeros((2, 3), dtype=int), steps=np.array([200, 100]))

    @pytest.mark.parametrize("ids", [[5, 2, 5], [7, 7, 1], [0, 3, 3]])
    def test_series_rejects_duplicate_ids(self, ids):
        with pytest.raises(InputError, match="sample ids must be unique"):
            make_series(np.zeros((2, 3), dtype=int), ids=ids)

    def test_series_accepts_unsorted_unique_ids(self):
        assert make_series(np.zeros((2, 3), dtype=int), ids=[9, 2, 5]).n_samples == 3

    @pytest.mark.parametrize("field", ["uncertainty", "max_prob"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_series_rejects_non_finite(self, field, value):
        cells = np.full((2, 3), 0.5)
        cells[1, 2] = value
        with pytest.raises(InputError, match=field):
            make_series(np.zeros((2, 3), dtype=int), **{field: cells})
