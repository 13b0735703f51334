import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asslab.errors import InputError, InternalError
from asslab.nn import (
    Gradients,
    ModelParams,
    SgdOptimizer,
    _forward_cached,
    backward as backprop,
    finite_diff_grads,
    forward_batch,
    forward_counter,
    gradient_relative_error,
    init_params,
    loss_and_grads,
    loss_forward,
    run_gradient_check,
    sgd_step,
    softmax,
)
from asslab.ssl import _backprop_rows


def backward(params, x, y, w=None):
    return loss_and_grads(params, x, y, w)[1]


def one_hot(labels, k):
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestForward:
    def test_zero_single_layer_uniform(self):
        params = ModelParams([np.zeros((4, 3))], [np.zeros(4)])
        res = forward_batch(params, np.array([[0.3, -1.2, 2.0]]))
        np.testing.assert_allclose(res.probs, [[0.25, 0.25, 0.25, 0.25]], rtol=0, atol=0)

    def test_constant_logits_uniform(self):
        for L in [-1e3, -7.5, 0.0, 3.0, 1e3]:
            p = softmax(np.full(5, L))
            np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)

    def test_probs_normalized(self):
        rng = np.random.default_rng(0)
        params = init_params([3, 8, 4], rng)
        probs = forward_batch(params, rng.normal(size=(50, 3))).probs
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_huge_logits_finite(self):
        # Max-subtraction keeps softmax finite for logits of magnitude 1e3.
        p = softmax(np.array([1e3, -1e3, 500.0]))
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-9

    def test_embedding_is_penultimate(self):
        rng = np.random.default_rng(1)
        params = init_params([2, 5, 3], rng)
        x = rng.normal(size=(1, 2))
        res = forward_batch(params, x)
        h = np.maximum(x @ params.weights[0].T + params.biases[0], 0.0)
        np.testing.assert_array_equal(res.embedding, h)
        # Single-layer net: embedding falls back to the input itself.
        lin = ModelParams([rng.normal(size=(3, 2))], [np.zeros(3)])
        np.testing.assert_array_equal(forward_batch(lin, x).embedding, x)

    def test_dimension_mismatch(self):
        params = init_params([3, 4], np.random.default_rng(0))
        with pytest.raises(InputError):
            forward_batch(params, np.zeros((2, 2)))
        with pytest.raises(InputError):
            forward_batch(params, np.zeros(3))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        params = init_params([4, 6, 6, 3], rng)
        xs = rng.normal(size=(7, 4))
        res = forward_batch(params, xs)
        for i in range(7):
            # BLAS may reorder sums for different batch shapes, so compare
            # to tight tolerance rather than bit-for-bit.
            probs, embedding = oracles.forward(params, xs[i])
            np.testing.assert_allclose(res.probs[i], probs, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(res.embedding[i], embedding, rtol=1e-12, atol=1e-15)

    @settings(deadline=None)
    @given(n_hidden=st.integers(0, 3), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_matches_cached_forward(self, n_hidden, n, seed):
        # The in-place pass gives the training forward's bits and writes
        # neither its input nor the params.
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(1, 5))] + [int(rng.integers(1, 40))] * n_hidden
        params = init_params(dims + [int(rng.integers(2, 5))], rng)
        params.biases = [rng.normal(size=b.shape) for b in params.biases]
        x = rng.normal(scale=3.0, size=(n, dims[0]))
        x_before, params_before = x.copy(), params.copy()
        res = forward_batch(params, x)
        assert bits(x) == bits(x_before)
        for got, want in zip(params.weights + params.biases,
                             params_before.weights + params_before.biases):
            assert bits(got) == bits(want)
        logits, _, post = _forward_cached(params, x)
        assert bits(res.probs) == bits(softmax(logits))
        assert bits(res.embedding) == bits(post[-1])

    def test_peak_memory_below_three_activations(self, peak_bytes):
        params = init_params([2, 256, 256, 3], np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(4000, 2))
        assert peak_bytes(forward_batch, params, x) < 3 * 4000 * 256 * 8

    def test_forward_counter(self):
        params = init_params([2, 3], np.random.default_rng(0))
        before = forward_counter.count
        forward_batch(params, np.zeros((5, 2)))
        forward_batch(params, np.zeros((1, 2)))
        assert forward_counter.count - before == 6


class TestInitParams:
    @pytest.mark.parametrize("dims", [[2, -1, 2], [2, 0, 2], [0, 3], [2, 3, 0]])
    def test_width_below_one_rejected(self, dims):
        with pytest.raises(InputError, match="at least 1"):
            init_params(dims, np.random.default_rng(0))


class TestBackward:
    @settings(deadline=None)
    @given(k=st.integers(2, 5), n=st.integers(1, 6), n_hidden=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1), masked=st.booleans())
    def test_labels_match_one_hot_formula(self, k, n, n_hidden, seed, masked):
        # The same loss, gradients and probs, bit for bit, as the formula
        # for target distributions fed the one-hot of each label.
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(1, 4))
        params = init_params([d_in] + [int(rng.integers(2, 6))] * n_hidden + [k], rng)
        x = rng.normal(scale=3.0, size=(n, d_in))
        y = rng.integers(0, k, size=n)
        w = rng.uniform(0.0, 2.0, size=n)
        if masked:  # zero weights, as for rows below the pseudo-label threshold
            w[rng.random(n) < 0.5] = 0.0
        loss, grads, probs = loss_and_grads(params, x, y, w)
        want_loss, (want_gw, want_gb), want_probs = oracles.soft_target_loss_and_grads(
            params, x, one_hot(y, k), w)
        assert bits(loss) == bits(want_loss)
        assert bits(probs) == bits(want_probs)
        for got, want in zip(grads.weights + grads.biases, want_gw + want_gb):
            assert bits(got) == bits(want)

    def test_probs_not_modified_by_the_gradient(self):
        rng = np.random.default_rng(3)
        params = init_params([3, 5, 4], rng)
        x = rng.normal(size=(4, 3))
        _, _, probs = loss_and_grads(params, x, np.array([0, 3, 1, 3]))
        np.testing.assert_array_equal(probs, forward_batch(params, x).probs)

    def test_weight_scaling_linearity(self):
        rng = np.random.default_rng(4)
        params = init_params([2, 6, 3], rng)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 3, size=5)
        w = rng.uniform(0.5, 1.5, size=5)
        g1 = backward(params, x, y, w)
        g2 = backward(params, x, y, 2.0 * w)
        for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
            np.testing.assert_array_equal(2.0 * a, b)

    def test_empty_batch(self):
        params = init_params([2, 3], np.random.default_rng(0))
        with pytest.raises(InputError):
            backward(params, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("labels", [
        np.array([0, -1]),  # would wrap to the last class under fancy indexing
        np.array([0, 3]),  # one past the last of 3 classes
        np.array([0.0, 1.0]),  # floats, even integral ones
        np.array([[0], [1]]),  # 2-d
        np.array([0, 1, 2]),  # one label too many
        np.array([True, False]),
    ], ids=["negative", "out-of-range", "float", "2-d", "wrong-length", "bool"])
    def test_bad_labels_rejected(self, labels):
        params = init_params([2, 4, 3], np.random.default_rng(0))
        with pytest.raises(InputError):
            loss_and_grads(params, np.zeros((2, 2)), labels)

    def test_matches_finite_differences(self):
        errors = run_gradient_check(n_instances=20, seed=7)
        assert len(errors) == 20
        assert max(errors) < 1e-6

    def test_gradient_check_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed"):
            run_gradient_check(n_instances=1, seed=-1)

    def test_loss_value_onehot(self):
        # Uniform predictions give loss ln(k) whatever the labels.
        params = ModelParams([np.zeros((4, 2))], [np.zeros(4)])
        x = np.zeros((3, 2))
        loss, _, probs = loss_and_grads(params, x, np.array([0, 2, 3]))
        np.testing.assert_allclose(loss, np.log(4.0), rtol=1e-12)
        np.testing.assert_allclose(probs, np.full((3, 4), 0.25))


def masked_batch(dims, n, seed):
    """A net with nonzero biases, a batch of n rows and labels."""
    rng = np.random.default_rng(seed)
    params = init_params(dims, rng)
    params.biases = [rng.normal(scale=0.1, size=b.shape) for b in params.biases]
    x = rng.normal(size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    return params, x, y, rng


def mask_cases(n, rng):
    """Pseudo-label masks with 0, 1 (first, middle, last row), 2, a few
    and all rows set."""
    picks = [[], [0], [n // 2], [n - 1], [0, n - 1],
             sorted(rng.choice(n, size=5, replace=False)), range(n)]
    for rows in picks:
        mask = np.zeros(n)
        mask[list(rows)] = 1.0
        yield mask


class TestRowRestrictedBackward:
    """The strong batch's gradient over its pseudo-labeled rows only
    (ssl._backprop_rows), against loss_and_grads' gradient over every row."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("width", [2, 8, 64, 256])
    def test_bit_identical_to_full_rows(self, width, n, k):
        params, x, y, rng = masked_batch([2, width, width, k], n, seed=width + n + k)
        for mask in mask_cases(n, rng):
            loss, grads, probs = loss_and_grads(params, x, y, mask)
            got_loss, got_probs, cache = loss_forward(params, x, y, mask)
            assert bits(got_loss) == bits(loss)
            assert bits(got_probs) == bits(probs)
            rows = _backprop_rows(mask)
            assert len(rows) == (2 if mask.sum() == 1 else mask.sum())
            if not len(rows):  # the step keeps the supervised gradient alone
                assert all(np.all(g == 0) for g in grads.weights + grads.biases)
                continue
            got = backprop(params, cache, rows)
            for a, b in zip(got.weights + got.biases, grads.weights + grads.biases):
                assert bits(a) == bits(b)

    @pytest.mark.parametrize("dims,n", [
        ([1, 64, 64, 3], 64),  # a 1-wide input
        ([2, 1, 64, 2], 64),  # a 1-wide hidden layer
        ([2, 17, 17, 3], 64),
        ([2, 64, 64, 3], 512),
    ], ids=["input-1", "hidden-1", "width-17", "rows-512"])
    def test_close_to_full_rows_outside_the_identical_scope(self, dims, n):
        # BLAS may sum these shapes in another order over fewer rows.
        params, x, y, rng = masked_batch(dims, n, seed=n + len(dims))
        for mask in mask_cases(n, rng):
            _, grads, _ = loss_and_grads(params, x, y, mask)
            rows = _backprop_rows(mask)
            if not len(rows):
                continue
            got = backprop(params, loss_forward(params, x, y, mask)[2], rows)
            for a, b in zip(got.weights + got.biases, grads.weights + grads.biases):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestSgd:
    def test_lr_zero_no_change(self):
        rng = np.random.default_rng(5)
        params = init_params([2, 4, 3], rng)
        grads = backward(params, rng.normal(size=(3, 2)), np.array([0, 1, 2]))
        after = sgd_step(params, grads, 0.0)
        for a, b in zip(params.weights + params.biases, after.weights + after.biases):
            np.testing.assert_array_equal(a, b)

    def test_zero_grads_no_change(self):
        rng = np.random.default_rng(6)
        params = init_params([2, 4, 3], rng)
        zeros = Gradients(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        after = sgd_step(params, zeros, 0.5)
        for a, b in zip(params.weights + params.biases, after.weights + after.biases):
            np.testing.assert_array_equal(a, b)

    def test_scalar_step(self):
        params = ModelParams([np.array([[1.0]])], [np.zeros(1)])
        grads = Gradients([np.array([[2.0]])], [np.zeros(1)])
        after = sgd_step(params, grads, 0.1)
        np.testing.assert_allclose(after.weights[0], [[0.8]], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        params = init_params([2, 3], np.random.default_rng(0))
        bad = Gradients([np.zeros((4, 2))], [np.zeros(3)])
        with pytest.raises(InternalError):
            sgd_step(params, bad, 0.1)

    def test_momentum_accumulates(self):
        params = ModelParams([np.array([[0.0]])], [np.zeros(1)])
        g = Gradients([np.array([[1.0]])], [np.zeros(1)])
        opt = SgdOptimizer(lr=1.0, momentum=0.5)
        p1 = opt.step(params, g)  # v=1, w=-1
        p2 = opt.step(p1, g)  # v=1.5, w=-2.5
        np.testing.assert_allclose(p2.weights[0], [[-2.5]])

    def test_optimizer_rejects_bad_lr(self):
        with pytest.raises(InputError):
            SgdOptimizer(lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_optimizer_rejects_non_finite_lr(self, lr):
        with pytest.raises(InputError, match="learning rate"):
            SgdOptimizer(lr=lr)

    @pytest.mark.parametrize("momentum", [1.0, 1.5, -2.0, -1e-12, np.nan, np.inf])
    def test_optimizer_rejects_bad_momentum(self, momentum):
        with pytest.raises(InputError, match="momentum"):
            SgdOptimizer(lr=0.1, momentum=momentum)


class TestDeterminism:
    def test_init_deterministic(self):
        a = init_params([2, 64, 64, 3], np.random.default_rng(42))
        b = init_params([2, 64, 64, 3], np.random.default_rng(42))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_init_bounds_and_zero_bias(self):
        rng = np.random.default_rng(9)
        params = init_params([10, 20, 5], rng)
        lim0 = np.sqrt(6.0 / 30)
        assert np.all(np.abs(params.weights[0]) <= lim0)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_training_steps_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            params = init_params([2, 8, 3], rng)
            x = rng.normal(size=(6, 2))
            y = rng.integers(0, 3, size=6)
            for _ in range(10):
                params = sgd_step(params, backward(params, x, y), 0.05)
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(wa, wb)


class TestGradientOracle:
    def test_relative_error_metric(self):
        g = Gradients([np.array([[1.0, 2.0]])], [np.array([3.0])])
        same = Gradients([np.array([[1.0, 2.0]])], [np.array([3.0])])
        assert gradient_relative_error(g, same) == 0.0
        off = Gradients([np.array([[1.0, 2.0 + 1e-8]])], [np.array([3.0])])
        err = gradient_relative_error(g, off)
        np.testing.assert_allclose(err, 1e-8 / 2.0, rtol=1e-6)

    def test_finite_diff_simple(self):
        # f(w) = CE on a single linear unit has a closed-form gradient.
        params = ModelParams([np.array([[0.5], [-0.2]])], [np.zeros(2)])
        x = np.array([[1.0]])
        y = np.array([0])
        fd = finite_diff_grads(params, x, y)
        an = backward(params, x, y)
        assert gradient_relative_error(an, fd) < 1e-6
