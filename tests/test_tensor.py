"""Tensor engine: forward oracles, backward checks, tape semantics, errors."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from lidsn import tensor as tz
from lidsn.errors import ConfigError, NumericError, ShapeError
from lidsn.gradcheck import grad_check
from lidsn.rng import RngStream
from lidsn.tensor import BatchNormState, Tape, Tensor, backward


def rnd(*shape, seed=0, stream=100):
    return RngStream(seed, stream).normal(0.0, 1.0, shape)


# ---------------------------------------------------------------------------
# forward value oracles (straight numpy, no engine calls)


def test_add_broadcast_forward():
    a, b = rnd(3, 4, seed=1), rnd(4, seed=2)
    out = tz.add(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, a + b)


def test_matmul_forward_matches_numpy():
    a, b = rnd(2, 3, 4, seed=3), rnd(4, 5, seed=4)
    out = tz.matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.data, a @ b, rtol=0, atol=0)


def test_gelu_forward_exact_erf_formula():
    x = rnd(5, 7, seed=5)
    expected = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.allclose(tz.gelu(Tensor(x)).data, expected, atol=1e-15)


def test_softmax_forward_oracle():
    x = rnd(4, 6, seed=6)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    expected = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(tz.softmax(Tensor(x)).data, expected, atol=1e-15)


def test_softmax_shift_invariance():
    x = rnd(3, 5, seed=7)
    a = tz.softmax(Tensor(x)).data
    b = tz.softmax(Tensor(x + 1000.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_l2norm_forward():
    x = rnd(3, 4, seed=8)
    assert np.allclose(tz.l2norm(Tensor(x)).data, np.sqrt((x * x).sum(-1)), atol=1e-15)


def test_layernorm_forward_oracle():
    x, g, b = rnd(4, 6, seed=9), rnd(6, seed=10), rnd(6, seed=11)
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    expected = g * (x - mu) / np.sqrt(var + 1e-5) + b
    out = tz.layernorm(Tensor(x), Tensor(g), Tensor(b), 1e-5)
    assert np.allclose(out.data, expected, atol=1e-13)


def naive_conv1d(x, w, b, stride):
    """Loop oracle: 'same'-padded strided cross-correlation of [N, Cin, T]."""
    n, _, t = x.shape
    cout, _, k = w.shape
    pad = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
    t_out = (t - 1) // stride + 1
    expected = np.zeros((n, cout, t_out))
    for i in range(n):
        for o in range(cout):
            for j in range(t_out):
                window = pad[i, :, stride * j : stride * j + k]
                expected[i, o, j] = (window * w[o]).sum() + b[o]
    return expected


def naive_depthwise(x, w):
    """Loop oracle: 'same'-padded per-channel cross-correlation of [N, C, T]."""
    n, c, t = x.shape
    k = w.shape[1]
    pad = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
    expected = np.zeros((n, c, t))
    for i in range(n):
        for ch in range(c):
            for j in range(t):
                expected[i, ch, j] = (pad[i, ch, j : j + k] * w[ch]).sum()
    return expected


def naive_avgpool(x, window, stride):
    """Loop oracle: mean over each window along the last axis."""
    p = (x.shape[-1] - window) // stride + 1
    return np.stack([x[..., stride * i : stride * i + window].mean(-1) for i in range(p)], axis=-1)


def test_conv1d_forward_oracle():
    x, w, b = rnd(2, 3, 9, seed=12), rnd(4, 3, 3, seed=13), rnd(4, seed=14)
    expected = naive_conv1d(x, w, b, 2)
    out = tz.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2)
    assert out.shape == (2, 4, 5)
    assert np.allclose(out.data, expected, atol=1e-13)


def test_conv1d_depthwise_forward_oracle():
    x, w = rnd(2, 3, 8, seed=15), rnd(3, 3, seed=16)
    expected = naive_depthwise(x, w)
    out = tz.conv1d_depthwise(Tensor(x), Tensor(w))
    assert np.allclose(out.data, expected, atol=1e-13)


def test_conv1d_pointwise_forward_oracle():
    x, w, b = rnd(2, 3, 5, seed=17), rnd(4, 3, seed=18), rnd(4, seed=19)
    expected = np.einsum("oc,nct->not", w, x) + b[None, :, None]
    out = tz.conv1d_pointwise(Tensor(x), Tensor(w), Tensor(b))
    assert np.allclose(out.data, expected, atol=1e-13)


def test_avgpool1d_forward_oracle():
    x = rnd(2, 3, 10, seed=20)
    expected = naive_avgpool(x, 4, 3)
    out = tz.avgpool1d(Tensor(x), 4, 3)
    assert out.shape == (2, 3, 3)
    assert np.allclose(out.data, expected, atol=1e-14)


def test_unpadded_conv_length_formula():
    out = tz.conv1d(Tensor(rnd(1, 2, 17, seed=21)), Tensor(rnd(3, 2, 5, seed=22)), stride=4)
    assert out.shape[-1] == (17 - 1) // 4 + 1


def test_batchnorm_train_uses_biased_variance():
    x = rnd(6, 3, seed=23)
    g, b = np.ones(3), np.zeros(3)
    state = BatchNormState(3, np.float64)
    out = tz.batchnorm(Tensor(x), Tensor(g), Tensor(b), state, True, 0.1, 1e-5)
    mu = x.mean(0)
    var = x.var(0)  # ddof=0
    assert np.allclose(out.data, (x - mu) / np.sqrt(var + 1e-5), atol=1e-13)
    assert np.allclose(state.mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-15)
    assert np.allclose(state.var, 0.9 * 1.0 + 0.1 * var, atol=1e-15)


def test_batchnorm_unit_input_example():
    # fresh stats (mean 0, var 1): a constant input c maps to c / sqrt(1 + eps)
    state = BatchNormState(2, np.float64)
    x = np.ones((3, 2))
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state,
                       False, 0.1, 1e-5)
    assert np.allclose(out.data, 1.0 / np.sqrt(1.0 + 1e-5), atol=1e-15)


def test_batchnorm_eval_uses_running_stats():
    state = BatchNormState(3, np.float64)
    state.mean = np.array([1.0, 2.0, 3.0])
    state.var = np.array([4.0, 9.0, 16.0])
    x = rnd(5, 3, seed=24)
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state,
                       False, 0.1, 1e-5)
    expected = (x - state.mean) / np.sqrt(state.var + 1e-5)
    assert np.allclose(out.data, expected, atol=1e-13)


def test_batchnorm_channelled_layout():
    x = rnd(2, 3, 5, seed=25)
    state = BatchNormState(3, np.float64)
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state,
                       True, 0.1, 1e-5)
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    expected = (x - mu[None, :, None]) / np.sqrt(var + 1e-5)[None, :, None]
    assert np.allclose(out.data, expected, atol=1e-13)


def test_dropout_eval_is_identity():
    x = rnd(4, 5, seed=26)
    out = tz.dropout(Tensor(x), 0.5, None, training=False)
    assert np.array_equal(out.data, x)


def test_dropout_train_scales_surviving_values():
    x = np.ones((2000,))
    out = tz.dropout(Tensor(x), 0.25, RngStream(0, 2), training=True).data
    kept = out != 0.0
    assert np.allclose(out[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.05


def test_dropout_zero_probability_is_identity_even_in_train():
    x = rnd(3, 3, seed=27)
    out = tz.dropout(Tensor(x), 0.0, RngStream(0, 2), training=True)
    assert np.array_equal(out.data, x)


# ---------------------------------------------------------------------------
# backward checks


def weighted_sum(y: Tensor) -> Tensor:
    """Sum of y against a fixed random weight, so the upstream gradient is not all ones."""
    weight = RngStream(40, 49).normal(0.0, 1.0, y.shape).astype(y.dtype)
    return tz.reduce_sum(tz.mul(y, Tensor(weight)))


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "scale", "matmul", "gelu", "cosine", "softmax",
    "l2norm", "layernorm", "reduce_sum", "reduce_mean", "reshape", "swapaxes",
    "concat", "select", "avgpool", "conv1d", "conv_pointwise", "conv_depthwise",
    "conv1d_tokenizer", "conv_depthwise_2d_long_kernel", "avgpool_tiled", "avgpool_overlap",
])
def test_primitive_gradients(name):
    r = RngStream(41, 50)

    def t(*shape):
        return Tensor(r.normal(0.0, 1.0, shape), requires_grad=True)

    cases = {
        "add": (lambda ts: tz.reduce_sum(tz.add(ts[0], ts[1])), [t(3, 4), t(1, 4)]),
        "sub": (lambda ts: tz.reduce_sum(tz.sub(ts[0], ts[1])), [t(2, 3), t(2, 3)]),
        "mul": (lambda ts: tz.reduce_sum(tz.mul(ts[0], ts[1])), [t(3, 4), t(3, 1)]),
        "scale": (lambda ts: tz.reduce_sum(tz.scale(ts[0], 2.5)), [t(4,)]),
        "matmul": (lambda ts: tz.reduce_sum(tz.matmul(ts[0], ts[1])), [t(2, 3, 4), t(4, 2)]),
        "gelu": (lambda ts: tz.reduce_sum(tz.gelu(ts[0])), [t(4, 4)]),
        "cosine": (lambda ts: tz.reduce_sum(tz.mul(tz.cosine(ts[0]), ts[1])), [t(3, 3), t(3, 3)]),
        "softmax": (lambda ts: tz.reduce_sum(tz.mul(tz.softmax(ts[0], -1), ts[1])),
                    [t(3, 5), t(3, 5)]),
        "l2norm": (lambda ts: tz.reduce_sum(tz.l2norm(ts[0], -1)), [t(4, 3)]),
        "layernorm": (lambda ts: tz.reduce_sum(tz.mul(tz.layernorm(ts[0], ts[1], ts[2]), ts[3])),
                      [t(3, 6), t(6), t(6), t(3, 6)]),
        "reduce_sum": (lambda ts: tz.reduce_sum(tz.mul(tz.reduce_sum(ts[0], 1), ts[1])),
                       [t(2, 3, 4), t(2, 4)]),
        "reduce_mean": (lambda ts: tz.reduce_sum(tz.mul(tz.reduce_mean(ts[0], 0), ts[1])),
                        [t(3, 4), t(4)]),
        "reshape": (lambda ts: tz.reduce_sum(tz.mul(tz.reshape(ts[0], (2, 6)), ts[1])),
                    [t(3, 4), t(2, 6)]),
        "swapaxes": (lambda ts: tz.reduce_sum(tz.mul(tz.swapaxes(ts[0], 0, 2), ts[1])),
                     [t(2, 3, 4), t(4, 3, 2)]),
        "concat": (lambda ts: tz.reduce_sum(tz.mul(tz.concat([ts[0], ts[1]], -1), ts[2])),
                   [t(2, 3), t(2, 2), t(2, 5)]),
        "select": (lambda ts: tz.select(ts[0], (1, 2)), [t(2, 4)]),
        "avgpool": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 3, 2)), [t(2, 2, 9)]),
        "conv1d": (lambda ts: weighted_sum(tz.conv1d(ts[0], ts[1], ts[2], stride=3)),
                   [t(2, 3, 11), t(2, 3, 5), t(2)]),
        "conv_pointwise": (lambda ts: weighted_sum(tz.conv1d_pointwise(ts[0], ts[1], ts[2])),
                           [t(2, 3, 4), t(5, 3), t(5)]),
        "conv_depthwise": (lambda ts: weighted_sum(tz.conv1d_depthwise(ts[0], ts[1], ts[2])),
                           [t(2, 4, 7), t(4, 3), t(4)]),
        # tokenizer shapes: one input channel at a wide stride, a kernel longer
        # than the 2-d input it slides over, tiled and overlapping pools
        "conv1d_tokenizer": (lambda ts: weighted_sum(tz.conv1d(ts[0], ts[1], ts[2], stride=4)),
                             [t(3, 1, 19), t(2, 1, 7), t(2)]),
        "conv_depthwise_2d_long_kernel": (
            lambda ts: weighted_sum(tz.conv1d_depthwise(ts[0], ts[1], ts[2])),
            [t(3, 4), t(3, 7), t(3)]),
        "avgpool_tiled": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 4, 4)), [t(2, 3, 13)]),
        "avgpool_overlap": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 5, 2)), [t(3, 12)]),
    }
    fn, inputs = cases[name]
    assert grad_check(fn, inputs) < 1e-6


def test_relu_gradient_away_from_kink():
    x = rnd(4, 4, seed=42)
    x += 0.3 * np.sign(x) + (x == 0) * 0.3
    assert grad_check(lambda ts: tz.reduce_sum(tz.relu(ts[0])),
                      [Tensor(x, requires_grad=True)]) < 1e-6


def test_batchnorm_train_gradient():
    r = RngStream(43, 51)
    x = Tensor(r.normal(0, 1, (5, 3)), requires_grad=True)
    g = Tensor(r.normal(0, 1, (3,)), requires_grad=True)
    b = Tensor(r.normal(0, 1, (3,)), requires_grad=True)
    w = Tensor(r.normal(0, 1, (5, 3)))

    def fn(ts):
        state = BatchNormState(3, np.float64)
        return tz.reduce_sum(tz.mul(tz.batchnorm(ts[0], ts[1], ts[2], state, True, 0.1, 1e-5), w))

    assert grad_check(fn, [x, g, b]) < 1e-6


def test_batchnorm_eval_gradient():
    r = RngStream(44, 52)
    state = BatchNormState(3, np.float64)
    state.mean = r.normal(0, 1, (3,))
    state.var = r.uniform(0.5, 2.0, (3,))
    x = Tensor(r.normal(0, 1, (4, 3)), requires_grad=True)
    g = Tensor(r.normal(0, 1, (3,)), requires_grad=True)
    b = Tensor(r.normal(0, 1, (3,)), requires_grad=True)

    def fn(ts):
        return tz.reduce_sum(tz.batchnorm(ts[0], ts[1], ts[2], state, False, 0.1, 1e-5))

    assert grad_check(fn, [x, g, b]) < 1e-6


def test_dropout_gradient_with_frozen_mask():
    x = Tensor(rnd(4, 5, seed=45), requires_grad=True)

    def fn(ts):
        return tz.reduce_sum(tz.dropout(ts[0], 0.4, RngStream(9, 2), training=True))

    assert grad_check(fn, [x]) < 1e-6


def test_fanout_accumulates_gradients():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        y = tz.add(tz.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        loss = tz.reduce_sum(y)
        grads = backward(loss, tape)
    assert np.allclose(grads[x], 2.0 * x.data + 1.0, atol=1e-15)


def test_backward_returns_map_and_writes_grad():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with Tape() as tape:
        loss = tz.reduce_sum(tz.scale(x, 3.0))
        grads = backward(loss, tape)
    assert np.allclose(grads[x], 3.0)
    assert np.allclose(x.grad, 3.0)


def test_backward_clears_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = tz.reduce_sum(x)
        backward(loss, tape)
        assert len(tape.entries) == 0


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = tz.mul(x, x)
    assert not out.requires_grad


# ---------------------------------------------------------------------------
# error paths


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        with Tape() as tape:
            backward(tz.mul(x, x), tape)


def test_backward_rejects_loss_from_other_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape1:
        loss = tz.reduce_sum(x)
    with pytest.raises(ConfigError):
        with Tape() as tape2:
            backward(loss, tape2)


def test_nonfinite_input_is_named_as_the_cause():
    x = rnd(2, 3, 5, seed=47)
    x[1, 2, 3] = np.nan
    with pytest.raises(NumericError, match="conv1d_pointwise: non-finite input$"):
        tz.conv1d_pointwise(Tensor(x), Tensor(rnd(4, 3, seed=48)))


def test_overflow_from_finite_inputs_is_named():
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match="mul: non-finite output from finite inputs$"):
        tz.mul(Tensor(np.array([1e200])), Tensor(np.array([1e200])))


def test_softmax_rejects_nonfinite_input():
    with pytest.raises(NumericError):
        tz.softmax(Tensor(np.array([1.0, np.nan])))


def test_dropout_rejects_bad_probability():
    with pytest.raises(ConfigError):
        tz.dropout(Tensor(np.ones(3)), 1.0, RngStream(0, 2), training=True)
    with pytest.raises(ConfigError):
        tz.dropout(Tensor(np.ones(3)), -0.1, RngStream(0, 2), training=True)


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(ConfigError):
        tz.dropout(Tensor(np.ones(3)), 0.5, None, training=True)


def test_batchnorm_train_rejects_batch_of_one():
    state = BatchNormState(3, np.float64)
    with pytest.raises(ShapeError):
        tz.batchnorm(Tensor(np.ones((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                     state, True, 0.1, 1e-5)


def test_tensor_promotes_non_float_dtypes_to_f64():
    t = Tensor(np.array([1, 2, 3], dtype=np.int64))
    assert t.dtype == np.float64


def test_concat_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        tz.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


# ---------------------------------------------------------------------------
# properties


@given(rows=st.integers(1, 6), cols=st.integers(2, 8), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = RngStream(seed, 60).normal(0.0, 3.0, (rows, cols))
    out = tz.softmax(Tensor(x), axis=-1).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(-1), 1.0, atol=1e-12)


@given(rows=st.integers(1, 5), cols=st.integers(2, 9), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_layernorm_standardizes_rows(rows, cols, seed):
    x = RngStream(seed, 61).normal(0.0, 2.0, (rows, cols))
    out = tz.layernorm(Tensor(x), Tensor(np.ones(cols)), Tensor(np.zeros(cols))).data
    assert np.allclose(out.mean(-1), 0.0, atol=1e-10)
    # exact normalized variance is var / (var + eps)
    expected_var = x.var(-1) / (x.var(-1) + 1e-5)
    assert np.allclose(out.var(-1), expected_var, atol=1e-10)


@given(
    a_shape=st.sampled_from([(3, 4), (1, 4), (4,), (3, 1), (1,)]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_broadcast_add_gradient_shapes(a_shape, seed):
    r = RngStream(seed, 62)
    a = Tensor(r.normal(0, 1, a_shape), requires_grad=True)
    b = Tensor(r.normal(0, 1, (3, 4)), requires_grad=True)
    with Tape() as tape:
        grads = backward(tz.reduce_sum(tz.add(a, b)), tape)
    assert grads[a].shape == a.shape
    assert grads[b].shape == b.shape
    assert np.allclose(grads[a], np.prod([3, 4]) / a.data.size)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_avgpool_preserves_mean_when_exact_cover(seed):
    x = RngStream(seed, 63).normal(0.0, 1.0, (2, 3, 12))
    out = tz.avgpool1d(Tensor(x), 4, 4).data
    assert np.allclose(out.mean(-1), x.mean(-1), atol=1e-12)


@given(
    n=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3), t=st.integers(1, 12),
    half_k=st.integers(0, 4), stride_extra=st.integers(0, 10), seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_window_kernels_match_loop_oracles(n, cin, cout, t, half_k, stride_extra, seed):
    k = 2 * half_k + 1
    stride = 1 + stride_extra % (k + 2)  # 1 .. K + 2
    r = RngStream(seed, 64)
    x = r.normal(0.0, 1.0, (n, cin, t))
    w, b = r.normal(0.0, 1.0, (cout, cin, k)), r.normal(0.0, 1.0, (cout,))
    out = tz.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
    assert np.allclose(out, naive_conv1d(x, w, b, stride), rtol=0, atol=1e-12)
    wd = r.normal(0.0, 1.0, (cin, k))
    out = tz.conv1d_depthwise(Tensor(x), Tensor(wd)).data
    assert np.allclose(out, naive_depthwise(x, wd), rtol=0, atol=1e-12)
    window = 1 + stride_extra % t
    pool_stride = 1 + seed % (window + 2)
    out = tz.avgpool1d(Tensor(x), window, pool_stride).data
    assert np.allclose(out, naive_avgpool(x, window, pool_stride), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# float32


def _float32_cases():
    r = RngStream(46, 53)

    def t(*shape):
        return Tensor(r.normal(0.0, 1.0, shape).astype(np.float32), requires_grad=True)

    return {
        "conv1d": (lambda ts: tz.conv1d(ts[0], ts[1], ts[2], stride=4),
                   [t(3, 1, 37), t(4, 1, 7), t(4)]),
        "conv_pointwise": (lambda ts: tz.conv1d_pointwise(ts[0], ts[1], ts[2]),
                           [t(3, 4, 20), t(5, 4), t(5)]),
        "conv_depthwise": (lambda ts: tz.conv1d_depthwise(ts[0], ts[1], ts[2]),
                           [t(3, 4, 20), t(4, 9), t(4)]),
        "avgpool": (lambda ts: tz.avgpool1d(ts[0], 5, 5), [t(3, 4, 20)]),
    }


@pytest.mark.parametrize("name", ["conv1d", "conv_pointwise", "conv_depthwise", "avgpool"])
def test_float32_kernels_stay_float32(name):
    fn, inputs = _float32_cases()[name]
    with Tape() as tape:
        out = fn(inputs)
        assert out.dtype == np.float32
        grads = backward(weighted_sum(out), tape)
    for x in inputs:
        assert grads[x].dtype == np.float32, name


@pytest.mark.parametrize("name", ["conv1d", "conv_pointwise", "conv_depthwise", "avgpool"])
def test_float32_forward_matches_float64(name):
    fn, inputs = _float32_cases()[name]
    out32 = fn(inputs).data
    out64 = fn([Tensor(x.data.astype(np.float64)) for x in inputs]).data
    assert out64.dtype == np.float64
    assert np.allclose(out32, out64, rtol=1e-5, atol=1e-5)
