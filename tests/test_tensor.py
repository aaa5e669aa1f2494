"""Tensor engine: forward oracles, backward checks, tape semantics, errors."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from lidsn import tensor as tz
from lidsn.errors import ConfigError, NumericError, ShapeError
from lidsn.gradcheck import grad_check
from lidsn.network import Model
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


_INV_SQRT2 = float(1.0 / np.sqrt(2.0))  # a Python float keeps float32 arithmetic float32


def _gelu_edges(dtype):
    """Signed zeros, the smallest normal and subnormal, 1 and its neighbours,
    points in erf's upper branches, and the largest finite value."""
    info = np.finfo(dtype)
    one = dtype(1.0)
    mags = [0.0, info.tiny, info.smallest_subnormal, one, np.nextafter(one, dtype(2)),
            np.nextafter(one, dtype(0)), 6.0, 8.0, 27.0, 1e10, info.max]
    return np.array(mags + [-m for m in mags], dtype=dtype)


def _finite_floats(dtype, size=64):
    return hnp.arrays(dtype, st.integers(0, size), elements=st.floats(
        allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8))


def _bits_equal(a, b):
    # array_equal counts -0.0 == 0.0, so the sign bits are compared too
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                          np.signbit(b))


@given(x64=_finite_floats(np.float64), x32=_finite_floats(np.float32))
@settings(max_examples=100, deadline=None)
def test_gelu_forward_exact_erf_formula(x64, x32):
    # bit for bit the plain erf formula in this arithmetic order
    for x in (x64, x32, _gelu_edges(np.float64), _gelu_edges(np.float32)):
        expected = x * ((erf(x * _INV_SQRT2) + 1.0) * 0.5)
        assert _bits_equal(tz.gelu(Tensor(x)).data, expected), x.dtype


@given(x64=_finite_floats(np.float64), x32=_finite_floats(np.float32))
@settings(max_examples=100, deadline=None)
def test_gelu_taped_derivative_bits(x64, x32):
    # the rule's derivative is Phi(x) + x * phi(x), bit for bit in this order;
    # x * x overflows to inf for the largest inputs, where phi(x) is 0
    for x in (x64, x32, _gelu_edges(np.float64), _gelu_edges(np.float32)):
        with np.errstate(over="ignore"):
            cdf = (erf(x * _INV_SQRT2) + 1.0) * 0.5
            deriv = np.exp((x * x) * -0.5) * float(1.0 / np.sqrt(2.0 * np.pi)) * x + cdf
            with Tape() as tape:
                y = tz.gelu(Tensor(x, requires_grad=True))
        # the rule is called directly: a summed loss would overflow on the edges
        (got,) = tape.entries[0].backward(np.ones_like(x))
        assert _bits_equal(y.data, x * cdf), x.dtype
        assert _bits_equal(got, deriv), x.dtype


@given(x64=_finite_floats(np.float64), x32=_finite_floats(np.float32))
@settings(max_examples=100, deadline=None)
def test_scipy_erf_is_odd_by_negation(x64, x32):
    """Pins scipy's erf as odd by negation: copysign(erf(|z|), z) is erf(z)
    bit for bit. gelu feeds erf |z| and restores the sign on that identity. If
    a scipy upgrade breaks it, gelu stays within 1 ulp of the formula, but its
    bits, and every artifact built on them, move."""
    for z in (x64, x32, _gelu_edges(np.float64), _gelu_edges(np.float32)):
        assert _bits_equal(np.copysign(erf(np.abs(z)), z), erf(z)), z.dtype


@pytest.mark.parametrize("taped", [False, True])
def test_gelu_allocates_one_buffer_per_kept_array(taped):
    """An untaped gelu builds its output in one full-size buffer; a taped one
    adds only the derivative its rule keeps. The finiteness check's bool mask
    adds an eighth of a float64 input."""
    x = Tensor(rnd(4, 40, 512, seed=9), requires_grad=taped)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape():
            y = tz.gelu(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert y.requires_grad == taped
    limit = 2.2 if taped else 1.2
    assert peak < limit * x.data.nbytes, peak / x.data.nbytes


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
    out = tz.layernorm(Tensor(x), Tensor(g), Tensor(b))
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


def tap_loop_depthwise_grads(x, w, g):
    """Loop oracle: depthwise input and weight gradients for the upstream g, one tap at a time."""
    t, k = x.shape[-1], w.shape[1]
    pad = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
    dpad = np.zeros(pad.shape)
    dw = np.zeros(w.shape)
    for j in range(k):
        dpad[:, :, j : j + t] += g * w[None, :, j, None]
        dw[:, j] = (g * pad[:, :, j : j + t]).sum(axis=(0, 2))
    return dpad[:, :, k // 2 : k // 2 + t], dw


def naive_avgpool(x, window, stride):
    """Loop oracle: mean over each window along the last axis."""
    p = (x.shape[-1] - window) // stride + 1
    return np.stack([x[..., stride * i : stride * i + window].mean(-1) for i in range(p)], axis=-1)


def tap_loop_adjoint(gwin, stride, length):
    """Loop oracle: scatter-add window gradients [..., P, K] one tap at a time."""
    p, k = gwin.shape[-2:]
    out = np.zeros(gwin.shape[:-2] + (length,))
    for j in range(k):
        out[..., j : j + stride * (p - 1) + 1 : stride] += gwin[..., j]
    return out


def input_grad(op, x, g):
    """Gradient of op at x for the upstream gradient g."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        return backward(tz.reduce_sum(tz.mul(op(xt), Tensor(g))), tape)[xt]


def test_conv1d_forward_oracle():
    x, w, b = rnd(2, 3, 9, seed=12), rnd(4, 3, 3, seed=13), rnd(4, seed=14)
    expected = naive_conv1d(x, w, b, 2)
    out = tz.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2)
    assert out.shape == (2, 4, 5)
    assert np.allclose(out.data, expected, atol=1e-13)


def test_conv1d_depthwise_forward_oracle():
    x, w = rnd(2, 3, 8, seed=15), rnd(3, 3, seed=16)
    expected = naive_depthwise(x, w)
    out = tz.conv1d_depthwise(Tensor(x), Tensor(w), Tensor(np.zeros(3)))
    assert np.allclose(out.data, expected, atol=1e-13)


def test_conv1d_pointwise_forward_oracle():
    x, w, b = rnd(2, 3, 5, seed=17), rnd(4, 3, seed=18), rnd(4, seed=19)
    expected = np.einsum("oc,nct->not", w, x) + b[None, :, None]
    out = tz.conv1d_pointwise(Tensor(x), Tensor(w), Tensor(b))
    assert np.allclose(out.data, expected, atol=1e-13)


def test_avgpool1d_forward_oracle():
    x = rnd(2, 3, 10, seed=20)
    expected = naive_avgpool(x, 4, 4)
    out = tz.avgpool1d(Tensor(x), 4)
    assert out.shape == (2, 3, 2)
    assert np.allclose(out.data, expected, atol=1e-14)


def test_unpadded_conv_length_formula():
    out = tz.conv1d(Tensor(rnd(1, 2, 17, seed=21)), Tensor(rnd(3, 2, 5, seed=22)),
                    Tensor(np.zeros(3)), stride=4)
    assert out.shape[-1] == (17 - 1) // 4 + 1


def test_batchnorm_train_uses_biased_variance():
    x = rnd(6, 3, seed=23)
    g, b = np.ones(3), np.zeros(3)
    state = BatchNormState(3, np.float64)
    out = tz.batchnorm(Tensor(x), Tensor(g), Tensor(b), state, True)
    mu = x.mean(0)
    var = x.var(0)  # ddof=0
    assert np.allclose(out.data, (x - mu) / np.sqrt(var + 1e-5), atol=1e-13)
    assert np.allclose(state.mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-15)
    assert np.allclose(state.var, 0.9 * 1.0 + 0.1 * var, atol=1e-15)


def test_batchnorm_unit_input_example():
    # fresh stats (mean 0, var 1): a constant input c maps to c / sqrt(1 + eps)
    state = BatchNormState(2, np.float64)
    x = np.ones((3, 2))
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, False)
    assert np.allclose(out.data, 1.0 / np.sqrt(1.0 + 1e-5), atol=1e-15)


def test_batchnorm_eval_uses_running_stats():
    state = BatchNormState(3, np.float64)
    state.mean = np.array([1.0, 2.0, 3.0])
    state.var = np.array([4.0, 9.0, 16.0])
    x = rnd(5, 3, seed=24)
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state, False)
    expected = (x - state.mean) / np.sqrt(state.var + 1e-5)
    assert np.allclose(out.data, expected, atol=1e-13)


def test_batchnorm_train_2d_matches_numpy_reference():
    # an offset far above the spread: the variance must not lose digits to it
    r = RngStream(29, 54)
    x = 50.0 + r.normal(0.0, 1.0, (7, 4))
    gain, bias, g = r.normal(0.0, 1.0, (4,)), r.normal(0.0, 1.0, (4,)), r.normal(0.0, 1.0, (7, 4))
    state = BatchNormState(4, np.float64)
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
    with Tape() as tape:
        out = tz.batchnorm(xt, gt, bt, state, True)
        grads = backward(tz.reduce_sum(tz.mul(out, Tensor(g))), tape)
    mu, var = x.mean(0), x.var(0)
    xhat = (x - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out.data, xhat * gain + bias, rtol=0, atol=1e-12)
    assert np.allclose(state.mean, 0.1 * mu, rtol=0, atol=1e-12)
    assert np.allclose(state.var, 0.9 + 0.1 * var, rtol=0, atol=1e-12)
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(0) - xhat * (dxhat * xhat).mean(0)) / np.sqrt(var + 1e-5)
    assert np.allclose(grads[xt], dx, rtol=0, atol=1e-12)
    assert np.allclose(grads[gt], (g * xhat).sum(0), rtol=0, atol=1e-12)
    assert np.allclose(grads[bt], g.sum(0), rtol=0, atol=1e-12)


def test_batchnorm_channelled_layout():
    x = rnd(2, 3, 5, seed=25)
    state = BatchNormState(3, np.float64)
    out = tz.batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state, True)
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    expected = (x - mu[None, :, None]) / np.sqrt(var + 1e-5)[None, :, None]
    assert np.allclose(out.data, expected, atol=1e-13)


def test_untaped_eval_batchnorm_allocates_one_output():
    """With no tape, eval batchnorm normalizes and applies the affine in its
    output's buffer. The finiteness check's bool mask adds an eighth of a
    float64 input."""
    x = Tensor(rnd(4, 40, 512, seed=27))
    gain, bias = Tensor(rnd(40, seed=28)), Tensor(rnd(40, seed=29))
    state = BatchNormState(40, np.float64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape():
            y = tz.batchnorm(x, gain, bias, state, False)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert not y.requires_grad
    assert peak < 1.2 * x.data.nbytes, peak / x.data.nbytes


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
    "add", "mul", "scale", "matmul", "gelu", "cosine", "softmax",
    "l2norm", "layernorm", "reduce_sum", "reduce_mean", "reshape", "swapaxes",
    "concat", "avgpool", "conv1d", "conv_pointwise", "conv_depthwise",
    "conv1d_tokenizer", "conv_depthwise_long_kernel", "avgpool_tiled", "avgpool_tail",
])
def test_primitive_gradients(name):
    r = RngStream(41, 50)

    def t(*shape):
        return Tensor(r.normal(0.0, 1.0, shape), requires_grad=True)

    cases = {
        "add": (lambda ts: tz.reduce_sum(tz.add(ts[0], ts[1])), [t(3, 4), t(1, 4)]),
        "mul": (lambda ts: tz.reduce_sum(tz.mul(ts[0], ts[1])), [t(3, 4), t(3, 1)]),
        "scale": (lambda ts: tz.reduce_sum(tz.scale(ts[0], 2.5)), [t(4,)]),
        "matmul": (lambda ts: tz.reduce_sum(tz.matmul(ts[0], ts[1])), [t(2, 3, 4), t(4, 2)]),
        "gelu": (lambda ts: tz.reduce_sum(tz.gelu(ts[0])), [t(4, 4)]),
        "cosine": (lambda ts: tz.reduce_sum(tz.mul(tz.cosine(ts[0]), ts[1])), [t(3, 3), t(3, 3)]),
        "softmax": (lambda ts: tz.reduce_sum(tz.mul(tz.softmax(ts[0]), ts[1])),
                    [t(3, 5), t(3, 5)]),
        "l2norm": (lambda ts: tz.reduce_sum(tz.l2norm(ts[0])), [t(4, 3)]),
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
        "avgpool": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 3)), [t(2, 2, 9)]),
        "conv1d": (lambda ts: weighted_sum(tz.conv1d(ts[0], ts[1], ts[2], stride=3)),
                   [t(2, 3, 11), t(2, 3, 5), t(2)]),
        "conv_pointwise": (lambda ts: weighted_sum(tz.conv1d_pointwise(ts[0], ts[1], ts[2])),
                           [t(2, 3, 4), t(5, 3), t(5)]),
        "conv_depthwise": (lambda ts: weighted_sum(tz.conv1d_depthwise(ts[0], ts[1], ts[2])),
                           [t(2, 4, 7), t(4, 3), t(4)]),
        # tokenizer shapes: one input channel at a wide stride, a kernel longer
        # than the input it slides over (K > T), pools that drop a tail
        "conv1d_tokenizer": (lambda ts: weighted_sum(tz.conv1d(ts[0], ts[1], ts[2], stride=4)),
                             [t(3, 1, 19), t(2, 1, 7), t(2)]),
        "conv_depthwise_long_kernel": (
            lambda ts: weighted_sum(tz.conv1d_depthwise(ts[0], ts[1], ts[2])),
            [t(1, 3, 4), t(3, 7), t(3)]),
        "avgpool_tiled": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 4)), [t(2, 3, 13)]),
        "avgpool_tail": (lambda ts: weighted_sum(tz.avgpool1d(ts[0], 5)), [t(3, 12)]),
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
        return tz.reduce_sum(tz.mul(tz.batchnorm(ts[0], ts[1], ts[2], state, True), w))

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
        return tz.reduce_sum(tz.batchnorm(ts[0], ts[1], ts[2], state, False))

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
    assert list(grads) == [x]
    assert np.allclose(grads[x], 3.0)


def test_backward_clears_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = tz.reduce_sum(x)
        backward(loss, tape)
        assert len(tape.entries) == 0


def reference_walk(loss, entries):
    """Keep-everything reverse walk: every gradient, intermediates included,
    keyed like the entries' inputs (a node, or the Tensor itself for a leaf)."""
    grads = {loss.node: np.ones((), dtype=loss.dtype)}
    for entry in reversed(entries):
        g = grads.get(entry.output)
        if g is None:
            continue
        for key, gi in zip(entry.inputs, entry.backward(g)):
            if gi is not None and key is not None:
                grads[key] = grads[key] + gi if key in grads else gi
    return grads


WALK_OPS = {
    "add": lambda u, v: tz.add(u, v),
    "sub": lambda u, v: tz.add(u, tz.scale(v, -1.0)),
    "mul": lambda u, v: tz.mul(u, v),
    "gelu": lambda u, v: tz.gelu(u),
    "scale": lambda u, v: tz.scale(u, -1.5),
}


def run_program(program, leaves):
    """Apply (op, i, j) steps to a growing pool of tensors; the loss sums the last."""
    pool = list(leaves)
    for op, i, j in program:
        pool.append(WALK_OPS[op](pool[i % len(pool)], pool[j % len(pool)]))
    return tz.reduce_sum(tz.add(pool[-1], pool[0]))


# pool indices: 0 and 1 are leaves that require grad, 2 is a constant
@given(
    program=st.lists(st.tuples(st.sampled_from(sorted(WALK_OPS)), st.integers(0, 9),
                               st.integers(0, 9)), min_size=1, max_size=6),
    seed=st.integers(0, 1000),
)
@example(program=[("add", 0, 0)], seed=0)
@example(program=[("mul", 0, 0)], seed=0)
@example(program=[("gelu", 0, 0), ("scale", 0, 0), ("mul", 3, 4)], seed=0)  # diamond
@example(program=[("gelu", 0, 0), ("add", 3, 1), ("mul", 3, 2), ("sub", 4, 5), ("add", 6, 3)],
         seed=0)  # pool[3] feeds three ops
@settings(max_examples=60, deadline=None)
def test_backward_matches_keep_everything_walk(program, seed):
    leaves = (Tensor(rnd(3, 4, seed=seed), requires_grad=True),
              Tensor(rnd(3, 4, seed=seed + 1), requires_grad=True),
              Tensor(rnd(3, 4, seed=seed + 2)))
    with Tape() as tape:
        ref = reference_walk(run_program(program, leaves), tape.entries)
    produced = {e.output for e in tape.entries}
    ref_leaves = {t: g for t, g in ref.items() if t not in produced}
    with Tape() as tape:
        loss = run_program(program, leaves)
        intermediates = [e.output for e in tape.entries]
        grads = backward(loss, tape)
    assert set(grads) == set(ref_leaves)
    for t, g in ref_leaves.items():
        assert np.array_equal(grads[t], g)
    assert not any(t in grads for t in intermediates)


def test_backward_peak_does_not_grow_with_chain_length():
    """Each intermediate gradient is freed once its producer has run, so the
    walk over a 20-op chain of 1 MiB arrays holds only a few arrays at once."""
    x = Tensor(rnd(128, 1024, seed=60), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = x
            for i in range(20):
                y = tz.gelu(y) if i % 2 else tz.scale(y, 0.9)
            loss = tz.reduce_sum(y)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 4 * x.data.nbytes, (peak - held) / x.data.nbytes


def test_no_backward_rule_holds_a_tensor(tiny_cfg):
    """Rules close over arrays, shapes and scalars: a Tensor in a closure
    would pin every array it holds for the whole step."""
    cfg = replace(tiny_cfg, integration_mode="bidir", dropout=0.1)
    model = Model.build(cfg, seed=3)
    x = Tensor(rnd(4, cfg.n_channels, cfg.n_samples, seed=61))
    with Tape() as tape:
        model.forward(x, rng=RngStream(3, 1), training=True)
    ops = {e.op for e in tape.entries}
    assert {"conv1d", "conv1d_pointwise", "gelu", "batchnorm", "softmax", "relu"} <= ops
    for e in tape.entries:
        # an entry names its inputs by node; only a leaf is its own key
        assert all(not isinstance(k, Tensor) or k.node is None for k in e.inputs), e.op
        for cell in e.backward.__closure__ or ():
            value = cell.cell_contents
            items = value if isinstance(value, (tuple, list)) else (value,)
            assert not any(isinstance(v, Tensor) for v in items), e.op


def test_tape_keeps_no_array_its_rules_do_not_read():
    """reshape, add and avgpool1d rules read only shapes and scalars, so after
    a 30-op chain on a 1 MiB array the tape holds none of the chain's arrays."""
    x = Tensor(rnd(128, 1024, seed=62), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            y = x
            for _ in range(10):
                y = tz.avgpool1d(tz.add(tz.reshape(y, (128, 1024)), x), 1)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.entries) == 30
    # the last output, y, is the one chain array still alive
    assert held < 3 * x.data.nbytes, held / x.data.nbytes


def test_taped_conv1d_keeps_no_padded_copy_of_its_input():
    """The strided conv1d rule pads its input again in backward: besides the
    output, the tape holds less than one input's worth of memory."""
    x = Tensor(rnd(8, 4, 4096, seed=63), requires_grad=True)
    w, b = Tensor(rnd(6, 4, 9, seed=64), requires_grad=True), Tensor(np.zeros(6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = tz.conv1d(x, w, b, stride=2)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape.entries) == 1
    assert held < x.data.nbytes, held / x.data.nbytes


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
        tz.conv1d_pointwise(Tensor(x), Tensor(rnd(4, 3, seed=48)), Tensor(np.zeros(4)))


def test_overflow_from_finite_inputs_is_named():
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match="mul: non-finite output from finite inputs$"):
        tz.mul(Tensor(np.array([1e200])), Tensor(np.array([1e200])))


def test_outputs_near_overflow_pass_the_finiteness_check():
    # a sum of these finite outputs overflows: the check must never sum them
    big = np.array([1e308, 1e308])
    assert np.array_equal(tz.add(Tensor(big), Tensor(np.zeros(2))).data, big)
    assert np.array_equal(tz.softmax(Tensor(big)).data, [0.5, 0.5])


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
                     state, True)


def test_tensor_promotes_non_float_dtypes_to_f64():
    t = Tensor(np.array([1, 2, 3], dtype=np.int64))
    assert t.dtype == np.float64


@pytest.mark.parametrize("op", ["conv1d", "conv1d_pointwise", "conv1d_depthwise"])
def test_conv_rejects_input_that_is_not_3d(op):
    x = Tensor(np.ones((3, 8)))
    w, b, stride = {"conv1d": ((4, 3, 3), 4, (1,)), "conv1d_pointwise": ((4, 3), 4, ()),
                    "conv1d_depthwise": ((3, 3), 3, ())}[op]
    with pytest.raises(ShapeError) as err:
        getattr(tz, op)(x, Tensor(np.ones(w)), Tensor(np.zeros(b)), *stride)
    assert "(3, 8)" in str(err.value) and str(w) in str(err.value)


def test_concat_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        tz.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


def test_concat_of_one_tensor_is_that_tensor_and_records_nothing():
    x = Tensor(rnd(2, 3), requires_grad=True)
    with Tape() as tape:
        assert tz.concat([x]) is x
    assert tape.entries == []


# ---------------------------------------------------------------------------
# properties


@st.composite
def _float_arrays(draw):
    """Finite float32/float64 arrays in several layouts, maybe with one NaN or inf."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    width = np.dtype(dtype).itemsize * 8
    base = draw(hnp.arrays(dtype, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False, width=width)))
    plant = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if plant is not None and base.size:
        base.reshape(-1)[draw(st.integers(0, base.size - 1))] = plant
    layout = draw(st.sampled_from(["contiguous", "transposed", "sliced", "broadcast"]))
    if layout == "transposed":
        return base.T
    if layout == "sliced":
        return base[..., ::2] if base.ndim else base[()]
    if layout == "broadcast":
        return np.broadcast_to(base, (2, *base.shape))
    return base


@given(a=_float_arrays())
@example(a=np.array([1e308, 1e308]))  # each a sum-based check fails
@example(a=np.array([3e38, 3e38], dtype=np.float32))
@example(a=np.array([np.inf, -np.inf]))
@settings(max_examples=200, deadline=None)
def test_finite_is_the_elementwise_predicate(a):
    assert tz._finite(a) == np.isfinite(a).all()


@given(rows=st.integers(1, 6), cols=st.integers(2, 8), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = RngStream(seed, 60).normal(0.0, 3.0, (rows, cols))
    out = tz.softmax(Tensor(x)).data
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
    out = tz.avgpool1d(Tensor(x), 4).data
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
    g = r.normal(0.0, 1.0, out.shape)
    dx = input_grad(lambda xt: tz.conv1d(xt, Tensor(w), Tensor(b), stride=stride), x, g)
    t_out = out.shape[-1]
    dcols = g.transpose(0, 2, 1).reshape(n * t_out, cout) @ w.reshape(cout, cin * k)
    dcols = dcols.reshape(n, t_out, cin, k).transpose(0, 2, 1, 3)
    assert np.array_equal(dx, tap_loop_adjoint(dcols, stride, t + k - 1)[..., half_k : half_k + t])
    wd = r.normal(0.0, 1.0, (cin, k))
    out = tz.conv1d_depthwise(Tensor(x), Tensor(wd), Tensor(np.zeros(cin))).data
    assert np.allclose(out, naive_depthwise(x, wd), rtol=0, atol=1e-12)
    window = 1 + stride_extra % t
    out = tz.avgpool1d(Tensor(x), window).data
    assert np.allclose(out, naive_avgpool(x, window, window), rtol=0, atol=1e-12)
    g = r.normal(0.0, 1.0, out.shape)
    dx = input_grad(lambda xt: tz.avgpool1d(xt, window), x, g)
    gwin = np.broadcast_to((g / window)[..., None], g.shape + (window,))
    assert np.array_equal(dx, tap_loop_adjoint(gwin, window, t))


@given(
    n=st.integers(1, 3), c=st.integers(1, 3), t=st.integers(1, 80), half_k=st.integers(0, 20),
    f32=st.booleans(), seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
@example(n=2, c=3, t=75, half_k=12, f32=False, seed=1)  # T = 2 * 32 + 11
@example(n=2, c=2, t=4, half_k=6, f32=False, seed=2)  # T < K
@example(n=3, c=2, t=40, half_k=0, f32=False, seed=3)  # K = 1
@example(n=1, c=3, t=70, half_k=20, f32=False, seed=4)  # B = 1, K - 1 > 32
@example(n=2, c=3, t=64, half_k=12, f32=True, seed=6)
@example(n=3, c=30, t=1000, half_k=12, f32=False, seed=7)  # T = 1000 over 30 channels
def test_banded_depthwise_matches_tap_loops(n, c, t, half_k, f32, seed):
    k = 2 * half_k + 1
    dtype = np.float32 if f32 else np.float64
    r = RngStream(seed, 65)
    x, w, g = (r.normal(0.0, 1.0, shape).astype(dtype) for shape in ((n, c, t), (c, k), (n, c, t)))
    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with Tape() as tape:
        out = tz.conv1d_depthwise(xt, wt, Tensor(np.zeros(c, dtype=dtype)))
        grads = backward(tz.reduce_sum(tz.mul(out, Tensor(g))), tape)
    dx, dw = tap_loop_depthwise_grads(x64, w64, g64)
    tol = 1e-12 if dtype == np.float64 else 1e-4
    for got, want in ((out.data, naive_depthwise(x64, w64)), (grads[xt], dx), (grads[wt], dw)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("t", [512, 1000])
def test_depthwise_one_trial_chunks_equal_one_whole_batch_chunk(t):
    # eval tokenizes blocks of a few trials: each trial's output must not
    # depend on how many trials share the matmul
    r = RngStream(7, 66)
    x, w = r.normal(0.0, 1.0, (7, 3, t)), r.normal(0.0, 1.0, (3, 25))
    whole = tz._depthwise_apply(x, w)
    singles = np.concatenate([tz._depthwise_apply(x[i : i + 1], w) for i in range(len(x))])
    assert np.array_equal(singles, whole)


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
        "avgpool": (lambda ts: tz.avgpool1d(ts[0], 5), [t(3, 4, 20)]),
        "batchnorm": (lambda ts: tz.batchnorm(ts[0], ts[1], ts[2], BatchNormState(4, np.float32),
                                              True),
                      [t(3, 4, 20), t(4), t(4)]),
        "gelu": (lambda ts: tz.gelu(ts[0]), [t(3, 4, 20)]),
    }


FLOAT32_KERNELS = ["conv1d", "conv_pointwise", "conv_depthwise", "avgpool", "batchnorm", "gelu"]


@pytest.mark.parametrize("name", FLOAT32_KERNELS)
def test_float32_kernels_stay_float32(name):
    fn, inputs = _float32_cases()[name]
    with Tape() as tape:
        out = fn(inputs)
        assert out.dtype == np.float32
        grads = backward(weighted_sum(out), tape)
    for x in inputs:
        assert grads[x].dtype == np.float32, name


@pytest.mark.parametrize("name", FLOAT32_KERNELS)
def test_float32_forward_matches_float64(name):
    fn, inputs = _float32_cases()[name]
    out32 = fn(inputs).data
    out64 = fn([Tensor(x.data.astype(np.float64)) for x in inputs]).data
    assert out64.dtype == np.float64
    assert np.allclose(out32, out64, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("name", FLOAT32_KERNELS)
def test_float32_gradients(name):
    # float32 rounds the summed loss to about 1e-7 of its size, which grad_check's
    # float32 step of 1e-2 turns into up to about 1e-3 of the gradient; the
    # float64 battery's 1e-6 would only measure that rounding
    fn, inputs = _float32_cases()[name]
    assert grad_check(lambda ts: weighted_sum(fn(ts)), inputs) < 1e-2
