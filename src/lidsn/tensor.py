"""Dense float tensors with tape-based reverse-mode differentiation.

A forward pass runs inside a ``with Tape() as tape:`` block; primitives record
their backward rules onto the active tape whenever an input requires a
gradient. ``backward(loss, tape)`` pops the tape in reverse, accumulating
gradients across fan-out and freeing each entry and intermediate gradient as
it goes; it returns the gradients of the leaves, the requires_grad tensors no
entry produced, as a map keyed by tensor. Tensors hold no gradient themselves.
With no active tape the primitives are plain numpy computations.

Each recorded output gets a node, a small identity key. A tape entry holds
its op name, the node of its output, the node of each input (the Tensor
itself for a leaf, None for an input that needs no gradient) and its backward
rule. A rule closes over exactly the arrays, shapes and scalars it reads,
never a Tensor, so the tape keeps no activation that no rule reads.

Primitives never write into an input's array. Parameters are the exception
to immutability: ``Adam.step`` rebinds ``.data`` on the live parameter
Tensors, the same objects the gradient map is keyed by. Rules therefore
capture a parameter's array when they are recorded. BatchNormState is the
other mutable state, updated explicitly by train-mode batchnorm.

All primitives raise NumericError on a non-finite output, naming a non-finite
input as the cause when there is one; backward checks every input gradient
the same way. The check is one elementwise isfinite reduction per output and
per gradient (``_finite``), never a sum: a sum of finite values can overflow
or meet inf - inf, and numpy's warning for that would fail the suite or
precede the CLI's error line.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
BN_MOMENTUM = 0.1  # weight of a batch's statistics in batchnorm's running buffers
NORM_EPS = 1e-5  # added to the variance by batchnorm and layernorm


class Tensor:
    """Immutable dense float array, optionally flagged as needing a gradient."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if arr.dtype.char not in "fd":  # float32 or float64
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = None  # set by the tape entry that produces it

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class TapeEntry:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple, output: object, backward: Callable):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.tapes.pop()
        return False


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_STACK = _TapeStack()


def active_tape() -> Tape | None:
    return _STACK.tapes[-1] if _STACK.tapes else None


def _taping(inputs: tuple) -> Tape | None:
    """The tape a primitive on these inputs records onto, or None."""
    tapes = _STACK.tapes
    return tapes[-1] if tapes and any(t.requires_grad for t in inputs) else None


def _finite(a) -> bool:
    """np.all(np.isfinite(a)), without np.all's Python wrapper."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _record(op: str, out_data: np.ndarray, inputs: tuple, backward: Callable) -> Tensor:
    """Wrap out_data; record the backward rule if anything upstream needs it."""
    if not _finite(out_data):
        # inputs are checked only here, so the finite path pays nothing for it
        if any(not _finite(t.data) for t in inputs):
            raise NumericError(f"{op}: non-finite input")
        raise NumericError(f"{op}: non-finite output from finite inputs")
    tape = _taping(inputs)
    out = Tensor(out_data, requires_grad=tape is not None)
    if tape is not None:
        out.node = object()
        keys = tuple((t if t.node is None else t.node) if t.requires_grad else None
                     for t in inputs)
        tape.entries.append(TapeEntry(op, keys, out.node, backward))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse pass that frees each tape entry and gradient once it is used.

    Seeds d(loss)/d(loss) = 1 and pops the tape's entries in reverse
    (topological) order, accumulating gradients across fan-out; an entry's
    output gradient is complete when its entry is popped, and is dropped
    there. Returns the gradient map of the leaves (tensors no entry
    produced). The tape is left empty.
    """
    if loss.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not any(e.output is loss.node for e in tape.entries):
        raise ConfigError("backward: loss was not produced on this tape")
    # keyed by node, or by the Tensor itself for a leaf
    grads: dict[object, np.ndarray] = {loss.node: np.ones((), dtype=loss.dtype)}
    while tape.entries:
        entry = tape.entries.pop()
        g = grads.pop(entry.output, None)
        if g is None:
            continue
        for key, gi in zip(entry.inputs, entry.backward(g)):
            if key is None or gi is None:
                continue
            if not _finite(gi):
                raise NumericError(f"{entry.op}: non-finite gradient")
            if key in grads:
                # out of place: add's rule hands the same array to both operands
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    return grads


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record("add", out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def back(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record("mul", out, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def back(g):
        return (g * c,)

    return _record("scale", out, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)

    def back(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _record("matmul", out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    # the rule keeps the pre-activation, its one array: gradcheck.clear_input_draw
    # reads it there
    pre = x.data
    out = np.where(pre > 0, pre, 0.0)

    def back(g):
        return (g * (pre > 0),)

    return _record("relu", out, (x,), back)


def gelu(x: Tensor) -> Tensor:
    # exact Gaussian-CDF form: x * Phi(x), with Phi = 0.5 * (1 + erf(x / sqrt(2))),
    # built in one buffer that ends up holding the output
    xd = x.data
    cdf = xd * _INV_SQRT2
    # scipy's erf opens with a branch on the sign, mispredicted about half the
    # time on activations; fed |z| it never takes it. copysign(erf(|z|), z) is
    # erf(z) bit for bit only because scipy's erf is odd by negation
    # (erf(-z) is -erf(z)); z = x / sqrt(2) has the sign of x, -0.0 included
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, xd, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if _taping((x,)) is not None:
        # the derivative Phi(x) + x * phi(x) is the one array the rule keeps
        deriv = xd * xd
        deriv *= -0.5
        np.exp(deriv, out=deriv)
        deriv *= _INV_SQRT2PI
        deriv *= xd
        deriv += cdf

    def back(g):
        # in place: a rule runs once, when backward pops its entry
        return (np.multiply(deriv, g, out=deriv),)

    return _record("gelu", np.multiply(xd, cdf, out=cdf), (x,), back)


def cosine(x: Tensor) -> Tensor:
    xd = x.data
    out = np.cos(xd)

    def back(g):
        return (-g * np.sin(xd),)

    return _record("cosine", out, (x,), back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    if not _finite(x.data):
        raise NumericError("softmax: non-finite input")
    shifted = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=-1, keepdims=True)

    def back(g):
        dot = np.add.reduce(g * out, axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", out, (x,), back)


def l2norm(x: Tensor) -> Tensor:
    """Euclidean norm over the last axis."""
    xd = x.data
    norms = np.sqrt(np.sum(xd * xd, axis=-1, keepdims=True))
    out = np.squeeze(norms, axis=-1)

    def back(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        return (np.expand_dims(g, -1) * np.where(norms > 0.0, xd / safe, 0.0),)

    return _record("l2norm", out, (x,), back)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    out = np.sum(x.data, axis=axis)
    shape, dtype = x.shape, x.dtype

    def back(g):
        gk = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, shape).astype(dtype, copy=False),)

    return _record("sum", out, (x,), back)


def reduce_mean(x: Tensor, axis) -> Tensor:
    out = np.mean(x.data, axis=axis)
    shape, dtype = x.shape, x.dtype
    n = x.size if axis is None else shape[axis]

    def back(g):
        gk = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk / n, shape).astype(dtype, copy=False),)

    return _record("mean", out, (x,), back)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = x.data.reshape(shape)
    in_shape = x.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _record("reshape", out, (x,), back)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = x.data.swapaxes(a, b)

    def back(g):
        return (g.swapaxes(a, b),)

    return _record("swapaxes", out, (x,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    if len(ts) == 1:  # tensors are immutable, so the one input is the result
        return ts[0]
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            f"concat shapes {[t.shape for t in ts]} incompatible on axis {axis}"
        ) from exc
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record("concat", out, ts, back)


def dropout(x: Tensor, p: float, rng, training: bool) -> Tensor:
    """Inverted dropout: train-time mask scaled by 1/(1-p), identity in eval."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode dropout needs an RngStream")
    keep = 1.0 - p
    mask = rng.bernoulli(keep, x.shape).astype(x.dtype) / keep
    out = x.data * mask

    def back(g):
        return (g * mask,)

    return _record("dropout", out, (x,), back)


# ---------------------------------------------------------------------------
# normalization


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layernorm affine shapes {gain.shape}/{bias.shape} do not match feature dim of {x.shape}"
        )
    d = x.shape[-1]  # np.mean is add.reduce / d
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = xc * inv
    gd = gain.data
    out = xhat * gd + bias.data

    def back(g):
        lead = tuple(range(g.ndim - 1))
        dgain = np.sum(g * xhat, axis=lead)
        dbias = np.sum(g, axis=lead)
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _record("layernorm", out, (x, gain, bias), back)


class BatchNormState:
    """Running statistics for one batchnorm site (the only mutable state)."""

    def __init__(self, n_features: int, dtype):
        self.mean = np.zeros(n_features, dtype=dtype)
        self.var = np.ones(n_features, dtype=dtype)

    def copy(self) -> "BatchNormState":
        s = BatchNormState(self.mean.shape[0], self.mean.dtype)
        s.mean = self.mean.copy()
        s.var = self.var.copy()
        return s


def batchnorm(x: Tensor, gain: Tensor, bias: Tensor, state: BatchNormState,
              training: bool) -> Tensor:
    """Per-feature batch normalization over axis 1 of [N, F] or [N, F, L].

    Train mode normalizes with biased batch statistics and updates the running
    buffers in place: new = (1 - BN_MOMENTUM) * old + BN_MOMENTUM * batch.
    Eval mode normalizes with the running buffers. Train mode requires N >= 2.
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"batchnorm expects [N, F] or [N, F, L], got {x.shape}")
    f = x.shape[1]
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeError(f"batchnorm affine shapes {gain.shape}/{bias.shape} do not match F={f}")
    shape_f = (1, f) if x.ndim == 2 else (1, f, 1)
    dims = "nf" if x.ndim == 2 else "nfl"  # einsum subscripts of x
    if training:
        if x.shape[0] < 2:
            raise ShapeError("batchnorm: train mode needs batch size >= 2")
        n_red = x.data.size // f
        # two passes: the sum, then the sum of squares of the centered copy
        mu = np.einsum(f"{dims}->f", x.data) / n_red
        xhat = x.data - mu.reshape(shape_f)
        var = np.einsum(f"{dims},{dims}->f", xhat, xhat) / n_red
        state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    else:
        xhat = x.data - state.mean.reshape(shape_f)
        var = state.var
    # the centered copy is normalized in place; with no tape it also takes the
    # affine, so an eval batch (the largest ones) allocates one array
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv.reshape(shape_f)
    gd = gain.data
    taped = _taping((x, gain, bias)) is not None
    out = np.multiply(xhat, gd.reshape(shape_f), out=None if taped else xhat)
    out += bias.data.reshape(shape_f)

    def back(g):
        dgain = np.einsum(f"{dims},{dims}->f", g, xhat)
        dbias = np.einsum(f"{dims}->f", g)
        if not training:
            return g * (gd * inv).reshape(shape_f), dgain, dbias
        # dx = inv * gain * (g - dbias / n - xhat * dgain / n)
        dx = xhat * (-dgain / n_red).reshape(shape_f)
        dx += g
        dx -= (dbias / n_red).reshape(shape_f)
        dx *= (inv * gd).reshape(shape_f)
        return dx, dgain, dbias

    return _record("batchnorm", out, (x, gain, bias), back)


# ---------------------------------------------------------------------------
# convolution and pooling


def _window_adjoint(gwin: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Adjoint of conv1d's window view: out[..., p * stride + j] sums gwin[..., p, j] in tap order."""
    *lead, p, k = gwin.shape
    n_blocks = -(-k // stride)
    out = np.zeros((*lead, p + n_blocks, stride), dtype=gwin.dtype)
    for q in range(n_blocks):
        j = q * stride
        w = min(stride, k - j)
        out[..., q : q + p, :w] += gwin[..., j : j + w]
    return out.reshape(*lead, -1)[..., :length]


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int) -> Tensor:
    """Cross-correlation along time with 'same' zero padding.

    x: [N, Cin, T], w: [Cout, Cin, K] with K odd, b: [Cout].
    Output length is floor((T - 1) / stride) + 1.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d needs [N, Cin, T] input and a [Cout, Cin, K] kernel, "
                         f"got {x.shape} and {w.shape}")
    cout, cin, k = w.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel length must be odd, got {k}")
    if x.shape[1] != cin:
        raise ShapeError(f"conv1d: input channels {x.shape[1]} != kernel Cin {cin}")
    if stride < 1:
        raise ShapeError(f"conv1d stride must be >= 1, got {stride}")
    if b.shape != (cout,):
        raise ShapeError(f"conv1d bias shape {b.shape} != ({cout},)")
    n, _, t = x.shape
    pad = k // 2
    t_out = (t - 1) // stride + 1
    xd, wd, needs_dx = x.data, w.data, x.requires_grad

    def windows():  # [N, Cin, T_out, K]; the rule pads again rather than keep a padded copy
        xpad = np.zeros((n, cin, t + 2 * pad), dtype=xd.dtype)
        xpad[:, :, pad : pad + t] = xd
        return sliding_window_view(xpad, k, axis=2)[:, :, ::stride]

    win = windows()
    # one matmul per input channel straight on the window view: no copy of the taps
    out = np.matmul(wd[:, 0], win[:, 0].transpose(0, 2, 1))
    for i in range(1, cin):
        out += np.matmul(wd[:, i], win[:, i].transpose(0, 2, 1))
    out += b.data[:, None]

    def back(g):
        g2 = g.transpose(0, 2, 1).reshape(n * t_out, cout)
        # the window view copied to one row of taps per output step
        cols = windows().transpose(0, 2, 1, 3).reshape(n * t_out, cin * k)
        dw = (g2.T @ cols).reshape(wd.shape)
        dx = None
        if needs_dx:
            dcols = (g2 @ wd.reshape(cout, cin * k)).reshape(n, t_out, cin, k).transpose(0, 2, 1, 3)
            dx = _window_adjoint(dcols, stride, pad + t)[:, :, pad:]
        return dx, dw, g.sum(axis=(0, 2))

    return _record("conv1d", out, (x, w, b), back)


def conv1d_pointwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 channel-mixing convolution: [N, Cin, T] x [Cout, Cin] + b [Cout] -> [N, Cout, T]."""
    if x.ndim != 3 or w.ndim != 2:
        raise ShapeError(f"pointwise needs [N, Cin, T] input and a [Cout, Cin] kernel, "
                         f"got {x.shape} and {w.shape}")
    cout, cin = w.shape
    if x.shape[1] != cin:
        raise ShapeError(f"pointwise: input channels {x.shape[1]} != kernel Cin {cin}")
    if b.shape != (cout,):
        raise ShapeError(f"pointwise bias shape {b.shape} != ({cout},)")
    xd, wd, needs_dx = x.data, w.data, x.requires_grad
    out = np.matmul(wd, xd) + b.data[:, None]

    def back(g):
        dw = np.tensordot(g, xd, axes=([0, 2], [0, 2]))
        return np.matmul(wd.T, g) if needs_dx else None, dw, g.sum(axis=(0, 2))

    return _record("conv1d_pointwise", out, (x, w, b), back)


_BLOCK = 32  # L, the output samples per block of the banded depthwise matmul


def _depthwise_blocks(xd: np.ndarray, k: int) -> np.ndarray:
    """'Same'-padded [N, C, T] as overlapping channel-major blocks [C, N * nb, L + K - 1].

    Block (n, b) of channel c holds the padded samples that outputs
    b * L .. b * L + L - 1 read; T is zero-padded up to nb * L outputs.
    """
    n, c, t = xd.shape
    nb = -(-t // _BLOCK)
    xp = np.zeros((c, n, nb * _BLOCK + k - 1), dtype=xd.dtype)
    xp[:, :, k // 2 : k // 2 + t] = xd.transpose(1, 0, 2)
    win = sliding_window_view(xp, _BLOCK + k - 1, axis=2)[:, :, ::_BLOCK]
    return win.reshape(c, n * nb, _BLOCK + k - 1)


def _depthwise_apply(xd: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-channel 'same' cross-correlation of [N, C, T] with taps w [C, K]: [N, C, T].

    band[c, i, l] = w[c, i - l] (zero off the band) is a window view of the
    reversed taps between zeros, so no index arrays are built.
    """
    n, c, t = xd.shape
    k = w.shape[1]
    z = np.zeros((c, k + 2 * (_BLOCK - 1)), dtype=w.dtype)
    z[:, _BLOCK - 1 : _BLOCK - 1 + k] = w[:, ::-1]
    band = sliding_window_view(z, _BLOCK, axis=1)[:, ::-1]
    out = np.matmul(_depthwise_blocks(xd, k), band).reshape(c, n, -1)[:, :, :t]
    return np.ascontiguousarray(out.transpose(1, 0, 2))


def _depthwise_weight_grad(xd: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """dw[c, j] = sum over n, t of g[n, c, t] * xpad[n, c, t + j]: [C, K].

    The sums are the K diagonals of blocks^T @ g_blocks. The blocks are
    rebuilt here rather than held on the tape, where they would cost
    (L + K - 1) / L times the input (1.75x at K = 25) for the whole step.
    """
    n, c, t = g.shape
    blocks = _depthwise_blocks(xd, k)
    gb = np.zeros((c, n, blocks.shape[1] // n * _BLOCK), dtype=g.dtype)
    gb[:, :, :t] = g.transpose(1, 0, 2)
    prod = np.matmul(blocks.transpose(0, 2, 1), gb.reshape(c, -1, _BLOCK))
    return np.diagonal(sliding_window_view(prod, k, axis=1), axis1=1, axis2=2).sum(-1)


def conv1d_depthwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel temporal kernel with 'same' zero padding.

    x: [N, C, T], w: [C, K] with K odd, b: [C]. Each channel is one batched
    matmul of overlapping input blocks against a banded Toeplitz matrix of
    its taps.
    """
    if x.ndim != 3 or w.ndim != 2:
        raise ShapeError(f"depthwise needs [N, C, T] input and a [C, K] kernel, "
                         f"got {x.shape} and {w.shape}")
    c, k = w.shape
    if k % 2 == 0:
        raise ShapeError(f"depthwise kernel length must be odd, got {k}")
    if x.shape[1] != c:
        raise ShapeError(f"depthwise: input channels {x.shape[1]} != kernel C {c}")
    if b.shape != (c,):
        raise ShapeError(f"depthwise bias shape {b.shape} != ({c},)")
    xd, wd = x.data, w.data
    out = _depthwise_apply(xd, wd)
    out += b.data[:, None]

    def back(g):
        dw = _depthwise_weight_grad(xd, g, k)
        # the input gradient correlates the padded g with the reversed taps
        return _depthwise_apply(g, wd[:, ::-1]), dw, g.sum(axis=(0, 2))

    return _record("conv1d_depthwise", out, (x, w, b), back)


def avgpool1d(x: Tensor, window: int) -> Tensor:
    """Average pooling over consecutive windows of the last axis; a shorter tail is dropped."""
    t = x.shape[-1]
    if window < 1:
        raise ShapeError(f"avgpool1d window must be >= 1, got {window}")
    if window > t:
        raise ShapeError(f"avgpool1d window {window} exceeds input length {t}")
    shape, p = x.shape, t // window
    out = x.data[..., : p * window].reshape(*shape[:-1], p, window).sum(-1) / window

    def back(g):  # added into zeros, so a -0.0 in g leaves +0.0 in dx
        dx = np.zeros(shape, dtype=g.dtype)
        dx[..., : p * window] += np.repeat(g / window, window, axis=-1)
        return (dx,)

    return _record("avgpool1d", out, (x,), back)
