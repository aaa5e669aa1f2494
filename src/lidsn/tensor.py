"""Dense float tensors with tape-based reverse-mode differentiation.

A forward pass runs inside a ``with Tape() as tape:`` block; primitives record
their backward rules onto the active tape whenever an input requires a
gradient. ``backward(loss, tape)`` walks the tape once in reverse, accumulates
gradients additively across fan-out, stores them on every requires_grad
tensor, and clears the tape. With no active tape the primitives are plain
numpy computations.

Tensors are immutable once produced; parameter updates replace tensors rather
than writing into them. The only mutable state is BatchNormState, updated
explicitly by train-mode batchnorm.

All primitives raise NumericError on a non-finite output, naming a non-finite
input as the cause when there is one; backward checks every input gradient
the same way.
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


class Tensor:
    """Immutable dense array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return swapaxes(self, a, b)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class TapeEntry:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple, output: Tensor, backward: Callable):
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

    def __len__(self):
        return len(self.entries)


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_STACK = _TapeStack()


def active_tape() -> Tape | None:
    return _STACK.tapes[-1] if _STACK.tapes else None


def _record(op: str, out_data: np.ndarray, inputs: tuple, backward: Callable) -> Tensor:
    """Wrap out_data; record the backward rule if anything upstream needs it."""
    if not np.all(np.isfinite(out_data)):
        # inputs are checked only here, so the finite path pays nothing for it
        if any(not np.all(np.isfinite(t.data)) for t in inputs):
            raise NumericError(f"{op}: non-finite input")
        raise NumericError(f"{op}: non-finite output from finite inputs")
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.entries.append(TapeEntry(op, inputs, out, backward))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse pass over the tape.

    Seeds d(loss)/d(loss) = 1, visits each tape entry exactly once in reverse
    order, accumulates gradients additively across fan-out, writes .grad on
    every requires_grad tensor touched, clears the tape, and returns the
    gradient map.
    """
    if loss.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = any(e.output is loss for e in tape.entries)
    if not produced:
        raise ConfigError("backward: loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    by_id: dict[int, Tensor] = {id(loss): loss}
    for entry in reversed(tape.entries):
        g = grads.get(id(entry.output))
        if g is None:
            continue
        in_grads = entry.backward(g)
        for t, gi in zip(entry.inputs, in_grads):
            if gi is None or not t.requires_grad:
                continue
            if not np.all(np.isfinite(gi)):
                raise NumericError(f"{entry.op}: non-finite gradient")
            key = id(t)
            by_id[key] = t
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    result: dict[Tensor, np.ndarray] = {}
    for key, g in grads.items():
        t = by_id[key]
        if t.requires_grad:
            t.grad = g
            result[t] = g
    tape.entries.clear()
    return result


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

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

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
    out = np.matmul(a.data, b.data)

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record("matmul", out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def back(g):
        return (g * mask,)

    return _record("relu", out, (x,), back)


def gelu(x: Tensor) -> Tensor:
    # exact Gaussian-CDF form: x * Phi(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def back(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (cdf + x.data * pdf),)

    return _record("gelu", out, (x,), back)


def cosine(x: Tensor) -> Tensor:
    out = np.cos(x.data)

    def back(g):
        return (-g * np.sin(x.data),)

    return _record("cosine", out, (x,), back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax: non-finite input")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def back(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", out, (x,), back)


def l2norm(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    norms = np.sqrt(np.sum(x.data * x.data, axis=axis, keepdims=True))
    out = norms if keepdims else np.squeeze(norms, axis=axis)

    def back(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        safe = np.where(norms > 0.0, norms, 1.0)
        return (gk * np.where(norms > 0.0, x.data / safe, 0.0),)

    return _record("l2norm", out, (x,), back)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.sum(x.data, axis=axis, keepdims=keepdims)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, x.shape).astype(x.dtype, copy=False),)

    return _record("sum", out, (x,), back)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    n = x.size if axis is None else x.shape[axis]

    def back(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.shape).astype(x.dtype, copy=False),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk / n, x.shape).astype(x.dtype, copy=False),)

    return _record("mean", out, (x,), back)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = np.reshape(x.data, shape)

    def back(g):
        return (np.reshape(g, x.shape),)

    return _record("reshape", out, (x,), back)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = np.swapaxes(x.data, a, b)

    def back(g):
        return (np.swapaxes(g, a, b),)

    return _record("swapaxes", out, (x,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ShapeError("concat needs at least one tensor")
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


def select(x: Tensor, index: tuple) -> Tensor:
    """Pick one element as a scalar tensor."""
    if len(index) != x.ndim:
        raise ShapeError(f"select index {index} does not address shape {x.shape}")
    out = np.asarray(x.data[index])

    def back(g):
        gx = np.zeros(x.shape, dtype=x.dtype)
        gx[index] = g
        return (gx,)

    return _record("select", out, (x,), back)


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


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layernorm affine shapes {gain.shape}/{bias.shape} do not match feature dim of {x.shape}"
        )
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    d = x.shape[-1]

    def back(g):
        lead = tuple(range(g.ndim - 1))
        dgain = np.sum(g * xhat, axis=lead)
        dbias = np.sum(g, axis=lead)
        dxhat = g * gain.data
        m1 = np.mean(dxhat, axis=-1, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _record("layernorm", out, (x, gain, bias), back)


class BatchNormState:
    """Running statistics for one batchnorm site (the only mutable state)."""

    def __init__(self, n_features: int, dtype=np.float64):
        self.mean = np.zeros(n_features, dtype=dtype)
        self.var = np.ones(n_features, dtype=dtype)

    def copy(self) -> "BatchNormState":
        s = BatchNormState(self.mean.shape[0], self.mean.dtype)
        s.mean = self.mean.copy()
        s.var = self.var.copy()
        return s


def batchnorm(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    state: BatchNormState,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-feature batch normalization over axis 1 of [N, F] or [N, F, L].

    Train mode normalizes with biased batch statistics and updates the running
    buffers in place: new = (1 - momentum) * old + momentum * batch. Eval mode
    normalizes with the running buffers. Train mode requires N >= 2.
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"batchnorm expects [N, F] or [N, F, L], got {x.shape}")
    f = x.shape[1]
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeError(f"batchnorm affine shapes {gain.shape}/{bias.shape} do not match F={f}")
    axes = (0,) if x.ndim == 2 else (0, 2)
    shape_f = (1, f) if x.ndim == 2 else (1, f, 1)
    if training:
        if x.shape[0] < 2:
            raise ShapeError("batchnorm: train mode needs batch size >= 2")
        mu = np.mean(x.data, axis=axes)
        xc = x.data - mu.reshape(shape_f)
        var = np.mean(xc * xc, axis=axes)
        state.mean = (1.0 - momentum) * state.mean + momentum * mu
        state.var = (1.0 - momentum) * state.var + momentum * var
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv.reshape(shape_f)
        out = xhat * gain.data.reshape(shape_f) + bias.data.reshape(shape_f)
        n_red = x.data.size // f

        def back(g):
            dgain = np.sum(g * xhat, axis=axes)
            dbias = np.sum(g, axis=axes)
            dxhat = g * gain.data.reshape(shape_f)
            s1 = np.sum(dxhat, axis=axes).reshape(shape_f)
            s2 = np.sum(dxhat * xhat, axis=axes).reshape(shape_f)
            dx = inv.reshape(shape_f) * (dxhat - s1 / n_red - xhat * s2 / n_red)
            return dx, dgain, dbias

        return _record("batchnorm", out, (x, gain, bias), back)

    inv = 1.0 / np.sqrt(state.var + eps)
    xhat = (x.data - state.mean.reshape(shape_f)) * inv.reshape(shape_f)
    out = xhat * gain.data.reshape(shape_f) + bias.data.reshape(shape_f)

    def back(g):
        dgain = np.sum(g * xhat, axis=axes)
        dbias = np.sum(g, axis=axes)
        dx = g * (gain.data * inv).reshape(shape_f)
        return dx, dgain, dbias

    return _record("batchnorm", out, (x, gain, bias), back)


# ---------------------------------------------------------------------------
# convolution and pooling


def _lift(x: Tensor):
    """Accept [C, T] or [N, C, T]; return 3-d data plus a squeeze flag."""
    if x.ndim == 2:
        return x.data[None, :, :], True
    if x.ndim == 3:
        return x.data, False
    raise ShapeError(f"expected [C, T] or [N, C, T], got {x.shape}")


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Cross-correlation along time with 'same' zero padding.

    x: [N, Cin, T] (or [Cin, T]), w: [Cout, Cin, K] with K odd, b: [Cout].
    Output length is floor((T - 1) / stride) + 1.
    """
    xd, squeeze = _lift(x)
    if w.ndim != 3:
        raise ShapeError(f"conv1d kernel must be [Cout, Cin, K], got {w.shape}")
    cout, cin, k = w.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel length must be odd, got {k}")
    if xd.shape[1] != cin:
        raise ShapeError(f"conv1d: input channels {xd.shape[1]} != kernel Cin {cin}")
    if stride < 1:
        raise ShapeError(f"conv1d stride must be >= 1, got {stride}")
    n, _, t = xd.shape
    pad = k // 2
    t_out = (t - 1) // stride + 1
    xpad = np.pad(xd, ((0, 0), (0, 0), (pad, pad)))
    hi = stride * (t_out - 1) + 1
    # one row of taps per output step: [N * T_out, Cin * K]
    win = sliding_window_view(xpad, k, axis=2)[:, :, :hi:stride]
    cols = win.transpose(0, 2, 1, 3).reshape(n * t_out, cin * k)
    wmat = w.data.reshape(cout, cin * k)
    out = np.ascontiguousarray((cols @ wmat.T).reshape(n, t_out, cout).transpose(0, 2, 1))
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"conv1d bias shape {b.shape} != ({cout},)")
        out = out + b.data[:, None]

    def back(g):
        if squeeze:
            g = g[None]
        g2 = g.transpose(0, 2, 1).reshape(n * t_out, cout)
        dw = (g2.T @ cols).reshape(w.shape)
        dcols = (g2 @ wmat).reshape(n, t_out, cin, k).transpose(0, 2, 1, 3)
        dx_pad = np.zeros_like(xpad)
        for j in range(k):
            dx_pad[:, :, j : j + hi : stride] += dcols[..., j]
        dx = dx_pad[:, :, pad : pad + t]
        if squeeze:
            dx = dx[0]
        db = None if b is None else g.sum(axis=(0, 2))
        return dx, dw, db

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv1d", out[0] if squeeze else out, inputs, back)


def conv1d_pointwise(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1x1 channel-mixing convolution: [N, Cin, T] x [Cout, Cin] -> [N, Cout, T]."""
    xd, squeeze = _lift(x)
    if w.ndim != 2:
        raise ShapeError(f"pointwise kernel must be [Cout, Cin], got {w.shape}")
    cout, cin = w.shape
    if xd.shape[1] != cin:
        raise ShapeError(f"pointwise: input channels {xd.shape[1]} != kernel Cin {cin}")
    out = np.matmul(w.data, xd)
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"pointwise bias shape {b.shape} != ({cout},)")
        out = out + b.data[:, None]

    def back(g):
        if squeeze:
            g = g[None]
        dw = np.tensordot(g, xd, axes=([0, 2], [0, 2]))
        dx = np.matmul(w.data.T, g)
        if squeeze:
            dx = dx[0]
        db = None if b is None else g.sum(axis=(0, 2))
        return dx, dw, db

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv1d_pointwise", out[0] if squeeze else out, inputs, back)


def conv1d_depthwise(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Per-channel temporal kernel with 'same' zero padding.

    x: [N, C, T] (or [C, T]), w: [C, K] with K odd, b: [C].
    """
    xd, squeeze = _lift(x)
    if w.ndim != 2:
        raise ShapeError(f"depthwise kernel must be [C, K], got {w.shape}")
    c, k = w.shape
    if k % 2 == 0:
        raise ShapeError(f"depthwise kernel length must be odd, got {k}")
    if xd.shape[1] != c:
        raise ShapeError(f"depthwise: input channels {xd.shape[1]} != kernel C {c}")
    pad = k // 2
    win = sliding_window_view(np.pad(xd, ((0, 0), (0, 0), (pad, pad))), k, axis=2)
    out = np.einsum("nctk,ck->nct", win, w.data)
    if b is not None:
        if b.shape != (c,):
            raise ShapeError(f"depthwise bias shape {b.shape} != ({c},)")
        out = out + b.data[:, None]

    def back(g):
        if squeeze:
            g = g[None]
        dw = np.einsum("nct,nctk->ck", g, win)
        # the input gradient correlates the padded g with the reversed taps
        gwin = sliding_window_view(np.pad(g, ((0, 0), (0, 0), (pad, pad))), k, axis=2)
        dx = np.einsum("nctk,ck->nct", gwin, np.ascontiguousarray(w.data[:, ::-1]))
        if squeeze:
            dx = dx[0]
        db = None if b is None else g.sum(axis=(0, 2))
        return dx, dw, db

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv1d_depthwise", out[0] if squeeze else out, inputs, back)


def avgpool1d(x: Tensor, window: int, stride: int) -> Tensor:
    """Average pooling along the last axis."""
    t = x.shape[-1]
    if window < 1 or stride < 1:
        raise ShapeError(f"avgpool1d window/stride must be >= 1, got {window}/{stride}")
    if window > t:
        raise ShapeError(f"avgpool1d window {window} exceeds input length {t}")
    p = (t - window) // stride + 1
    hi = stride * (p - 1) + 1
    out = sliding_window_view(x.data, window, axis=-1)[..., :hi:stride, :].sum(-1) / window

    def back(g):
        dx = np.zeros(x.shape, dtype=x.dtype)
        gw = g / window
        for j in range(window):
            dx[..., j : j + hi : stride] += gw
        return (dx,)

    return _record("avgpool1d", out, (x,), back)
