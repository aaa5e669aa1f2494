"""Central finite-difference verification of tape gradients."""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError
from .rng import RngStream
from .tensor import Tape, Tensor, backward

__all__ = ["grad_check", "relu_clearance"]


def relu_clearance(model, x: np.ndarray) -> float:
    """Distance of the model's ReLU pre-activations from zero for input x.

    Central differences cross the ReLU kink when a pre-activation sits within
    the step size of zero, which makes the numeric derivative wrong even
    though the analytic one is exact. Callers probing a full network should
    pick inputs whose clearance comfortably exceeds the perturbation scale.
    The pre-activations are read off the tape of one eval-mode forward pass:
    a relu rule closes over its pre-activation and nothing else.
    """
    with Tape() as tape:
        model.forward(x)
    return min(float(np.abs(e.backward.__closure__[0].cell_contents).min())
               for e in tape.entries if e.op == "relu")


def clear_input_draw(model, batch: int, rng: RngStream, min_clearance: float = 1e-3,
                     attempts: int = 50) -> np.ndarray:
    """Draw a normal input batch whose ReLU pre-activations avoid the kink."""
    cfg = model.cfg
    for _ in range(attempts):
        x = rng.normal(0.0, 1.0, (batch, cfg.n_channels, cfg.n_samples))
        if relu_clearance(model, x) >= min_clearance:
            return x
    raise NumericError(
        f"no input with ReLU clearance >= {min_clearance} found in {attempts} draws"
    )


def _eval(fn: Callable, inputs: list[Tensor]) -> float:
    out = fn(inputs)
    if out.ndim != 0:
        raise ShapeError(f"grad_check target must be scalar, got shape {out.shape}")
    return out.item()


def grad_check(
    fn: Callable[[list[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords_per_input: int | None = None,
    coord_rng: RngStream | None = None,
) -> float:
    """Compare analytic gradients of ``fn`` against central differences.

    fn maps a list of tensors to a scalar tensor and must be deterministic
    (dropout disabled or its mask frozen); non-determinism is detected by a
    double evaluation and raised as NumericError. Each coordinate is perturbed
    by h = eps * max(1, |x|). Returns the max over checked coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).

    max_coords_per_input caps the number of coordinates checked per input
    (sampled without replacement from coord_rng) so large compositions stay
    affordable; by default every coordinate is checked.
    """
    inputs = [t if t.requires_grad else Tensor(t.data, requires_grad=True) for t in inputs]
    base1 = _eval(fn, inputs)
    base2 = _eval(fn, inputs)
    if base1 != base2:
        raise NumericError("grad_check: fn is non-deterministic (double evaluation mismatch)")

    with Tape() as tape:
        loss = fn(inputs)
        grads = backward(loss, tape)
    analytic = [grads.get(t, np.zeros(t.shape, dtype=t.dtype)) for t in inputs]

    worst = 0.0
    for pos, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords_per_input is not None and n > max_coords_per_input:
            if coord_rng is None:
                coord_rng = RngStream(0, stream=2**32 - 1)
            order = coord_rng.permutation(n)[:max_coords_per_input]
        else:
            order = range(n)
        a_flat = np.asarray(analytic[pos]).reshape(-1)
        for i in order:
            h = eps * max(1.0, abs(float(flat[i])))
            probe = [u if u is not t else None for u in inputs]

            def at(v: float) -> float:
                bumped = flat.copy()
                bumped[i] = v
                probe[pos] = Tensor(bumped.reshape(t.shape), requires_grad=True)
                return _eval(fn, probe)

            numeric = (at(float(flat[i]) + h) - at(float(flat[i]) - h)) / (2.0 * h)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
    return worst
