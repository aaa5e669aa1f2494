"""Central finite-difference verification of tape gradients, and the
battery of checks behind ``lidsn grad-check``."""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as tz
from .config import ModelConfig
from .errors import NumericError, ShapeError
from .network import Model
from .rng import RngStream
from .tensor import BatchNormState, Tape, Tensor, backward
from .training import SEED_LIMIT, weighted_cross_entropy

__all__ = ["battery", "clear_input_draw", "grad_check", "primitive_cases"]


def clear_input_draw(model, batch: int, rng: RngStream) -> np.ndarray:
    """Draw a normal input batch whose ReLU pre-activations avoid the kink.

    Central differences cross the ReLU kink when a pre-activation sits within
    the step size of zero, which makes the numeric derivative wrong even
    though the analytic one is exact. So a draw is kept only when every
    pre-activation lies at least 1e-3 from zero, well above the perturbation
    scale; after 50 rejected draws NumericError is raised. The
    pre-activations are read off the tape of one eval-mode forward pass: a
    relu rule closes over its pre-activation and nothing else.
    """
    cfg = model.cfg
    for _ in range(50):
        x = rng.normal(0.0, 1.0, (batch, cfg.n_channels, cfg.n_samples))
        with Tape() as tape:
            model.forward(x)
        if all(np.abs(e.backward.__closure__[0].cell_contents).min() >= 1e-3
               for e in tape.entries if e.op == "relu"):
            return x
    raise NumericError("no input with ReLU clearance >= 0.001 found in 50 draws")


def _eval(fn: Callable, inputs: list[Tensor]) -> float:
    out = fn(inputs)
    if out.ndim != 0:
        raise ShapeError(f"grad_check target must be scalar, got shape {out.shape}")
    return out.item()


# central-difference step per unit of |x|, by dtype: float32 rounds a loss to
# about 1e-7 of its size, which divided by a 1e-5 step would swamp the derivative
_STEP = {"d": 1e-5, "f": 1e-2}


def grad_check(
    fn: Callable[[list[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    max_coords_per_input: int | None = None,
    coord_rng: RngStream | None = None,
) -> float:
    """Compare analytic gradients of ``fn`` against central differences.

    fn maps a list of tensors to a scalar tensor and must be deterministic
    (dropout disabled or its mask frozen); non-determinism is detected by a
    double evaluation and raised as NumericError. Each coordinate is perturbed
    by h = step * max(1, |x|), with step 1e-5 for a float64 input and 1e-2 for
    a float32 one. Returns the max over checked coordinates of
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
        step = _STEP[t.dtype.char]
        for i in order:
            h = step * max(1.0, abs(float(flat[i])))
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


# ---------------------------------------------------------------------------
# the battery behind `lidsn grad-check`


def primitive_cases(seed: int) -> list[tuple[str, Callable, list[Tensor]]]:
    """(name, fn, inputs) triples covering every differentiable primitive."""
    rng = RngStream(seed, stream=4)

    def t(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)

    def away_from_kinks(x: Tensor) -> Tensor:
        return Tensor(x.data + (0.2 * np.sign(x.data) + (x.data == 0) * 0.2), requires_grad=True)

    labels = np.array([0, 2, 1, 0])
    ce_w = np.array([1.0, 0.5, 1.5])
    running = BatchNormState(4, np.float64)
    running.mean, running.var = np.linspace(-0.5, 0.7, 4), np.linspace(0.6, 1.8, 4)

    return [
        ("add", lambda ts: tz.reduce_sum(tz.add(ts[0], ts[1])), [t(3, 4), t(4)]),
        ("mul", lambda ts: tz.reduce_sum(tz.mul(ts[0], ts[1])), [t(3, 4), t(3, 1)]),
        ("scale", lambda ts: tz.reduce_sum(tz.scale(ts[0], -1.7)), [t(3, 4)]),
        ("matmul", lambda ts: tz.reduce_sum(tz.matmul(ts[0], ts[1])), [t(2, 3, 4), t(4, 5)]),
        ("relu", lambda ts: tz.reduce_sum(tz.relu(ts[0])), [away_from_kinks(t(3, 4))]),
        ("gelu", lambda ts: tz.reduce_sum(tz.gelu(ts[0])), [t(3, 4)]),
        ("cosine", lambda ts: tz.reduce_sum(tz.mul(tz.cosine(ts[0]), ts[1])), [t(3, 4), t(3, 4)]),
        ("softmax", lambda ts: tz.reduce_sum(tz.mul(tz.softmax(ts[0]), ts[1])),
         [t(3, 5), t(3, 5)]),
        ("l2norm", lambda ts: tz.reduce_sum(tz.l2norm(ts[0])), [t(3, 4)]),
        ("layernorm", lambda ts: tz.reduce_sum(tz.mul(tz.layernorm(ts[0], ts[1], ts[2]), ts[3])),
         [t(3, 5), t(5), t(5), t(3, 5)]),
        ("batchnorm", lambda ts: tz.reduce_sum(tz.mul(tz.batchnorm(
            ts[0], ts[1], ts[2], BatchNormState(3, np.float64), True), ts[3])),
         [t(4, 3), t(3), t(3), t(4, 3)]),
        ("conv1d", lambda ts: tz.reduce_sum(tz.conv1d(ts[0], ts[1], ts[2], stride=2)),
         [t(2, 3, 8), t(4, 3, 3), t(4)]),
        # the pointwise stage carries its batchnorm: train mode on batch
        # statistics, eval mode on running buffers away from their start
        ("conv1d_pointwise", lambda ts: tz.reduce_sum(tz.mul(tz.conv1d_pointwise(
            *ts[:5], BatchNormState(4, np.float64), True), ts[5])),
         [t(2, 3, 5), t(4, 3), t(4), t(4), t(4), t(2, 4, 5)]),
        ("conv1d_pointwise_eval", lambda ts: tz.reduce_sum(tz.conv1d_pointwise(
            *ts, running, False)), [t(2, 3, 5), t(4, 3), t(4), t(4), t(4)]),
        ("conv1d_depthwise", lambda ts: tz.reduce_sum(tz.conv1d_depthwise(ts[0], ts[1], ts[2])),
         [t(2, 3, 8), t(3, 3), t(3)]),
        ("avgpool1d", lambda ts: tz.reduce_sum(tz.avgpool1d(ts[0], 4)), [t(2, 3, 9)]),
        ("reduce_mean", lambda ts: tz.reduce_sum(tz.mul(tz.reduce_mean(ts[0], axis=1), ts[1])),
         [t(3, 4, 2), t(3, 2)]),
        ("reshape_swap_concat",
         lambda ts: tz.reduce_sum(
             tz.concat([tz.reshape(ts[0], (3, 4)), tz.swapaxes(ts[1], 0, 1)], axis=-1)
         ),
         [t(4, 3), t(5, 3)]),
        # a fresh mask stream per call keeps the mask frozen across evaluations
        ("dropout", lambda ts: tz.reduce_sum(tz.dropout(
            ts[0], 0.4, RngStream((seed + 17) % SEED_LIMIT, stream=2), training=True)), [t(4, 5)]),
        ("weighted_cross_entropy",
         lambda ts: weighted_cross_entropy(ts[0], labels, ce_w), [t(4, 3)]),
    ]


def _composite_config() -> ModelConfig:
    return ModelConfig(
        n_channels=3, n_samples=40, n_classes=2, embed_dim=8, spatial_maps=2,
        n_heads=2, temporal_depth=2, spatial_depth=1, dropout=0.0, ffn_expansion=2,
        kernel_len=5, pool_window=10, spatial_conv_stride=4, spatial_pool_window=5,
        integration_mode="bidir", classifier_hidden=8,
    )


_JITTER_STREAMS = (5, 7, 8, 9, 10)  # stream 6 picks the probed coordinates


def _jittered_clear_draw(model: Model, seed: int) -> np.ndarray:
    """Jitter the model's parameters, then draw an input clear of the ReLU kinks.

    Zero-init biases park the ReLUs exactly on their kink, where central
    differences are invalid, so the parameters move to a generic point first.
    Some jitters leave a ReLU pre-activation near zero for every input; then
    the next stream jitters the initial parameters afresh.
    """
    init = {name: t.data for name, t in model.params.tensors.items()}
    for stream in _JITTER_STREAMS:
        rng = RngStream(seed, stream=stream)
        for name, data in init.items():
            model.params.replace(name, data + rng.normal(0.0, 0.1, data.shape))
        try:
            return clear_input_draw(model, 2, rng)
        except NumericError:
            if stream == _JITTER_STREAMS[-1]:
                raise


def battery(seed: int, max_coords: int) -> Iterator[tuple[str, float, float]]:
    """(name, max_rel_err, tolerance) of each primitive, then of the full network.

    Every coordinate of a primitive's inputs is checked against 1e-6. The
    full network (a jittered bidir model's forward and weighted
    cross-entropy) checks max_coords coordinates of its input and of each
    parameter against 1e-4. Each result is yielded as soon as it is known.
    """
    for name, fn, inputs in primitive_cases(seed):
        yield name, grad_check(fn, inputs), 1e-6

    model = Model.build(_composite_config(), seed=seed)
    x = Tensor(_jittered_clear_draw(model, seed), requires_grad=True)
    labels = np.array([0, 1])
    weights = np.ones(model.cfg.n_classes)

    def run_model(ts):
        for name, candidate in zip(model.params.tensors, ts[1:]):
            model.params.tensors[name] = candidate
        return weighted_cross_entropy(model.forward(ts[0]), labels, weights)

    err = grad_check(run_model, [x, *model.params.tensors.values()],
                     max_coords_per_input=max_coords, coord_rng=RngStream(seed, stream=6))
    yield "full_network", err, 1e-4
