"""Optimization, metrics, and protocol-level experiment runs."""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ModelConfig, model_config_from_dict
from .data import PROTOCOLS, EpochSet, FeatureArgs, euclidean_align, make_split
from .errors import ConfigError, NumericError, ShapeError
from .network import Model
from .params import ParamSet, round_through_f32
from .rng import RngStream
from .tensor import Tape, Tensor, _finite, _record, backward

SHUFFLE_STREAM = 1
DROPOUT_STREAM = 2
SEED_LIMIT = 2**64  # Philox keys a stream with one 64-bit word for the seed
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    patience: int = 20
    val_fraction: float = 0.1

    def __post_init__(self):
        if not (self.lr > 0):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 (train-mode batchnorm needs two rows per batch), "
                f"got {self.batch_size}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


@dataclass(frozen=True)
class RunConfig:
    """A run config file; ``model`` stays raw until the data geometry is known."""

    model: dict = field(default_factory=dict)
    train: TrainConfig = TrainConfig()
    protocol: str = "CO"
    align: bool = False
    features: bool = False
    feature_args: FeatureArgs = FeatureArgs()
    n_folds: int = 5
    train_fraction: float = 0.8
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {self.n_folds}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if (not self.seeds or not all(0 <= s < SEED_LIMIT for s in self.seeds)
                or len(set(self.seeds)) < len(self.seeds)):
            raise ConfigError(f"seeds must be non-empty and >= 0 and < 2**64 and distinct, "
                              f"got {list(self.seeds)}")

    def model_config(self, n_channels: int, n_samples: int, n_classes: int) -> ModelConfig:
        """The model section, filled in for this data geometry and validated."""
        return model_config_from_dict(self.model, n_channels=n_channels,
                                      n_samples=n_samples, n_classes=n_classes)

    def canonical(self, model: ModelConfig) -> dict:
        """The canonical dict, with the model section replaced by the resolved one."""
        return {**asdict(self), "model": asdict(model)}


def class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency per-class loss weights, n_total / (K * n_k)."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    if np.any(counts == 0):
        missing = int(np.where(counts == 0)[0][0])
        raise ConfigError(f"class {missing} has no training examples")
    return labels.size / (n_classes * counts)


def weighted_cross_entropy(logits: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean weighted cross entropy over the batch, as one recorded op.

    loss = -(1/B) sum_i w[y_i] * log softmax(logits_i)[y_i]
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [B, K], got {logits.data.shape}")
    b, k = logits.data.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ConfigError(f"labels must lie in [0, {k})")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (k,):
        raise ShapeError(f"weights shape {weights.shape} does not match {k} classes")
    z = logits.data.astype(np.float64)
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    lse = m + np.log(ez.sum(axis=1, keepdims=True))
    logp = z - lse
    w_i = weights[labels]
    loss = -(w_i * logp[np.arange(b), labels]).sum() / b
    probs = ez / ez.sum(axis=1, keepdims=True)

    def backward_fn(g):
        grad = probs.copy()
        grad[np.arange(b), labels] -= 1.0
        grad *= (w_i / b)[:, None]
        return (g * grad.astype(logits.data.dtype),)

    return _record("weighted_cross_entropy", np.asarray(loss, dtype=logits.data.dtype),
                   (logits,), backward_fn)


class Adam:
    """Adam with bias correction.

    Updates only parameters that received a gradient this step; a non-finite
    gradient aborts the step with the offending parameter named.
    """

    def __init__(self, params: ParamSet, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self._m = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        self._t = {name: 0 for name in params.tensors}

    def step(self, grads: dict) -> None:
        lr = self.cfg.lr
        for name, tensor in self.params.tensors.items():
            g = grads.get(tensor)
            if g is None:
                continue
            if not _finite(g):
                raise NumericError(f"non-finite gradient for parameter {name}")
            self._t[name] += 1
            t = self._t[name]
            m = self._m[name] = ADAM_BETA1 * self._m[name] + (1.0 - ADAM_BETA1) * g
            v = self._v[name] = ADAM_BETA2 * self._v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            tensor.data = tensor.data - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))


# ---------------------------------------------------------------------------
# metrics


def confusion_matrix(labels: np.ndarray, predictions: np.ndarray, n_classes: int) -> np.ndarray:
    """Counts with true class on rows, predicted class on columns."""
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    rows, cols = np.asarray(labels, dtype=np.int64), np.asarray(predictions, dtype=np.int64)
    np.add.at(conf, (rows, cols), 1)
    return conf


def metrics_from_confusion(conf: np.ndarray) -> dict:
    """Accuracy, per-class precision/recall/F1 (0/0 counts as 0), macro F1."""
    conf = np.asarray(conf, dtype=np.int64)
    k = conf.shape[0]
    total = conf.sum()
    acc = float(np.trace(conf) / total) if total else 0.0

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(k), where=den > 0)

    tp = np.diag(conf)
    precision = ratio(tp, conf.sum(axis=0))
    recall = ratio(tp, conf.sum(axis=1))
    f1 = ratio(2.0 * precision * recall, precision + recall)
    out = {
        "accuracy": acc,
        "precision": precision.tolist(),
        "recall": recall.tolist(),
        "f1": f1.tolist(),
        "macro_f1": float(np.mean(f1)),
        "confusion": conf.tolist(),
    }
    if k == 2:
        out["f1_positive"] = out["f1"][1]
    return out


def evaluate_model(model: Model, x: np.ndarray, labels: np.ndarray,
                   weights: np.ndarray | None = None) -> dict:
    """Eval-mode metrics, plus mean weighted CE loss when weights are given."""
    logits = model.logits_np(x)
    preds = logits.argmax(axis=1)
    out = metrics_from_confusion(confusion_matrix(labels, preds, model.cfg.n_classes))
    if weights is not None:
        out["loss"] = weighted_cross_entropy(
            Tensor(logits.astype(np.float64)), labels, weights
        ).item()
    return out


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainOutcome:
    model: Model
    curves: list
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    final_train_acc: float


def _batches(order: np.ndarray, batch_size: int):
    # the final short batch is kept, but a size-1 remainder joins the batch
    # before it: train-mode batchnorm needs at least two rows
    stop = 0
    while stop < order.size:
        start, stop = stop, stop + batch_size
        if order.size - stop == 1:
            stop = order.size
        yield order[start:stop]


def train_model(model_cfg: ModelConfig, train_cfg: TrainConfig,
                x_train: np.ndarray, y_train: np.ndarray,
                x_val: np.ndarray, y_val: np.ndarray, seed: int = 0) -> TrainOutcome:
    """Fit a model with Adam, early stopping on validation loss.

    ``seed`` draws the initial parameters, the shuffles and the dropout masks.

    The snapshot with the lowest validation loss (parameters and batch-norm
    running statistics) is restored at the end, rounded through float32 so a
    reloaded on-disk snapshot reproduces final_train_acc exactly. With an
    empty validation set early stopping is disabled and the final epoch wins.
    """
    n = len(y_train)
    if n == 0:
        raise ConfigError("training set is empty")
    model = Model.build(model_cfg, seed=seed)
    weights = class_weights(y_train, model_cfg.n_classes)
    shuffle = RngStream(seed, SHUFFLE_STREAM)
    drop_rng = RngStream(seed, DROPOUT_STREAM)
    opt = Adam(model.params, train_cfg)
    has_val = len(y_val) > 0
    best_val = np.inf  # epoch 1's finite validation loss always beats it
    best_epoch = 0
    bad_epochs = 0
    curves = []
    epochs_run = 0
    for epoch in range(1, train_cfg.epochs + 1):
        epochs_run = epoch
        order = shuffle.permutation(n)
        loss_sum = 0.0
        seen = 0
        for batch in _batches(order, train_cfg.batch_size):
            with Tape() as tape:
                logits = model.forward(x_train[batch], rng=drop_rng, training=True)
                loss = weighted_cross_entropy(logits, y_train[batch], weights)
                grads = backward(loss, tape)
            opt.step(grads)
            loss_sum += float(loss.data) * batch.size
            seen += batch.size
        row = {"epoch": epoch, "train_loss": loss_sum / seen}
        if has_val:
            val = evaluate_model(model, x_val, y_val, weights)
            row["val_loss"] = val["loss"]
            row["val_acc"] = val["accuracy"]
            if val["loss"] < best_val:
                best_val = val["loss"]
                best_epoch = epoch
                best_params = model.params.clone()
                bad_epochs = 0
            else:
                bad_epochs += 1
        curves.append(row)
        if has_val and bad_epochs >= train_cfg.patience:
            break
    if not has_val:
        best_epoch = epochs_run
        best_val = float("nan")
        best_params = model.params
    model.params = round_through_f32(best_params, model_cfg.np_dtype)
    final = evaluate_model(model, x_train, y_train)
    return TrainOutcome(model, curves, epochs_run,
                        best_epoch, float(best_val), final["accuracy"])


def validation_tail(train_idx: np.ndarray, subjects: np.ndarray, fraction: float) -> tuple:
    """Carve a validation tail from each subject's training trials.

    Each subject contributes its last max(1, floor(fraction * n)) training
    trials when it has at least two and fraction is not 0, else none.
    Returns (fit_idx, val_idx) partitioning train_idx.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_parts = []
    for s in np.unique(subjects[train_idx]):
        rows = train_idx[subjects[train_idx] == s]
        if rows.size < 2 or fraction == 0:
            continue
        n_val = max(1, int(np.floor(fraction * rows.size)))
        val_parts.append(rows[rows.size - n_val :])
    if not val_parts:
        return train_idx, np.array([], dtype=np.int64)
    val_idx = np.concatenate(val_parts)
    mask = np.isin(train_idx, val_idx, invert=True)
    return train_idx[mask], val_idx


# ---------------------------------------------------------------------------
# protocol runner


@dataclass
class FoldOutcome:
    fold: int
    outcome: TrainOutcome
    metrics: dict
    n_train: int
    n_val: int
    n_test: int
    seed: int
    wall_s: float


def thread_budget() -> int:
    raw = os.environ.get("LIDSN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"LIDSN_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"LIDSN_THREADS must be >= 1, got {n}")
    return n


def run_fold(epochs_set: EpochSet, train_idx: np.ndarray, test_idx: np.ndarray,
             model_cfg: ModelConfig, train_cfg: TrainConfig, fold: int, seed: int,
             align: bool = False) -> FoldOutcome:
    t0 = time.perf_counter()
    fit_idx, val_idx = validation_tail(train_idx, epochs_set.subjects, train_cfg.val_fraction)
    data = euclidean_align(epochs_set, fit_indices=train_idx) if align else epochs_set
    x = data.data.astype(model_cfg.np_dtype, copy=False)
    x_fit, x_val, x_test = x[fit_idx], x[val_idx], x[test_idx]
    labels = data.labels
    del data, x  # the aligned or converted whole set is not kept alive while training
    outcome = train_model(model_cfg, train_cfg, x_fit, labels[fit_idx], x_val, labels[val_idx],
                          seed)
    metrics = evaluate_model(outcome.model, x_test, labels[test_idx])
    return FoldOutcome(fold, outcome, metrics, fit_idx.size, val_idx.size, test_idx.size,
                       seed, time.perf_counter() - t0)


def run_protocol(epochs_set: EpochSet, run: RunConfig, model_cfg: ModelConfig) -> dict:
    """Train and evaluate every (seed, fold) job of the run's protocol split.

    Each seed draws its own initialisation, shuffling and dropout. Jobs run in
    a thread pool sized by LIDSN_THREADS and are reduced seed-major,
    fold-minor, so the output does not depend on scheduling. Aggregates are
    mean and sample std (ddof=1, zero for a single job).
    """
    plan = make_split(epochs_set, run.protocol, n_folds=run.n_folds,
                      train_fraction=run.train_fraction)
    jobs = [(seed, k, tr, te) for seed in run.seeds for k, (tr, te) in enumerate(plan.folds)]

    def work(job):
        seed, k, tr, te = job
        return run_fold(epochs_set, tr, te, model_cfg, run.train, k, seed, align=run.align)

    workers = min(thread_budget(), len(jobs))
    if workers == 1:
        fold_outcomes = [work(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fold_outcomes = list(pool.map(work, jobs))

    accs = np.array([f.metrics["accuracy"] for f in fold_outcomes])
    f1s = np.array([f.metrics["macro_f1"] for f in fold_outcomes])

    def spread(arr):
        return float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    return {
        "protocol": run.protocol,
        "folds": fold_outcomes,
        "mean_accuracy": float(accs.mean()),
        "std_accuracy": spread(accs),
        "mean_macro_f1": float(f1s.mean()),
        "std_macro_f1": spread(f1s),
    }
