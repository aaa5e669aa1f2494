"""Loss, optimizer, metrics, and the training loop."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidsn.config import ModelConfig, from_dict
from lidsn.data import ClassRecipe, EpochSet, SynthSpec, synth_generate
from lidsn.errors import ConfigError, NumericError
from lidsn.gradcheck import grad_check
from lidsn.network import Model
from lidsn.params import ParamSet
from lidsn.rng import RngStream
from lidsn.tensor import Tape, Tensor, backward
from lidsn.training import (
    Adam,
    RunConfig,
    TrainConfig,
    _batches,
    class_weights,
    confusion_matrix,
    evaluate_model,
    metrics_from_confusion,
    run_protocol,
    thread_budget,
    train_model,
    validation_tail,
    weighted_cross_entropy,
)


def tiny_data(tiny_cfg, n_subjects=2, trials=12, seed=0):
    spec = SynthSpec(
        n_subjects=n_subjects, trials_per_subject=trials,
        n_channels=tiny_cfg.n_channels, n_samples=tiny_cfg.n_samples, fs=40.0,
        classes=(ClassRecipe(5.0, (0,)), ClassRecipe(12.0, (1,))),
    )
    return synth_generate(spec, seed=seed)


# ---------------------------------------------------------------------------
# class weights and loss


def test_class_weights_inverse_frequency():
    labels = np.array([0] * 8 + [1] * 4)
    w = class_weights(labels, 2)
    assert np.allclose(w, [12 / (2 * 8), 12 / (2 * 4)])


def test_class_weights_missing_class_rejected():
    with pytest.raises(ConfigError):
        class_weights(np.array([0, 0, 0]), 2)


def test_cross_entropy_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((5, 3)))
    labels = np.array([0, 1, 2, 0, 1])
    loss = weighted_cross_entropy(logits, labels, np.ones(3))
    assert abs(float(loss.data) - np.log(3.0)) < 1e-12


def test_cross_entropy_hand_computed():
    logits = np.array([[2.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    weights = np.array([0.75, 1.5])
    lse0 = np.log(np.exp(2.0) + 1.0)
    lse1 = np.log(1.0 + np.exp(1.0))
    want = (0.75 * (lse0 - 2.0) + 1.5 * (lse1 - 1.0)) / 2.0
    loss = weighted_cross_entropy(Tensor(logits), labels, weights)
    assert abs(float(loss.data) - want) < 1e-12


def test_cross_entropy_shift_invariant():
    r = RngStream(1, 300)
    logits = r.normal(0, 2, (6, 4))
    labels = r.integers(0, 4, 6)
    w = np.array([0.5, 1.0, 1.5, 2.0])
    a = weighted_cross_entropy(Tensor(logits), labels, w)
    b = weighted_cross_entropy(Tensor(logits + 100.0), labels, w)
    assert abs(float(a.data) - float(b.data)) < 1e-9


def test_cross_entropy_single_sample_uniform_equals_unweighted():
    logits = np.array([[0.3, -1.2, 0.8]])
    labels = np.array([2])
    loss = weighted_cross_entropy(Tensor(logits), labels, np.ones(3))
    lse = np.log(np.exp(logits[0]).sum())
    assert float(loss.data) == pytest.approx(lse - 0.8, abs=1e-15)


def test_cross_entropy_gradient():
    r = RngStream(2, 301)
    logits = Tensor(r.normal(0, 1, (5, 3)), requires_grad=True)
    labels = r.integers(0, 3, 5)
    w = np.array([0.5, 1.0, 2.0])
    err = grad_check(lambda ts: weighted_cross_entropy(ts[0], labels, w), [logits])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Adam


def one_param(v):
    ps = ParamSet()
    ps.tensors["w"] = Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
    return ps


def test_adam_two_steps_match_hand_rollout():
    cfg = TrainConfig(lr=0.1)
    ps = one_param([1.0, -2.0])
    opt = Adam(ps, cfg)
    g = np.array([0.5, -1.0])
    theta = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in (1, 2):
        opt.step({ps.tensors["w"]: g})
        m = 0.9 * m + 0.1 * g
        v = 0.95 * v + 0.05 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.95 ** t)
        theta = theta - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(ps.tensors["w"].data, theta, atol=1e-15)


def test_adam_first_step_is_signlike():
    cfg = TrainConfig(lr=0.01)
    ps = one_param([0.0, 0.0, 0.0])
    opt = Adam(ps, cfg)
    opt.step({ps.tensors["w"]: np.array([3.0, -0.007, 1e-12])})
    step = ps.tensors["w"].data
    # bias-corrected first step moves by ~lr against the gradient sign
    assert step[0] == pytest.approx(-0.01, rel=1e-6)
    assert step[1] == pytest.approx(0.01, rel=1e-4)


def test_adam_skips_parameters_without_gradients():
    ps = one_param([1.0])
    ps.tensors["frozen"] = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam(ps, TrainConfig(lr=0.1))
    opt.step({ps.tensors["w"]: np.array([1.0])})
    assert ps.tensors["frozen"].data[0] == 5.0
    assert ps.tensors["w"].data[0] != 1.0


def test_adam_rejects_non_finite_gradient():
    ps = one_param([1.0])
    opt = Adam(ps, TrainConfig())
    with pytest.raises(NumericError) as e:
        opt.step({ps.tensors["w"]: np.array([np.nan])})
    assert "w" in str(e.value)


# ---------------------------------------------------------------------------
# metrics


def test_confusion_matrix_layout():
    conf = confusion_matrix(np.array([0, 0, 1, 1, 1]), np.array([0, 1, 1, 1, 0]), 2)
    assert np.array_equal(conf, [[1, 1], [1, 2]])


def test_metrics_hand_fixture():
    labels = np.array([1] * 5 + [0] * 5)
    preds = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
    m = metrics_from_confusion(confusion_matrix(labels, preds, 2))
    assert m["confusion"] == [[4, 1], [2, 3]]
    assert m["accuracy"] == pytest.approx(0.7)
    assert m["precision"][1] == pytest.approx(0.75)
    assert m["recall"][1] == pytest.approx(0.6)
    assert m["f1"][1] == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert m["f1_positive"] == m["f1"][1]
    assert m["macro_f1"] == pytest.approx((m["f1"][0] + m["f1"][1]) / 2)


def test_metrics_absent_class_scores_zero():
    m = metrics_from_confusion(np.array([[5, 0], [0, 0]]))
    assert m["precision"][1] == 0.0 and m["recall"][1] == 0.0 and m["f1"][1] == 0.0
    assert m["accuracy"] == 1.0


def test_macro_f1_invariant_under_relabeling():
    conf = np.array([[5, 2, 1], [0, 7, 3], [2, 2, 6]])
    base = metrics_from_confusion(conf)["macro_f1"]
    perm = np.array([2, 0, 1])
    relabeled = conf[np.ix_(perm, perm)]
    assert metrics_from_confusion(relabeled)["macro_f1"] == pytest.approx(base, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 5), data=st.data())
def test_metrics_equal_the_per_class_loop(k, data):
    # the vectorised counts and ratios against the loops they replaced, exactly
    pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                               max_size=40))
    conf = confusion_matrix(np.array([y for y, _ in pairs], dtype=np.int64),
                            np.array([p for _, p in pairs], dtype=np.int64), k)
    loop = np.zeros((k, k), dtype=np.int64)
    for y, p in pairs:
        loop[y, p] += 1
    assert np.array_equal(conf, loop)
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp, predicted, actual = conf[c, c], conf[:, c].sum(), conf[c, :].sum()
        precision.append(float(tp / predicted) if predicted else 0.0)
        recall.append(float(tp / actual) if actual else 0.0)
        p, r = precision[-1], recall[-1]
        f1.append(float(2.0 * p * r / (p + r)) if (p + r) else 0.0)
    m = metrics_from_confusion(conf)
    assert (m["precision"], m["recall"], m["f1"]) == (precision, recall, f1)
    assert m["macro_f1"] == float(np.mean(f1))


def test_metrics_empty_confusion():
    m = metrics_from_confusion(np.zeros((2, 2), dtype=int))
    assert m["accuracy"] == 0.0 and m["macro_f1"] == 0.0


def test_evaluate_model_loss_matches_primitive(tiny_cfg):
    model = Model.build(tiny_cfg, seed=1)
    r = RngStream(3, 302)
    x = r.normal(0, 1, (6, tiny_cfg.n_channels, tiny_cfg.n_samples))
    labels = r.integers(0, 2, 6)
    w = np.array([0.8, 1.2])
    got = evaluate_model(model, x, labels, w)["loss"]
    want = float(weighted_cross_entropy(Tensor(model.logits_np(x)), labels, w).data)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# training loop


def test_train_is_deterministic(tiny_cfg):
    e = tiny_data(tiny_cfg)
    cfg = TrainConfig(epochs=3, patience=3, batch_size=8)
    x = e.data
    runs = []
    for _ in range(2):
        out = train_model(tiny_cfg, cfg, x[:20], e.labels[:20], x[20:], e.labels[20:], seed=4)
        runs.append(out)
    assert runs[0].curves == runs[1].curves
    best = [run.model.params.value_dict() for run in runs]
    for name in best[0]:
        assert np.array_equal(best[0][name], best[1][name])


def test_patience_beyond_epochs_changes_nothing(tiny_cfg):
    """Patience at or above epochs can never stop a run early, so it is accepted."""
    e = tiny_data(tiny_cfg)
    x = e.data
    runs = [train_model(tiny_cfg, TrainConfig(epochs=3, patience=p, batch_size=8),
                        x[:20], e.labels[:20], x[20:], e.labels[20:], seed=4)
            for p in (3, 50)]
    assert runs[0].curves == runs[1].curves and runs[1].epochs_run == 3
    best = [run.model.params.value_dict() for run in runs]
    for name in best[0]:
        assert np.array_equal(best[0][name], best[1][name])


def test_train_early_stopping_invariant(tiny_cfg):
    e = tiny_data(tiny_cfg)
    cfg = TrainConfig(epochs=40, patience=3, batch_size=8)
    x = e.data
    out = train_model(tiny_cfg, cfg, x[:18], e.labels[:18], x[18:], e.labels[18:], seed=5)
    assert len(out.curves) == out.epochs_run
    if out.epochs_run < cfg.epochs:
        assert out.epochs_run == out.best_epoch + cfg.patience
    val_losses = [row["val_loss"] for row in out.curves]
    assert out.best_val_loss == min(val_losses)
    assert out.curves[out.best_epoch - 1]["val_loss"] == out.best_val_loss


def test_train_without_validation_runs_all_epochs(tiny_cfg):
    e = tiny_data(tiny_cfg)
    cfg = TrainConfig(epochs=3, patience=3, batch_size=8)
    empty = np.zeros((0, tiny_cfg.n_channels, tiny_cfg.n_samples))
    out = train_model(tiny_cfg, cfg, e.data, e.labels, empty, np.zeros(0, dtype=np.int64),
                      seed=6)
    assert out.epochs_run == 3 and out.best_epoch == 3
    assert np.isnan(out.best_val_loss)
    assert all("val_loss" not in row for row in out.curves)


def test_train_rejects_an_empty_training_set_by_name(tiny_cfg):
    # named before the class weights, which would blame a missing class
    e = tiny_data(tiny_cfg)
    with pytest.raises(ConfigError, match="^training set is empty$"):
        train_model(tiny_cfg, TrainConfig(), e.data[:0], e.labels[:0], e.data, e.labels)


def test_train_restores_best_snapshot(tiny_cfg):
    e = tiny_data(tiny_cfg)
    cfg = TrainConfig(epochs=6, patience=2, batch_size=8)
    x = e.data
    out = train_model(tiny_cfg, cfg, x[:18], e.labels[:18], x[18:], e.labels[18:], seed=7)
    w = class_weights(e.labels[:18], 2)
    revalidated = evaluate_model(out.model, x[18:], e.labels[18:], w)["loss"]
    # restored parameters are float32-rounded, so allow rounding-level drift
    assert revalidated == pytest.approx(out.best_val_loss, rel=1e-4)


@pytest.mark.parametrize("fusion", ["adaptive", "mean-concat"])
@pytest.mark.parametrize("mode", ["st2t", "st2s", "bidir", "none"])
def test_float32_model_steps_in_float32(tiny_cfg, mode, fusion):
    cfg = replace(tiny_cfg, integration_mode=mode, fusion_mode=fusion, dtype="float32")
    model = Model.build(cfg, seed=2)
    opt = Adam(model.params, TrainConfig())
    x = RngStream(5, 216).normal(0.0, 1.0, (4, cfg.n_channels, cfg.n_samples))
    with Tape() as tape:
        logits = model.forward(x, rng=RngStream(5, 217), training=True)
        loss = weighted_cross_entropy(logits, np.array([0, 1, 1, 0]), np.ones(cfg.n_classes))
        grads = backward(loss, tape)
    opt.step(grads)
    assert logits.dtype == np.float32 and loss.dtype == np.float32
    arrays = {
        **{f"grad {n}": grads[t] for n, t in model.params.tensors.items() if t in grads},
        **{f"m {n}": a for n, a in opt._m.items()},
        **{f"v {n}": a for n, a in opt._v.items()},
        **{f"param {n}": t.data for n, t in model.params.tensors.items()},
    }
    assert [name for name, a in arrays.items() if a.dtype != np.float32] == []


def test_train_keeps_final_short_batch(tiny_cfg):
    """9 trials at batch 8 leave a size-1 remainder; it joins the batch before
    it (train-mode batch statistics need two rows) instead of being dropped."""
    e = tiny_data(tiny_cfg)
    cfg = TrainConfig(epochs=1, patience=1, batch_size=8)
    empty = np.zeros((0, tiny_cfg.n_channels, tiny_cfg.n_samples))
    out = train_model(tiny_cfg, cfg, e.data[:9], e.labels[:9], empty,
                      np.zeros(0, dtype=np.int64), seed=10)
    assert out.epochs_run == 1
    assert np.isfinite(out.curves[0]["train_loss"])


@given(n=st.integers(2, 300), batch_size=st.integers(2, 64), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_batches_partition_order_with_two_rows_each(n, batch_size, seed):
    order = np.random.default_rng(seed).permutation(n)
    batches = list(_batches(order, batch_size))
    assert np.array_equal(np.concatenate(batches), order)
    assert all(b.size >= 2 for b in batches)
    if n % batch_size != 1:
        plain = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        assert len(batches) == len(plain)
        assert all(np.array_equal(a, b) for a, b in zip(batches, plain))


def test_train_config_validation_and_parsing():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError, match="batchnorm"):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        from_dict(TrainConfig, {"lr": 0.01, "bogus": 1})
    cfg = from_dict(TrainConfig, {"lr": 0.01, "epochs": 30})
    assert cfg.lr == 0.01 and cfg.epochs == 30 and cfg.patience == 20
    assert from_dict(TrainConfig, {"epochs": 5}).patience == 20  # patience may exceed epochs


# ---------------------------------------------------------------------------
# validation tail and protocol runner


def test_validation_tail_takes_last_trials_per_subject():
    subjects = np.repeat([0, 1], 10)
    train_idx = np.arange(20)
    fit, val = validation_tail(train_idx, subjects, fraction=0.1)
    assert np.array_equal(val, [9, 19])
    assert np.array_equal(np.sort(np.concatenate([fit, val])), train_idx)


def test_validation_tail_fraction_floor():
    subjects = np.zeros(10, dtype=np.int64)
    _, val = validation_tail(np.arange(10), subjects, fraction=0.25)
    assert np.array_equal(val, [8, 9])  # floor(2.5) = 2 trials


def test_validation_tail_skips_single_trial_subjects():
    subjects = np.array([0, 1, 1])
    fit, val = validation_tail(np.arange(3), subjects, fraction=0.5)
    assert 0 in fit and 0 not in val
    assert np.array_equal(val, [2])


def test_validation_tail_all_singletons_gives_empty_val():
    subjects = np.arange(4)
    fit, val = validation_tail(np.arange(4), subjects, fraction=0.2)
    assert val.size == 0 and np.array_equal(fit, np.arange(4))


def test_thread_budget_env(monkeypatch):
    monkeypatch.delenv("LIDSN_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("LIDSN_THREADS", "4")
    assert thread_budget() == 4
    monkeypatch.setenv("LIDSN_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_budget()
    monkeypatch.setenv("LIDSN_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_budget()


def test_run_protocol_thread_count_does_not_change_results(tiny_cfg, monkeypatch):
    e = tiny_data(tiny_cfg, trials=10)
    run = RunConfig(train=TrainConfig(epochs=2, patience=2, batch_size=8), protocol="CV",
                    n_folds=2, seeds=(8,))
    monkeypatch.setenv("LIDSN_THREADS", "1")
    a = run_protocol(e, run, tiny_cfg)
    monkeypatch.setenv("LIDSN_THREADS", "2")
    b = run_protocol(e, run, tiny_cfg)
    assert a["mean_accuracy"] == b["mean_accuracy"]
    assert a["std_accuracy"] == b["std_accuracy"]
    fold_accs = [f.metrics["accuracy"] for f in a["folds"]]
    assert a["mean_accuracy"] == pytest.approx(np.mean(fold_accs), abs=1e-15)
    assert a["std_accuracy"] == pytest.approx(np.std(fold_accs, ddof=1), abs=1e-15)
    for fa, fb in zip(a["folds"], b["folds"]):
        assert fa.metrics == fb.metrics
        best_a = fa.outcome.model.params.value_dict()
        best_b = fb.outcome.model.params.value_dict()
        for name in best_a:
            assert np.array_equal(best_a[name], best_b[name])


@pytest.mark.parametrize("seeds", [(), (0, -1), (0, 0)])
def test_run_config_rejects_bad_seeds(seeds):
    # a run that could reach run_protocol has valid seeds: the check is the config's
    with pytest.raises(ConfigError, match="seeds must be non-empty and >= 0"):
        RunConfig(seeds=seeds)


def test_run_protocol_reports_aggregates(tiny_cfg):
    e = tiny_data(tiny_cfg, trials=10)
    run = RunConfig(train=TrainConfig(epochs=2, patience=2, batch_size=8), seeds=(9,))
    rep = run_protocol(e, run, tiny_cfg)
    assert rep["protocol"] == "CO" and len(rep["folds"]) == 1
    f = rep["folds"][0]
    assert f.n_train + f.n_val == 16 and f.n_test == 4
    assert rep["std_accuracy"] == 0.0
    assert rep["mean_accuracy"] == f.metrics["accuracy"]
