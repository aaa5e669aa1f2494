"""Acceptance gate: one test per release criterion.

Each test is self-contained and asserts the criterion at its stated
tolerance; the terminal summary prints one PASS/FAIL line per criterion
(see conftest). Run with `pytest tests/test_acceptance.py -v`.
"""
import json
import struct
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from lidsn import tensor as tz
from lidsn.cli import main
from lidsn.config import ModelConfig
from lidsn.data import (
    ClassRecipe,
    FeatureArgs,
    SynthSpec,
    euclidean_align,
    load_epochs,
    make_split,
    rpsd_features,
    save_epochs,
    synth_generate,
)
from lidsn.errors import DataFormatError
from lidsn.gradcheck import clear_input_draw, grad_check, primitive_cases
from lidsn.network import (
    Model,
    ffn_block,
    gated_refine,
    fuse,
    pooled_context,
    run_layers,
    spatial_tokenize,
    temporal_tokenize,
    tsia_apply,
)
from lidsn.params import (
    count_params,
    count_params_flops,
    init_params,
    load_snapshot,
    round_through_f32,
    save_snapshot,
)
from lidsn.rng import RngStream
from lidsn.tensor import Tensor
from lidsn.training import (
    TrainConfig,
    confusion_matrix,
    metrics_from_confusion,
    run_fold,
    weighted_cross_entropy,
)


def random_tiny_config(i: int) -> ModelConfig:
    """Deterministic menu of varied but valid tiny geometries."""
    geo = [
        dict(n_samples=24, pool_window=6, spatial_conv_stride=3,
             spatial_pool_window=2, kernel_len=3),
        dict(n_samples=40, pool_window=10, spatial_conv_stride=4,
             spatial_pool_window=5, kernel_len=5),
    ][i % 2]
    mode = ("st2t", "st2s", "bidir", "none")[i % 4]
    return ModelConfig(
        n_channels=2 + (i % 3), n_classes=2,
        embed_dim=8 if i % 3 else 4, spatial_maps=2,
        n_heads=2 if i % 3 else 1,
        temporal_depth=1 + (i % 2), spatial_depth=1,
        dropout=0.0, ffn_expansion=2, classifier_hidden=4,
        integration_mode=mode,
        use_tsia=not (i % 7 == 3 and mode == "st2t"),
        fusion_mode="mean-concat" if i % 5 == 2 else "adaptive",
        use_cosine_gate=i % 3 != 1,
        use_electrode_pos_embedding=i % 4 != 1,
        head_shared_electrode_embedding=i % 6 == 0,
        **geo,
    )


def jittered_model(cfg: ModelConfig, seed: int) -> Model:
    """Fresh model with every parameter nudged off its zero-init point."""
    model = Model.build(cfg, seed=seed)
    r = RngStream(seed, 90)
    for name, t in list(model.params.tensors.items()):
        model.params.replace(name, t.data + r.normal(0.0, 0.1, t.shape))
    return model


def test_criterion_1_gradient_suite():
    """Primitives < 1e-5, sub-blocks and full forward+loss < 1e-4 across
    at least 20 random tiny configs, in under two minutes."""
    t0 = time.perf_counter()

    for name, fn, inputs in primitive_cases(seed=0):
        err = grad_check(fn, inputs)
        assert err < 1e-5, f"primitive {name}: {err:.3e}"

    # sub-blocks on one jittered config
    cfg = random_tiny_config(2)
    model = jittered_model(cfg, seed=0)
    ps = model.params
    r = RngStream(5, 91)
    x = Tensor(clear_input_draw(model, 2, r), requires_grad=True)
    z_t = Tensor(r.normal(0, 1, (2, cfg.n_patches, cfg.embed_dim)), requires_grad=True)
    z_s = Tensor(r.normal(0, 1, (2, cfg.n_channels, cfg.embed_dim)), requires_grad=True)
    blocks = {
        "temporal_tokenizer": (lambda ts: tz.reduce_sum(
            temporal_tokenize(ts[0], ps, cfg, False)), [x]),
        "spatial_tokenizer": (lambda ts: tz.reduce_sum(
            spatial_tokenize(ts[0], ps, cfg, False)), [x]),
        "ffn": (lambda ts: tz.reduce_sum(
            ffn_block(ts[0], ps, "layer0.temporal_ffn", cfg, None, False)), [z_t]),
        "sacm": (lambda ts: tz.reduce_sum(pooled_context(
            ts[0], ps, "layer0.tsia", "electrode_embedding", cfg)[0]), [z_s]),
        "tcam": (lambda ts: tz.reduce_sum(
            gated_refine(ts[0], ps, "layer0.tsia", cfg)[0]), [z_t]),
        "tsia": (lambda ts: tz.reduce_sum(tsia_apply(
            ts[0], ts[1], ps, "layer0.tsia", "electrode_embedding", cfg)), [z_s, z_t]),
        "fuse": (lambda ts: tz.reduce_sum(fuse(ts[0], ts[1], ps, cfg)), [z_t, z_s]),
    }
    for name, (fn, inputs) in blocks.items():
        err = grad_check(fn, inputs, max_coords_per_input=6,
                         coord_rng=RngStream(6, 92))
        assert err < 1e-4, f"block {name}: {err:.3e}"

    # full forward + loss on 20 random tiny configs
    for i in range(20):
        cfg = random_tiny_config(i)
        model = jittered_model(cfg, seed=i)
        data_rng = RngStream(i, 93)
        xt = Tensor(clear_input_draw(model, 2, data_rng), requires_grad=True)
        labels = np.array([0, 1])
        weights = np.ones(cfg.n_classes)
        tensors = list(model.params.tensors.values())

        def full(ts):
            xin = ts[0]
            for name, cand in zip(model.params.tensors, ts[1:]):
                model.params.tensors[name] = cand
            return weighted_cross_entropy(model.forward(xin), labels, weights)

        err = grad_check(full, [xt] + tensors, max_coords_per_input=2,
                         coord_rng=RngStream(i, 94))
        assert err < 1e-4, f"config {i} ({cfg.integration_mode}): {err:.3e}"

    assert time.perf_counter() - t0 < 120.0


def test_criterion_2_normalization_suite():
    """Every attention row, importance vector, and patch weight vector
    sums to one within 1e-12 across 100 random forwards."""
    done = 0
    affinity_maps = 0
    for i in range(10):
        cfg = random_tiny_config(i)
        if not cfg.use_tsia or cfg.fusion_mode != "adaptive":
            cfg = replace(cfg, use_tsia=True, fusion_mode="adaptive")
        model = Model.build(cfg, seed=i)
        r = RngStream(i, 95)
        for _ in range(10):
            x = r.normal(0.0, 1.0, (2, cfg.n_channels, cfg.n_samples))
            capture = {}
            model.forward(x, capture=capture)
            assert "fusion/alpha" in capture
            affinity_maps += sum(k.endswith("/affinity") for k in capture)
            for key, arr in capture.items():
                # attention rows, importance vectors and patch weights alike
                assert np.abs(arr.sum(-1) - 1.0).max() < 1e-12, key
            done += 1
    assert done == 100
    assert affinity_maps > 0


def test_criterion_3_architecture_invariants(tiny_cfg):
    """Zero-gate annihilation, stream isolation, channel-permutation
    equivariance, and flag-off == zeroed-weight equivalences."""
    # zero pooled summary zeroes the TSIA output exactly
    model = Model.build(tiny_cfg, seed=0)
    for name in ("layer0.tsia.query_a", "layer0.tsia.electrode_embedding"):
        model.params.replace(name, np.zeros_like(model.params[name].data))
    r = RngStream(1, 96)
    z_s = Tensor(r.normal(0, 1, (2, tiny_cfg.n_channels, tiny_cfg.embed_dim)))
    z_t = Tensor(r.normal(0, 1, (2, tiny_cfg.n_patches, tiny_cfg.embed_dim)))
    out = tsia_apply(z_s, z_t, model.params, "layer0.tsia", "electrode_embedding", tiny_cfg)
    assert np.all(out.data == 0.0)

    # st2t: the spatial stream never sees the temporal stream
    model = Model.build(tiny_cfg, seed=1)
    z_t2 = Tensor(r.normal(0, 1, (2, tiny_cfg.n_patches, tiny_cfg.embed_dim)))
    _, s1 = run_layers(z_t, z_s, model.params, tiny_cfg, None, False)
    _, s2 = run_layers(z_t2, z_s, model.params, tiny_cfg, None, False)
    assert np.array_equal(s1.data, s2.data)

    # permuting channels and channel-indexed parameters leaves logits alone
    model = Model.build(tiny_cfg, seed=2)
    vals = model.params.value_dict()
    x = RngStream(2, 97).normal(0, 1, (tiny_cfg.n_channels, tiny_cfg.n_samples))
    base = model.forward(x[None]).data
    perm = np.array([2, 0, 1])
    permuted = Model.build(tiny_cfg, seed=2)
    permuted.params.replace("temporal_tokenizer.pointwise.weight",
                            vals["temporal_tokenizer.pointwise.weight"][:, perm])
    permuted.params.replace("position.spatial", vals["position.spatial"][perm])
    permuted.params.replace("fusion.channel_weights", vals["fusion.channel_weights"][perm])
    for layer in range(tiny_cfg.temporal_depth):
        name = f"layer{layer}.tsia.electrode_embedding"
        permuted.params.replace(name, vals[name][:, perm, :])
    assert np.abs(permuted.forward(x[perm][None]).data - base).max() <= 1e-12

    # each ablation flag equals running with the corresponding weights zeroed
    flag_zero = [
        ("use_cosine_gate", ["layer0.tsia.gate", "layer1.tsia.gate"]),
        ("use_electrode_pos_embedding",
         ["layer0.tsia.electrode_embedding", "layer1.tsia.electrode_embedding"]),
        ("use_positional_embedding", ["position.temporal", "position.spatial"]),
    ]
    for flag, names in flag_zero:
        cfg_off = replace(tiny_cfg, **{flag: False})
        on = Model.build(tiny_cfg, seed=3)
        off = Model.build(cfg_off, seed=3)
        for name in names:
            on.params.replace(name, np.zeros_like(on.params[name].data))
        xa = RngStream(3, 98).normal(0, 1, (2, tiny_cfg.n_channels, tiny_cfg.n_samples))
        assert np.array_equal(on.forward(xa).data, off.forward(xa).data), flag


def test_criterion_4_parameter_and_flop_accounting():
    """Reference config inside the published budget; ablation deltas match
    closed-form shape arithmetic exactly."""
    cfg = ModelConfig(n_channels=22, n_samples=1000, n_classes=2)
    params, flops = count_params_flops(cfg)
    assert 121_300 * 0.7 <= params <= 121_300 * 1.3
    assert 6_120_000 / 2 <= flops <= 6_120_000 * 2

    base = count_params(cfg)
    h, d, dh = cfg.n_heads, cfg.embed_dim, cfg.head_dim
    c, p, depth = cfg.n_channels, cfg.n_patches, cfg.temporal_depth
    w = cfg.fusion_width

    assert base - count_params(replace(cfg, fusion_mode="mean-concat")) == \
        c + (d * w + w) + (w + 1)
    assert base - count_params(replace(cfg, use_cosine_gate=False)) == depth * h * d * dh
    assert base - count_params(replace(cfg, use_electrode_pos_embedding=False)) == \
        depth * h * c * dh
    assert base - count_params(replace(cfg, use_positional_embedding=False)) == \
        p * d + c * d
    assert base - count_params(replace(cfg, head_shared_electrode_embedding=True)) == \
        depth * (h - 1) * c * dh
    tsia_rev_block = 5 * h * d * dh + h * p * dh + d * d
    assert count_params(replace(cfg, integration_mode="bidir")) - base == \
        depth * tsia_rev_block


def _logistic_pilot_accuracy(epochs_set, train_trials, test_trials) -> float:
    """Plain logistic regression on band-power features of the same split."""
    feats = rpsd_features(epochs_set, FeatureArgs(outer_window_s=4.0, outer_overlap=0.0,
                                                  inner_window_s=2.0, inner_overlap=0.75))
    assert feats.n_trials == epochs_set.n_trials  # one outer segment per trial
    x = feats.data.reshape(feats.n_trials, -1)
    y = feats.labels
    xtr, ytr = x[train_trials], y[train_trials]
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(500):
        p = 1.0 / (1.0 + np.exp(-(xtr @ w + b)))
        err = p - ytr
        w -= 0.5 * (xtr.T @ err / len(ytr))
        b -= 0.5 * float(err.mean())
    pred = (x[test_trials] @ w + b > 0).astype(np.int64)
    return float((pred == y[test_trials]).mean())


def test_criterion_5_end_to_end_learning():
    """Default synthetic task: CO accuracy >= 0.90 within 50 epochs, and the
    no-interaction ablation does not beat st2t. Under ten minutes. A plain
    logistic baseline on band powers must reach 0.85 first, confirming the
    threshold is meaningful for this data."""
    t0 = time.perf_counter()
    epochs_set = synth_generate(SynthSpec(), seed=0)
    assert epochs_set.n_trials == 200
    assert np.bincount(epochs_set.labels).tolist() == [100, 100]

    plan = make_split(epochs_set, "CO", train_fraction=0.8)
    tr, te = plan.folds[0]
    assert _logistic_pilot_accuracy(epochs_set, tr, te) >= 0.85

    tcfg = TrainConfig(epochs=50, patience=20)
    accs = {}
    for mode in ("st2t", "none"):
        cfg = ModelConfig(n_channels=8, n_samples=512, n_classes=2,
                          integration_mode=mode)
        fold = run_fold(epochs_set, tr, te, cfg, tcfg, fold=0, seed=0)
        accs[mode] = fold.metrics["accuracy"]
        assert fold.outcome.epochs_run <= 50
    assert accs["st2t"] >= 0.90
    assert accs["none"] <= accs["st2t"]
    assert time.perf_counter() - t0 < 600.0


def test_criterion_6_alignment_postcondition():
    """Aligned per-subject mean covariance is the identity within 1e-8
    Frobenius; aligning twice changes nothing beyond 1e-8."""
    spec = SynthSpec(n_subjects=3, trials_per_subject=8, n_channels=6,
                     n_samples=256, fs=128.0,
                     classes=(ClassRecipe(10.0, (0, 1)), ClassRecipe(22.0, (3,))))
    e = synth_generate(spec, seed=1)
    aligned = euclidean_align(e)
    for s in range(3):
        idx = np.where(e.subjects == s)[0]
        covs = [x @ x.T / e.n_samples for x in aligned.data[idx]]
        assert np.linalg.norm(np.mean(covs, axis=0) - np.eye(6)) < 1e-8
    twice = euclidean_align(aligned)
    assert np.abs(twice.data - aligned.data).max() < 1e-8


def test_criterion_7_metric_oracle():
    """Ten fixed confusion fixtures reproduce hand-computed metrics."""
    fixtures = [
        # (confusion, expected accuracy, expected per-class f1)
        ([[4, 1], [2, 3]], 7 / 10, [2 * (4 / 6) * (4 / 5) / (4 / 6 + 4 / 5),
                                    2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5)]),
        ([[5, 0], [0, 5]], 1.0, [1.0, 1.0]),
        ([[0, 5], [5, 0]], 0.0, [0.0, 0.0]),
        ([[5, 0], [5, 0]], 0.5, [2 * 0.5 * 1.0 / 1.5, 0.0]),
        ([[0, 0], [0, 8]], 1.0, [0.0, 1.0]),
        ([[98, 2], [1, 0]], 98 / 101, [2 * (98 / 99) * (98 / 100) / (98 / 99 + 98 / 100), 0.0]),
        ([[4, 1], [1, 4]], 8 / 10, [0.8, 0.8]),
        ([[0, 0], [0, 0]], 0.0, [0.0, 0.0]),
        ([[3, 0, 1], [0, 4, 0], [1, 0, 3]], 10 / 12,
         [0.75, 1.0, 0.75]),
        ([[1, 1], [0, 2]], 3 / 4, [2 * 1.0 * 0.5 / 1.5, 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)]),
    ]
    for conf, acc, f1s in fixtures:
        m = metrics_from_confusion(np.array(conf))
        assert m["accuracy"] == acc, conf
        for k, f in enumerate(f1s):
            assert m["f1"][k] == pytest.approx(f, abs=1e-15), (conf, k)
        assert m["macro_f1"] == pytest.approx(float(np.mean(f1s)), abs=1e-15)

    # the canonical TP=3, FP=1, FN=2 case rounds to 0.6667
    m = metrics_from_confusion(np.array([[4, 1], [2, 3]]))
    assert round(m["f1"][1], 4) == 0.6667
    assert m["precision"][1] == 0.75 and m["recall"][1] == 0.6

    # confusion_matrix feeds the oracle with true rows and predicted columns
    conf = confusion_matrix(np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]),
                            np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0]), 2)
    assert np.array_equal(conf, [[4, 1], [2, 3]])


def test_criterion_8_training_determinism(tmp_path):
    """Two identical train invocations produce byte-identical report.json
    and model.bin."""
    spec = {"n_subjects": 2, "trials_per_subject": 10, "n_channels": 3,
            "n_samples": 40, "fs": 40.0,
            "classes": [{"freq_hz": 5.0, "channels": [0]},
                        {"freq_hz": 12.0, "channels": [1]}]}
    run_cfg = {"protocol": "CO", "seeds": [0],
               "train": {"epochs": 3, "patience": 3, "batch_size": 8},
               "model": {"embed_dim": 8, "spatial_maps": 2, "n_heads": 2,
                         "temporal_depth": 2, "spatial_depth": 1, "dropout": 0.25,
                         "ffn_expansion": 2, "kernel_len": 5, "pool_window": 10,
                         "spatial_conv_stride": 4, "spatial_pool_window": 5,
                         "classifier_hidden": 8}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_path = tmp_path / "epochs.eegb"
    assert main(["synth", "--out", str(data_path), "--seed", "1",
                 "--config", str(spec_path)]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_path), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()


def test_criterion_9_format_roundtrips(tmp_path, tiny_cfg):
    """EEGB and snapshot files round-trip bit-exactly; six corrupted files
    raise six distinct error kinds."""
    e = synth_generate(SynthSpec(n_subjects=2, trials_per_subject=4, n_channels=3,
                                 n_samples=64, fs=64.0,
                                 classes=(ClassRecipe(8.0, (0,)),
                                          ClassRecipe(16.0, (1,)))), seed=2)
    path = tmp_path / "e.eegb"
    save_epochs(path, e)
    back = load_epochs(path)
    assert np.array_equal(back.data, e.data)
    assert np.array_equal(back.labels, e.labels)
    assert np.array_equal(back.subjects, e.subjects)
    assert back.fs == e.fs and back.n_classes == e.n_classes

    ps = round_through_f32(init_params(tiny_cfg, seed=4), tiny_cfg.np_dtype)
    snap = tmp_path / "m.bin"
    save_snapshot(snap, ps)
    values = load_snapshot(snap)
    for name, arr in ps.value_dict().items():
        assert np.array_equal(values[name], arr), name

    header = struct.Struct("<4sHIHIfH")
    good = (header.pack(b"EEGB", 1, 2, 2, 3, 100.0, 2)
            + np.array([0, 1], dtype="<u2").tobytes()
            + np.array([0, 0], dtype="<u2").tobytes()
            + np.arange(12, dtype="<f4").tobytes())
    corruptions = {
        "bad_magic": b"XXXX" + good[4:],
        "bad_version": good[:4] + struct.pack("<H", 7) + good[6:],
        "truncated_header": good[:10],
        "truncated_payload": good[:-4],
        "trailing_data": good + b"\x00",
        "label_out_of_range": (good[:header.size]
                               + np.array([0, 9], dtype="<u2").tobytes()
                               + good[header.size + 4:]),
    }
    seen = set()
    for kind, blob in corruptions.items():
        p = tmp_path / f"{kind}.eegb"
        p.write_bytes(blob)
        with pytest.raises(DataFormatError) as exc:
            load_epochs(p)
        assert exc.value.kind == kind
        seen.add(exc.value.kind)
    assert len(seen) == 6
