"""Command-line interface: artifacts, determinism, exit codes."""
import argparse
import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from lidsn import cli
from lidsn.cli import build_parser, canonical_json, main
from lidsn.data import load_epochs
from lidsn.errors import ConfigError
from lidsn.gradcheck import primitive_cases

SYNTH_SPEC = {
    "n_subjects": 2,
    "trials_per_subject": 10,
    "n_channels": 3,
    "n_samples": 40,
    "fs": 40.0,
    "classes": [
        {"freq_hz": 5.0, "channels": [0]},
        {"freq_hz": 12.0, "channels": [1]},
    ],
}

RUN_CONFIG = {
    "protocol": "CO",
    "seeds": [0],
    "train": {"epochs": 2, "patience": 2, "batch_size": 8},
    "model": {
        "embed_dim": 8, "spatial_maps": 2, "n_heads": 2, "temporal_depth": 2,
        "spatial_depth": 1, "dropout": 0.0, "ffn_expansion": 2, "kernel_len": 5,
        "pool_window": 10, "spatial_conv_stride": 4,
        "spatial_pool_window": 5, "classifier_hidden": 8,
    },
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared synth file, run config, and one trained output directory."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    data_path = root / "epochs.eegb"
    assert main(["synth", "--out", str(data_path), "--seed", "3",
                 "--config", str(spec_path)]) == 0
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(RUN_CONFIG))
    out_dir = root / "run1"
    assert main(["train", "--data", str(data_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    return {"root": root, "data": data_path, "cfg": cfg_path, "out": out_dir}


def test_synth_output_is_loadable(work):
    e = load_epochs(work["data"])
    assert e.n_trials == 20 and e.n_channels == 3 and e.n_samples == 40
    assert e.fs == 40.0 and e.n_classes == 2


def test_train_writes_expected_artifacts(work):
    out = work["out"]
    for name in ("report.json", "curves.csv", "model.bin", "timing.json", "summary.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["epochs_run"] == 2
    assert report["n_train"] + report["n_val"] == 16 and report["n_test"] == 4
    assert set(report["test"]) >= {"accuracy", "macro_f1", "confusion"}
    assert report["params"] > 0 and report["flops"] > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_accuracy"] == report["test"]["accuracy"]
    header = (out / "curves.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,val_acc"


def test_train_rerun_is_byte_identical(work):
    out2 = work["root"] / "run2"
    assert main(["train", "--data", str(work["data"]), "--config", str(work["cfg"]),
                 "--out", str(out2)]) == 0
    for name in ("report.json", "curves.csv", "model.bin", "summary.json"):
        assert (work["out"] / name).read_bytes() == (out2 / name).read_bytes(), name


def test_float32_train_rerun_is_byte_identical(work):
    cfg_path = work["root"] / "f32.json"
    cfg_path.write_text(json.dumps(dict(RUN_CONFIG, model=dict(RUN_CONFIG["model"], dtype="float32"))))
    outs = [work["root"] / f"f32-run{i}" for i in (1, 2)]
    for out in outs:
        assert main(["train", "--data", str(work["data"]), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    for name in ("report.json", "model.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_multi_job_train_layout_and_thread_independence(work, monkeypatch):
    run_cfg = dict(RUN_CONFIG, protocol="CV", n_folds=3, seeds=[0, 4])
    cfg_path = work["root"] / "multi.json"
    cfg_path.write_text(json.dumps(run_cfg))
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LIDSN_THREADS", threads)
        out = work["root"] / f"multi-t{threads}"
        assert main(["train", "--data", str(work["data"]), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    jobs = [(seed, fold) for seed in (0, 4) for fold in range(3)]
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert [(j["seed"], j["fold"]) for j in summary["jobs"]] == jobs
    expected = {"summary.json"} | {
        f"seed{seed}_fold{fold}/{name}" for seed, fold in jobs
        for name in ("report.json", "curves.csv", "model.bin", "timing.json")
    }
    for out in outs:
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == expected
    for name in sorted(expected):
        if not name.endswith("timing.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_print_config_roundtrip(work, capsys):
    assert main(["train", "--data", str(work["data"]), "--config", str(work["cfg"]),
                 "--out", str(work["root"] / "unused"), "--print-config"]) == 0
    first = capsys.readouterr().out
    resolved = json.loads(first)
    assert resolved["protocol"] == "CO"
    assert resolved["model"]["n_channels"] == 3
    echo = work["root"] / "resolved.json"
    echo.write_text(first)
    assert main(["train", "--data", str(work["data"]), "--config", str(echo),
                 "--out", str(work["root"] / "unused"), "--print-config"]) == 0
    assert capsys.readouterr().out == first


def test_eval_prints_metrics_and_confusion(work, capsys):
    out = work["root"] / "evald"
    assert main(["eval", "--data", str(work["data"]), "--model",
                 str(work["out"] / "model.bin"), "--config", str(work["cfg"]),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "acc=" in text and "macro_f1=" in text
    lines = (out / "confusion.csv").read_text().splitlines()
    assert lines[0] == "true,pred0,pred1"
    assert len(lines) == 3


def viz_names(mode: str, fusion: str, depth: int, heads: int) -> set:
    """File names export-viz writes for one model configuration."""
    suffixes = {"st2t": [""], "st2s": ["_rev"], "bidir": ["", "_rev"], "none": []}[mode]
    stems = ["saliency"] + (["alpha"] if fusion == "adaptive" else [])
    for layer in range(depth):
        for rev in suffixes:
            stems.append(f"omega{rev}_layer{layer}")
            for head in range(heads):
                stems += [f"sacm{rev}_layer{layer}_head{head}",
                          f"tcam{rev}_layer{layer}_head{head}"]
    return {stem + ext for stem in stems for ext in (".csv", ".svg")}


@pytest.mark.parametrize("mode,fusion", [
    ("st2t", "adaptive"), ("st2s", "adaptive"), ("bidir", "adaptive"), ("none", "adaptive"),
    ("st2t", "mean-concat"),
], ids=["st2t", "st2s", "bidir", "none", "mean-concat"])
def test_export_viz_writes_maps(work, capsys, mode, fusion):
    root = work["root"] / f"viz-{mode}-{fusion}"
    run_cfg = dict(RUN_CONFIG, train=dict(RUN_CONFIG["train"], epochs=1, patience=1),
                   model=dict(RUN_CONFIG["model"], integration_mode=mode, fusion_mode=fusion))
    cfg_path = root.with_suffix(".json")
    cfg_path.write_text(json.dumps(run_cfg))
    assert main(["train", "--data", str(work["data"]), "--config", str(cfg_path),
                 "--out", str(root / "run")]) == 0
    out = root / "viz"
    capsys.readouterr()
    assert main(["export-viz", "--data", str(work["data"]), "--model",
                 str(root / "run" / "model.bin"), "--config", str(cfg_path),
                 "--out", str(out), "--trial", "1"]) == 0
    names = {p.name for p in out.iterdir()}
    model = RUN_CONFIG["model"]
    assert names == viz_names(mode, fusion, model["temporal_depth"], model["n_heads"])
    assert capsys.readouterr().out == f"wrote {len(names)} files to {out}\n"


def test_features_smoke(work):
    out = work["root"] / "features.eegb"
    assert main(["features", "--data", str(work["data"]), "--out", str(out),
                 "--outer-window", "1.0", "--outer-overlap", "0.0",
                 "--inner-window", "0.5", "--inner-overlap", "0.5"]) == 0
    feats = load_epochs(out)
    assert feats.n_trials == 20
    assert feats.n_channels == 3


def test_features_rerun_is_byte_identical(work):
    outs = [work["root"] / f"features-rerun{k}.eegb" for k in (1, 2)]
    for out in outs:
        assert main(["features", "--data", str(work["data"]), "--out", str(out),
                     "--outer-window", "0.75", "--outer-overlap", "0.6",
                     "--inner-window", "0.25", "--inner-overlap", "0.5"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_split_prints_canonical_json(work, capsys):
    assert main(["split", "--data", str(work["data"]), "--protocol", "CV",
                 "--n-folds", "2"]) == 0
    text = capsys.readouterr().out
    plan = json.loads(text)
    assert plan["protocol"] == "CV" and len(plan["folds"]) == 2
    covered = sorted(i for f in plan["folds"] for i in f["test"])
    assert covered == list(range(20))
    assert text == canonical_json(plan)


def test_count_exact_output(capsys):
    assert main(["count", "--channels", "22", "--samples", "1000",
                 "--classes", "2"]) == 0
    assert capsys.readouterr().out == "params=124009 flops=11446494\n"


def test_count_requires_geometry(capsys):
    assert main(["count", "--channels", "22"]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")


def test_count_with_data_counts_the_model_train_builds(work, capsys):
    # one 1 s segment per trial, three sub-windows of 7 bands: 3 channels x 21
    cfg_path = work["root"] / "features-run.json"
    cfg_path.write_text(json.dumps(dict(RUN_CONFIG, features=True, feature_args={
        "outer_window_s": 1.0, "outer_overlap": 0.0, "inner_window_s": 0.5,
        "inner_overlap": 0.5})))
    out = work["root"] / "features-run"
    assert main(["train", "--data", str(work["data"]), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    raw = json.loads((work["out"] / "report.json").read_text())
    assert (report["params"], report["flops"]) != (raw["params"], raw["flops"])
    capsys.readouterr()
    assert main(["count", "--data", str(work["data"]), "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == f"params={report['params']} flops={report['flops']}\n"


def test_grad_check_command(capsys):
    assert main(["grad-check", "--seed", "0", "--max-coords", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _, _ in primitive_cases(0)] + ["full_network"]
    assert [line.split()[0] for line in lines[:-1]] == names
    assert lines[-1].startswith("overall=")
    assert all(line.endswith(" ok") for line in lines[:-1])


@pytest.mark.parametrize("seed", [7, 14, 31, 45])
def test_grad_check_rejitters_a_model_no_input_clears(seed, capsys):
    # the first jitter of these seeds keeps a ReLU pre-activation within 1e-3
    # of zero for every input draw
    assert main(["grad-check", "--seed", str(seed), "--max-coords", "2"]) == 0
    out = capsys.readouterr().out
    assert "full_network" in out and "FAIL" not in out


# ---------------------------------------------------------------------------
# failure modes


def test_missing_file_exits_2(work, capsys):
    assert main(["eval", "--data", str(work["root"] / "nope.eegb"),
                 "--model", str(work["out"] / "model.bin")]) == 2
    assert capsys.readouterr().err.startswith("error[io]:")


def test_corrupt_file_exits_2(work, capsys):
    bad = work["root"] / "bad.eegb"
    bad.write_bytes(b"NOPE" + bytes(40))
    assert main(["split", "--data", str(bad), "--protocol", "CO"]) == 2
    assert capsys.readouterr().err.startswith("error[bad_magic]:")


def test_non_finite_payload_exits_2(work, capsys):
    header = struct.Struct("<4sHIHIfH")
    samples = np.arange(12, dtype="<f4")
    samples[5] = np.nan
    bad = work["root"] / "nan.eegb"
    bad.write_bytes(header.pack(b"EEGB", 1, 2, 2, 3, 100.0, 2)
                    + np.array([0, 1], dtype="<u2").tobytes()
                    + np.array([0, 0], dtype="<u2").tobytes()
                    + samples.tobytes())
    assert main(["train", "--data", str(bad), "--config", str(work["cfg"]),
                 "--out", str(work["root"] / "nan-run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[non_finite]:") and err.count("\n") == 1


def test_signaling_nan_payload_exits_2_with_one_line(work, capsys):
    # widening a signaling NaN to float64 warns; the set is refused anyway
    samples = np.arange(12, dtype="<f4")
    samples.view("<u4")[5] = 0x7FA00000
    bad = work["root"] / "snan.eegb"
    bad.write_bytes(struct.pack("<4sHIHIfH", b"EEGB", 1, 2, 2, 3, 100.0, 2)
                    + np.array([0, 1, 0, 0], dtype="<u2").tobytes() + samples.tobytes())
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["split", "--data", str(bad), "--protocol", "CO"]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error[non_finite]:") and err.count("\n") == 1, err


def test_bad_config_exits_1(work, capsys):
    cfg = work["root"] / "bad_cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["train", "--data", str(work["data"]), "--config", str(cfg),
                 "--out", str(work["root"] / "x")]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")


def _model(**kw):
    return dict(RUN_CONFIG, model=dict(RUN_CONFIG["model"], **kw))


def _train(**kw):
    return dict(RUN_CONFIG, train=dict(RUN_CONFIG["train"], **kw))


def _classes(**kw):
    return dict(SYNTH_SPEC, classes=[dict(SYNTH_SPEC["classes"][0], **kw),
                                     SYNTH_SPEC["classes"][1]])


# (command, config, key the error must name)
BAD_CONFIGS = {
    "lr_str": ("train", _train(lr="fast"), "train.lr"),
    "embed_dim_str": ("train", _model(embed_dim="40"), "model.embed_dim"),
    "dropout_null": ("train", _model(dropout=None), "model.dropout"),
    "use_tsia_int": ("train", _model(use_tsia=0), "model.use_tsia"),
    "epochs_fraction": ("train", _train(epochs=1.5), "train.epochs"),
    "epochs_float": ("train", _train(epochs=2.0), "train.epochs"),
    "model_int_train": ("train", dict(RUN_CONFIG, model=5), "model"),
    "model_int_count": ("count", {"model": 5}, "model"),
    "seeds_str": ("train", dict(RUN_CONFIG, seeds="0"), "seeds"),
    "synth_n_subjects_str": ("synth", dict(SYNTH_SPEC, n_subjects="4"), "n_subjects"),
    "synth_fs_bool": ("synth", dict(SYNTH_SPEC, fs=True), "fs"),
    "synth_classes_int": ("synth", dict(SYNTH_SPEC, classes=5), "classes"),
    "synth_freq_str": ("synth", _classes(freq_hz="a"), "classes[0].freq_hz"),
    "dropout_nan": ("train", _model(dropout=float("nan")), "model.dropout"),
    "feature_window_inf": ("train", dict(RUN_CONFIG, features=True,
                                         feature_args={"outer_window_s": float("inf")}),
                           "feature_args.outer_window_s"),
    "top_level_list": ("synth", [SYNTH_SPEC], "config must be object"),
    "n_heads_zero": ("train", _model(n_heads=0), "n_heads"),
    "n_heads_negative": ("train", _model(embed_dim=40, n_heads=-4), "n_heads"),
    "spatial_maps_zero": ("train", _model(spatial_maps=0), "spatial_maps"),
    "seeds_negative": ("train", dict(RUN_CONFIG, seeds=[-1]), "seeds"),
    # Philox keys a stream by a 64-bit seed word
    "seeds_2_64": ("train", dict(RUN_CONFIG, seeds=[0, 2**64]), "seeds"),
    # two jobs of one seed would write one directory and a spread of one job
    "seeds_repeated": ("train", dict(RUN_CONFIG, seeds=[0, 0]), "seeds"),
    # job seeds come only from "seeds"; removed knobs fail as unknown keys
    "train_seed": ("train", _train(seed=5), "train.seed"),
    "bn_eps_removed": ("train", _model(bn_eps=-1.0), "model.bn_eps"),
    "beta2_removed": ("train", _train(beta2=0.95), "train.beta2"),
    "train_weight_decay_removed": ("train", _train(weight_decay=0.01), "train.weight_decay"),
    "class_weight_mode_removed": ("train", _train(class_weight_mode="inverse"),
                                  "train.class_weight_mode"),
    # pools tile their input, so each stride is its window
    "pool_stride_removed": ("train", _model(pool_stride=10), "model.pool_stride"),
    "spatial_pool_stride_removed": ("train", _model(spatial_pool_stride=5),
                                    "model.spatial_pool_stride"),
    "fusion_width_zero_train": ("train", _model(embed_dim=1, n_heads=1), "fusion"),
    "fusion_width_zero_count": ("count", {"model": {"embed_dim": 1, "n_heads": 1}}, "fusion"),
    # the feature geometry needs the data's sampling rate, which flags do not give
    "features_count_without_data": ("count", {"features": True}, "features"),
    # checked even with "features" false, where the feature stage never runs
    "feature_overlap_out_of_range": ("train", dict(RUN_CONFIG, feature_args={
        "outer_overlap": 5.0, "inner_window_s": -1.0}), "outer overlap"),
    "feature_window_negative": ("train", dict(RUN_CONFIG, feature_args={"inner_window_s": -1.0}),
                                "inner window"),
    "synth_freq_jitter_negative": ("synth", dict(SYNTH_SPEC, freq_jitter_hz=-3.0),
                                   "freq_jitter_hz"),
    "synth_fs_f32_overflow": ("synth", dict(SYNTH_SPEC, fs=1e300), "fs"),
    "synth_fs_f32_underflow": ("synth", dict(SYNTH_SPEC, fs=1e-300), "fs"),
    # 0.5 Hz frequency bins: 0.5 ** -5e5 overflows the 1/f shaping
    "synth_pink_exponent_huge": ("synth", dict(SYNTH_SPEC, n_samples=80, pink_exponent=1e6),
                                 "pink_exponent"),
    "synth_amplitude_huge": ("synth", _classes(amplitude=1e39), "amplitude"),
    # files store the class count as u16
    "synth_classes_above_u16": ("synth", dict(SYNTH_SPEC, classes=SYNTH_SPEC["classes"] * 32768),
                                "classes"),
    # and subject ids and n_channels as u16, n_samples and the trial count as u32
    "synth_subjects_above_u16": ("synth", dict(SYNTH_SPEC, n_subjects=65537), "n_subjects"),
    "synth_channels_above_u16": ("synth", dict(SYNTH_SPEC, n_channels=65536), "n_channels"),
    "synth_samples_above_u32": ("synth", dict(SYNTH_SPEC, n_samples=2**32), "n_samples"),
    "synth_trials_above_u32": ("synth", dict(SYNTH_SPEC, trials_per_subject=2**31),
                               "trials_per_subject"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_names_the_key(work, capsys, case):
    command, config, key = BAD_CONFIGS[case]
    cfg = work["root"] / f"bad-{case}.json"
    cfg.write_text(json.dumps(config))
    argv = {
        "train": ["train", "--data", str(work["data"]), "--out", str(work["root"] / "x"),
                  "--print-config"],
        "count": ["count", "--channels", "22", "--samples", "1000", "--classes", "2"],
        "synth": ["synth", "--out", str(work["root"] / "x.eegb")],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[config]:") and key in err, err


def test_synth_rejects_a_set_its_file_cannot_store_before_generating(tmp_path, capsys,
                                                                    monkeypatch):
    # 70000 one-trial subjects of 2 x 4 samples: subject ids are u16 in the file
    def generate(*_):
        raise AssertionError("synth_generate ran")

    monkeypatch.setattr(cli, "synth_generate", generate)
    spec = dict(SYNTH_SPEC, n_subjects=70000, trials_per_subject=1, n_channels=2, n_samples=4)
    cfg, out = tmp_path / "spec.json", tmp_path / "x.eegb"
    cfg.write_text(json.dumps(spec))
    assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[config]:") and "n_subjects" in err, err
    assert not out.exists()


# (argv with {data}/{root} placeholders, text the error must name)
BAD_FLAGS = {
    "synth_seed_negative": (["synth", "--out", "{root}/x.eegb", "--seed", "-1"], "--seed"),
    "grad_check_seed_negative": (["grad-check", "--seed", "-1"], "--seed"),
    "synth_seed_2_64": (["synth", "--out", "{root}/x.eegb", "--seed", str(2**64)], "--seed"),
    "grad_check_seed_2_64": (["grad-check", "--seed", str(2**64)], "--seed"),
    "grad_check_max_coords_zero": (["grad-check", "--max-coords", "0"], "--max-coords"),
    "split_n_folds_zero": (["split", "--data", "{data}", "--protocol", "CV", "--n-folds", "0"],
                           "n_folds"),
    "split_n_folds_one": (["split", "--data", "{data}", "--protocol", "CV", "--n-folds", "1"],
                          "n_folds"),
    "split_train_fraction_above_one": (["split", "--data", "{data}", "--protocol", "CO",
                                        "--train-fraction", "1.5"], "train_fraction"),
    "features_outer_window_nan": (["features", "--data", "{data}", "--out", "{root}/f.eegb",
                                   "--outer-window", "nan"], "outer window"),
    "features_outer_window_inf": (["features", "--data", "{data}", "--out", "{root}/f.eegb",
                                   "--outer-window", "inf"], "outer window"),
    "features_inner_window_nan": (["features", "--data", "{data}", "--out", "{root}/f.eegb",
                                   "--outer-window", "1.0", "--inner-window", "nan"],
                                  "inner window"),
    # 2 samples at 40 Hz: a 2-sample Hann window is all zeros
    "features_inner_window_two_samples": (["features", "--data", "{data}", "--out",
                                           "{root}/f.eegb", "--outer-window", "1.0",
                                           "--inner-window", "0.05"], "inner window"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_names_the_flag(work, capsys, case):
    argv, key = BAD_FLAGS[case]
    argv = [a.format(data=work["data"], root=work["root"]) for a in argv]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[config]:") and key in err, err


def test_snapshot_geometry_mismatch_exits_2(work, capsys):
    cfg = work["root"] / "deeper.json"
    deeper = dict(RUN_CONFIG)
    deeper["model"] = dict(RUN_CONFIG["model"], temporal_depth=3)
    cfg.write_text(json.dumps(deeper))
    assert main(["eval", "--data", str(work["data"]), "--model",
                 str(work["out"] / "model.bin"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error[snapshot")


def _tampered_snapshot(work, name, value):
    """The trained model.bin with the first element of one stored array set to ``value``."""
    from lidsn.config import ModelConfig
    from lidsn.params import init_params, load_snapshot, save_snapshot

    cfg = ModelConfig(n_channels=3, n_samples=40, n_classes=2, **RUN_CONFIG["model"])
    ps = init_params(cfg, seed=0)
    ps.load_values(load_snapshot(work["out"] / "model.bin"), dtype=cfg.np_dtype)
    ps.value_dict()[name].flat[0] = value
    path = work["root"] / f"tampered-{name}.bin"
    save_snapshot(path, ps)
    return path


@pytest.mark.parametrize("name,value,kind", [
    ("classifier.out.bias", np.nan, "snapshot_non_finite"),
    ("temporal_tokenizer.norm.running_var", -1.0, "snapshot_negative_variance"),
])
def test_snapshot_bad_value_exits_2(work, capsys, name, value, kind):
    path = _tampered_snapshot(work, name, value)
    assert main(["eval", "--data", str(work["data"]), "--model", str(path),
                 "--config", str(work["cfg"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[{kind}]:") and name in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case, kind", [("name_not_utf8", "snapshot_bad_name"),
                                        ("rank_200", "snapshot_bad_shape"),
                                        ("empty_shape_too_big", "snapshot_bad_shape"),
                                        ("count_wraps_int64", "snapshot_truncated")])
def test_corrupt_snapshot_entry_header_exits_2(work, capsys, case, kind):
    # the trained model.bin with its first entry's header rewritten
    blob = (work["out"] / "model.bin").read_bytes()
    (name_len,) = struct.unpack_from("<H", blob, 10)
    name, rank = blob[12 : 12 + name_len], blob[12 + name_len]
    dims_stop = 13 + name_len + 4 * rank
    name, rank, dims = {
        "name_not_utf8": (b"\xff" + name[1:], rank, blob[13 + name_len : dims_stop]),
        "rank_200": (name, 200, blob[13 + name_len : dims_stop]),
        # no values, but numpy cannot index the other dims
        "empty_shape_too_big": (name, 4, struct.pack("<4I", 0, *[2**32 - 1] * 3)),
        # 2**31 * 2**31 * 4 elements wrap an int64 count to 0
        "count_wraps_int64": (name, 3, struct.pack("<3I", 2**31, 2**31, 4)),
    }[case]
    bad = work["root"] / f"snapshot-{case}.bin"
    bad.write_bytes(blob[:10] + struct.pack("<H", len(name)) + name + bytes([rank]) + dims
                    + blob[dims_stop:])
    capsys.readouterr()
    assert main(["eval", "--data", str(work["data"]), "--model", str(bad),
                 "--config", str(work["cfg"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1, err


def test_docs_name_exactly_the_cli_subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = re.search(r"Subcommands:([^.]*)\.", cli.__doc__).group(1)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert {name.strip() for name in listed.split(",")} == set(sub.choices)
    assert set(re.findall(r"^lidsn ([\w-]+)", readme, re.M)) == set(sub.choices)


def test_readme_synth_then_features_example_runs(tmp_path, monkeypatch):
    # the features example once failed on the file the synth example writes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synth = re.search(r"^lidsn (synth --out data\.eegb .*)$", readme, re.M).group(1)
    features = re.search(r"^lidsn (features .*)$", readme, re.M).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(synth.split()) == 0
    assert main(features.split()) == 0
    assert load_epochs(tmp_path / "feats.eegb").n_trials > 0


def test_docs_removed_config_keys_are_unknown_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"removed keys (.*?) fails as an unknown key", readme, re.S).group(1)
    keys = re.findall(r"`(\w+\.\w+)`", listed)
    assert "model.bn_eps" in keys
    for key in keys:
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
            cli.resolve_run_config({section: {name: 1}}, 3, 40, 2)


@pytest.mark.parametrize("command", [
    ["synth", "--out", "{root}/max-seed.eegb", "--config", "{root}/spec.json"],
    ["grad-check", "--max-coords", "1"],
])
def test_largest_seed_is_accepted(work, command):
    argv = [a.format(root=work["root"]) for a in command]
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0


def test_zero_val_fraction_holds_out_nothing(work):
    cfg = work["root"] / "no-val.json"
    cfg.write_text(json.dumps(_train(val_fraction=0)))
    out = work["root"] / "no-val"
    assert main(["train", "--data", str(work["data"]), "--config", str(cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_train"] == 16 and report["n_val"] == 0
    assert report["best_val_loss"] is None
    assert report["epochs_run"] == report["best_epoch"] == 2


def test_usage_error_exits_1(capsys):
    for argv in (["bogus-command"], ["align", "--data", "x", "--out", "y"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert "error[usage]:" in capsys.readouterr().err


def test_viz_trial_out_of_range_exits_1(work, capsys):
    assert main(["export-viz", "--data", str(work["data"]), "--model",
                 str(work["out"] / "model.bin"), "--config", str(work["cfg"]),
                 "--out", str(work["root"] / "viz2"), "--trial", "999"]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")


# a well-formed file with zero trials: each command names the empty set
EMPTY_SET_ARGV = {
    "train": ["train", "--data", "{empty}", "--config", "{cfg}", "--out", "{root}/empty-run"],
    "eval": ["eval", "--data", "{empty}", "--model", "{out}/model.bin", "--config", "{cfg}"],
    "split_co": ["split", "--data", "{empty}", "--protocol", "CO"],
    "split_cv": ["split", "--data", "{empty}", "--protocol", "CV", "--n-folds", "2"],
    "features": ["features", "--data", "{empty}", "--out", "{root}/empty-features.eegb",
                 "--outer-window", "1.0", "--inner-window", "0.5"],
}


@pytest.mark.parametrize("case", sorted(EMPTY_SET_ARGV))
def test_empty_epoch_set_exits_1(work, capsys, case):
    empty = work["root"] / "empty.eegb"
    empty.write_bytes(struct.pack("<4sHIHIfH", b"EEGB", 1, 0, 3, 40, 40.0, 2))
    assert load_epochs(empty).n_trials == 0
    argv = [a.format(empty=empty, cfg=work["cfg"], out=work["out"], root=work["root"])
            for a in EMPTY_SET_ARGV[case]]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[config]:") and "empty" in err, err
