"""Command-line interface: artifacts, determinism, exit codes."""
import json
import struct

import numpy as np
import pytest

from lidsn.cli import canonical_json, main
from lidsn.data import load_epochs
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
        "pool_window": 10, "pool_stride": 10, "spatial_conv_stride": 4,
        "spatial_pool_window": 5, "spatial_pool_stride": 5, "classifier_hidden": 8,
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


def test_align_smoke(work):
    out = work["root"] / "aligned.eegb"
    assert main(["align", "--data", str(work["data"]), "--out", str(out)]) == 0
    aligned = load_epochs(out)
    orig = load_epochs(work["data"])
    assert aligned.data.shape == orig.data.shape
    assert not np.array_equal(aligned.data, orig.data)


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
    assert main(["align", "--data", str(bad), "--out", str(work["root"] / "o.eegb")]) == 2
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
    "ln_eps_nan": ("train", _model(ln_eps=float("nan")), "model.ln_eps"),
    "feature_window_inf": ("train", dict(RUN_CONFIG, features=True,
                                         feature_args={"outer_window_s": float("inf")}),
                           "feature_args.outer_window_s"),
    "top_level_list": ("synth", [SYNTH_SPEC], "config must be object"),
    "n_heads_zero": ("train", _model(n_heads=0), "n_heads"),
    "n_heads_negative": ("train", _model(embed_dim=40, n_heads=-4), "n_heads"),
    "spatial_maps_zero": ("train", _model(spatial_maps=0), "spatial_maps"),
    "fusion_hidden_negative": ("train", _model(fusion_hidden=-7), "fusion_hidden"),
    "seeds_negative": ("train", dict(RUN_CONFIG, seeds=[-1]), "seeds"),
    "train_seed_negative": ("train", _train(seed=-1), "seed"),
    "train_seed_nonzero": ("train", _train(seed=5), "seeds"),
    "fusion_width_zero_train": ("train", _model(embed_dim=1, n_heads=1), "fusion"),
    "fusion_width_zero_count": ("count", {"model": {"embed_dim": 1, "n_heads": 1}}, "fusion"),
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


# (argv with {data}/{root} placeholders, text the error must name)
BAD_FLAGS = {
    "synth_seed_negative": (["synth", "--out", "{root}/x.eegb", "--seed", "-1"], "--seed"),
    "grad_check_seed_negative": (["grad-check", "--seed", "-1"], "--seed"),
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

    ps = init_params(ModelConfig(n_channels=3, n_samples=40, n_classes=2,
                                 **RUN_CONFIG["model"]), seed=0)
    ps.load_values(load_snapshot(work["out"] / "model.bin"))
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


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bogus-command"])
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
