"""Command-line interface.

Subcommands: train, eval, synth, features, split, grad-check, count,
export-viz. Exit codes: 0 success, 1 usage or configuration problems, 2 data
format problems, 3 numeric failures. Every failure prints one line to stderr
of the form ``error[<kind>]: <message>``.

All emitted files are deterministic for fixed inputs: JSON is canonical
(sorted keys), floats print with round-trippable repr, and wall-clock timings
live in their own timing.json so reports stay byte-stable across reruns.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import from_dict
from .data import (
    PROTOCOLS,
    FeatureArgs,
    SynthSpec,
    euclidean_align,
    load_epochs,
    make_split,
    rpsd_features,
    save_epochs,
    synth_generate,
)
from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .gradcheck import battery
from .network import Model, saliency
from .params import count_params_flops, load_snapshot, save_snapshot
from .training import SEED_LIMIT, RunConfig, evaluate_model, run_protocol
from .viz import format_cell, matrix_csv, save_heatmap, write_csv

_VIZ_STEMS = {"affinity": "sacm", "attention": "tcam", "importance": "omega"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


# ---------------------------------------------------------------------------
# run config resolution


def resolve_run_config(raw: dict, n_channels: int, n_samples: int, n_classes: int) -> dict:
    """Fill defaults and validate a run config against the data geometry.

    The result is a plain dict that serializes canonically and resolves to
    itself, so --print-config output can be fed back as a config file.
    """
    run = from_dict(RunConfig, raw)
    return run.canonical(run.model_config(n_channels, n_samples, n_classes))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _load_run(config_path) -> RunConfig:
    return from_dict(RunConfig, _load_json(config_path) if config_path else {})


def _prepare(data_path, config_path):
    """Load epochs and apply the feature stage if configured.

    Returns the epochs, the validated run config and its model config
    resolved for the epochs' geometry.
    """
    run = _load_run(config_path)
    epochs = load_epochs(data_path)
    if run.features:
        epochs = rpsd_features(epochs, run.feature_args)
    return epochs, run, run.model_config(epochs.n_channels, epochs.n_samples, epochs.n_classes)


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    epochs, run, model_cfg = _prepare(args.data, args.config)
    resolved = run.canonical(model_cfg)
    if args.print_config:
        sys.stdout.write(canonical_json(resolved))
        return 0
    result = run_protocol(epochs, run, model_cfg)
    jobs = result["folds"]
    params, flops = count_params_flops(model_cfg)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for fo in jobs:
        seed, fold, oc = fo.seed, fo.fold, fo.outcome
        job_dir = args.out if len(jobs) == 1 else os.path.join(args.out, f"seed{seed}_fold{fold}")
        os.makedirs(job_dir, exist_ok=True)
        report = {
            "config": resolved,
            "seed": seed,
            "fold": fold,
            "n_train": fo.n_train,
            "n_val": fo.n_val,
            "n_test": fo.n_test,
            "epochs_run": oc.epochs_run,
            "best_epoch": oc.best_epoch,
            "best_val_loss": _finite_or_none(oc.best_val_loss),
            "final_train_acc": oc.final_train_acc,
            "test": fo.metrics,
            "params": params,
            "flops": flops,
        }
        _write_text(os.path.join(job_dir, "report.json"), canonical_json(report))
        curve_rows = [
            [r["epoch"], r["train_loss"], r.get("val_loss", ""), r.get("val_acc", "")]
            for r in oc.curves
        ]
        write_csv(os.path.join(job_dir, "curves.csv"),
                  ["epoch", "train_loss", "val_loss", "val_acc"], curve_rows)
        save_snapshot(os.path.join(job_dir, "model.bin"), oc.model.params)
        _write_text(os.path.join(job_dir, "timing.json"),
                    canonical_json({"wall_seconds": fo.wall_s}))
        rows.append({
            "seed": seed,
            "fold": fold,
            "accuracy": fo.metrics["accuracy"],
            "macro_f1": fo.metrics["macro_f1"],
            "best_epoch": oc.best_epoch,
            "epochs_run": oc.epochs_run,
        })
        print(f"seed={seed} fold={fold} acc={format_cell(fo.metrics['accuracy'])} "
              f"macro_f1={format_cell(fo.metrics['macro_f1'])}")
    summary = {"config": resolved, "jobs": rows}
    for key in ("mean_accuracy", "std_accuracy", "mean_macro_f1", "std_macro_f1"):
        summary[key] = result[key]
    _write_text(os.path.join(args.out, "summary.json"), canonical_json(summary))
    print(f"mean_acc={format_cell(summary['mean_accuracy'])} "
          f"std_acc={format_cell(summary['std_accuracy'])}")
    return 0


# ---------------------------------------------------------------------------
# eval / export-viz


def _restore_model(args) -> tuple:
    epochs, run, cfg = _prepare(args.data, args.config)
    if run.align:
        epochs = euclidean_align(epochs)
    model = Model.build(cfg, seed=0)
    model.params.load_values(load_snapshot(args.model), dtype=cfg.np_dtype)
    return epochs, model


def cmd_eval(args) -> int:
    epochs, model = _restore_model(args)
    metrics = evaluate_model(model, epochs.data, epochs.labels)
    print(f"acc={format_cell(metrics['accuracy'])} "
          f"macro_f1={format_cell(metrics['macro_f1'])}")
    conf = np.asarray(metrics["confusion"])
    header = ["true"] + [f"pred{j}" for j in range(conf.shape[1])]
    rows = [[i] + [int(v) for v in conf[i]] for i in range(conf.shape[0])]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "confusion.csv"), header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(format_cell(v) for v in row))
    return 0


def cmd_export_viz(args) -> int:
    epochs, model = _restore_model(args)
    if not 0 <= args.trial < epochs.n_trials:
        raise ConfigError(f"trial {args.trial} out of range [0, {epochs.n_trials})")
    capture = {}
    model.forward(epochs.data[args.trial : args.trial + 1], capture=capture)
    os.makedirs(args.out, exist_ok=True)
    written = []

    def emit(stem: str, matrix: np.ndarray, row_label: str = "row"):
        matrix_csv(os.path.join(args.out, stem + ".csv"), matrix, row_label=row_label)
        save_heatmap(os.path.join(args.out, stem + ".svg"), matrix)
        written.extend([stem + ".csv", stem + ".svg"])

    # "layer1.tsia_rev/attention" -> tcam_rev_layer1_head{h}; "fusion/alpha" -> alpha
    for key, arr in capture.items():
        block, kind = key.split("/")
        if kind == "alpha":
            emit("alpha", arr)
            continue
        layer, name = block.split(".")
        stem = f"{_VIZ_STEMS[kind]}{name[len('tsia'):]}_{layer}"
        if kind == "importance":
            emit(stem, arr[0], row_label="head")
        else:
            for head in range(arr.shape[1]):
                emit(f"{stem}_head{head}", arr[0, head])
    emit("saliency", saliency(epochs.data[args.trial], model))
    print(f"wrote {len(written)} files to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# utilities


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be >= 0 and < 2**64, got {seed}")


def cmd_synth(args) -> int:
    _check_seed(args.seed)
    spec = from_dict(SynthSpec, _load_json(args.config)) if args.config else SynthSpec()
    epochs = synth_generate(spec, args.seed)
    save_epochs(args.out, epochs)
    print(f"wrote {args.out} trials={epochs.n_trials} channels={epochs.n_channels} "
          f"samples={epochs.n_samples} classes={epochs.n_classes}")
    return 0


def cmd_features(args) -> int:
    epochs = rpsd_features(load_epochs(args.data), FeatureArgs(
        args.outer_window, args.outer_overlap, args.inner_window, args.inner_overlap))
    save_epochs(args.out, epochs)
    print(f"wrote {args.out} rows={epochs.n_trials} channels={epochs.n_channels} "
          f"width={epochs.n_samples}")
    return 0


def cmd_split(args) -> int:
    run = RunConfig(protocol=args.protocol, n_folds=args.n_folds,
                    train_fraction=args.train_fraction)
    plan = make_split(load_epochs(args.data), run.protocol, n_folds=run.n_folds,
                      train_fraction=run.train_fraction)
    payload = {
        "protocol": plan.protocol,
        "folds": [
            {"train": [int(i) for i in tr], "test": [int(i) for i in te]}
            for tr, te in plan.folds
        ],
    }
    text = canonical_json(payload)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out} folds={len(plan.folds)}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    if args.data:
        _, _, model_cfg = _prepare(args.data, args.config)
    elif None not in (args.channels, args.samples, args.classes):
        run = _load_run(args.config)
        if run.features:
            raise ConfigError("features: true needs --data: the feature geometry depends on "
                              "the data's sampling rate")
        model_cfg = run.model_config(args.channels, args.samples, args.classes)
    else:
        raise ConfigError("count needs --data or all of --channels/--samples/--classes")
    params, flops = count_params_flops(model_cfg)
    print(f"params={params} flops={flops}")
    return 0


def cmd_grad_check(args) -> int:
    _check_seed(args.seed)
    if args.max_coords < 1:
        raise ConfigError(f"--max-coords must be >= 1, got {args.max_coords}")
    worst, failures = 0.0, []
    for name, err, tolerance in battery(args.seed, args.max_coords):
        worst = max(worst, err)
        if err >= tolerance:
            failures.append(f"{name} ({err:.3e})")
        print(f"{name} max_rel_err={err:.3e} {'ok' if err < tolerance else 'FAIL'}")
    print(f"overall={worst:.3e}")
    if failures:
        raise NumericError(f"gradient check failed: {', '.join(failures)}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error[usage]: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidsn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train across protocol folds and seeds")
    p.add_argument("--data", required=True, help="EEGB input file")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved config and exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a snapshot on a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="model.bin snapshot")
    p.add_argument("--config", help="run config JSON (model section)")
    p.add_argument("--out", help="directory for confusion.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic epochs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="synth spec JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="relative band-power features")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--outer-window", type=float, default=FeatureArgs.outer_window_s)
    p.add_argument("--outer-overlap", type=float, default=FeatureArgs.outer_overlap)
    p.add_argument("--inner-window", type=float, default=FeatureArgs.inner_window_s)
    p.add_argument("--inner-overlap", type=float, default=FeatureArgs.inner_overlap)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("split", help="print or save protocol fold indices")
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p.add_argument("--n-folds", type=int, default=RunConfig.n_folds)
    p.add_argument("--train-fraction", type=float, default=RunConfig.train_fraction)
    p.add_argument("--out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("grad-check", help="finite-difference gradient battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coords", type=int, default=3,
                   help="coordinates checked per input in the full-network pass")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("count", help="parameter and FLOP totals")
    p.add_argument("--data", help="EEGB file supplying the geometry")
    p.add_argument("--channels", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--config", help="run config JSON (model section)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("export-viz", help="attention maps and saliency for one trial")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="run config JSON (model section)")
    p.add_argument("--out", required=True)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_export_viz)
    return parser


def main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ShapeError) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "shape"
        print(f"error[{kind}]: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
