"""The four benchmark workloads: set-up, timed work and output checks.

Every workload offers the same four calls:

- ``setup(seed)`` makes the inputs from the seed; its time is ``setup_s``;
- ``warm(state)`` runs a little untimed work so lazy allocation is done;
- ``measure(state, seconds, tally)`` is the timed run; it returns the wall
  time of every request (``request_s``) and the trials and seconds of every
  unit behind the throughput (``unit_trials``, ``unit_s``);
- ``unit(state, tally)`` is one fixed unit of work, used by the traced run.

Each check returns a list of problems (empty when the output is correct), so
the self-test can feed it corrupted outputs. Every checked operation counts
once in the tally's ``attempted``, and once in ``failed`` if it has a problem.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from lidsn import cli, data, network, params, training
from lidsn.config import model_config_from_dict
from lidsn.data import ClassRecipe, SynthSpec

SPLIT_TOL = 1e-9    # B=1 logits against the batched evaluate_model logits
IDENTITY_TOL = 1e-8  # aligned mean covariance against the identity (criterion 6)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problems[0])


def _more(t_end: float, last: float) -> bool:
    """True when one more unit of work, as long as the last, ends by t_end."""
    return time.perf_counter() + last <= t_end


# ---------------------------------------------------------------------------
# train and train_wide: in-process `lidsn train` jobs


@dataclass
class TrainState:
    workdir: str
    data_path: str
    config_path: str
    jobs: int = 0


class TrainWorkload:
    """Repeated `lidsn train` jobs on one synthetic data file.

    The first job's report.json and model.bin are the reference that every
    later job in the run must match byte for byte.
    """

    min_units = 2

    def __init__(self, spec: SynthSpec, run_config: dict, min_accuracy: float | None,
                 workdir: str):
        self.spec = spec
        self.run_config = run_config
        self.min_accuracy = min_accuracy
        self.workdir = workdir
        self.reference: tuple | None = None

    def setup(self, seed: int) -> TrainState:
        epochs = data.synth_generate(self.spec, seed)
        data_path = os.path.join(self.workdir, "data.eegb")
        data.save_epochs(data_path, epochs)
        config_path = os.path.join(self.workdir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(self.run_config, fh)
        return TrainState(self.workdir, data_path, config_path)

    def warm(self, state: TrainState) -> None:
        """One optimizer step at the workload's batch size, untimed."""
        epochs = data.load_epochs(state.data_path)
        resolved = cli.resolve_run_config(self.run_config, epochs.n_channels,
                                          epochs.n_samples, epochs.n_classes)
        cfg = model_config_from_dict(resolved["model"])
        tcfg = training.TrainConfig(**dict(resolved["train"], epochs=1, patience=1))
        n = tcfg.batch_size
        x = epochs.data[:n].astype(cfg.np_dtype)
        training.train_model(cfg, tcfg, x, epochs.labels[:n], x[:0], epochs.labels[:0])

    def job(self, state: TrainState, tally: Tally) -> tuple:
        """Run one train job; return (wall seconds, fit trials x epochs)."""
        out = os.path.join(state.workdir, f"job{state.jobs}")
        state.jobs += 1
        argv = ["train", "--data", state.data_path, "--config", state.config_path, "--out", out]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        problems = self.check(rc, out)
        tally.record(problems)
        work = 0
        if not problems:
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            work = report["n_train"] * report["epochs_run"]
        shutil.rmtree(out, ignore_errors=True)
        return wall, work

    def check(self, rc: int, out: str) -> list:
        if rc != 0:
            return [f"train exited with code {rc}"]
        problems = []
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        with open(os.path.join(out, "model.bin"), "rb") as fh:
            model_bytes = fh.read()
        if self.reference is None:
            self.reference = (report_bytes, model_bytes)
        else:
            if report_bytes != self.reference[0]:
                problems.append("report.json differs from the run's first job")
            if model_bytes != self.reference[1]:
                problems.append("model.bin differs from the run's first job")
        with open(os.path.join(out, "curves.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("train_loss", "val_loss"):
                    if row.get(key) and not math.isfinite(float(row[key])):
                        problems.append(f"curves.csv epoch {row['epoch']}: {key} is {row[key]}")
        accuracy = json.loads(report_bytes)["test"]["accuracy"]
        if self.min_accuracy is not None and accuracy < self.min_accuracy:
            problems.append(f"test accuracy {accuracy} below {self.min_accuracy}")
        return problems

    def measure(self, state: TrainState, seconds: float, tally: Tally) -> dict:
        t_end = time.perf_counter() + seconds
        walls, trials = [], []
        while len(walls) < self.min_units or _more(t_end, walls[-1]):
            wall, work = self.job(state, tally)
            walls.append(wall)
            trials.append(work)
        return {"request_s": walls, "unit_trials": trials, "unit_s": walls}

    def unit(self, state: TrainState, tally: Tally) -> None:
        self.job(state, tally)


# ---------------------------------------------------------------------------
# infer: closed-loop single-trial requests, then evaluate_model passes


@dataclass
class InferState:
    model: network.Model
    x: np.ndarray
    labels: np.ndarray


class InferWorkload:
    """One client sends single trials, each after the previous reply.

    The model is restored the way `lidsn eval` does it: save_snapshot, then
    load_snapshot into a fresh model through ParamSet.load_values.
    """

    eval_share = 0.4  # of the measured seconds, spent on evaluate_model passes

    def __init__(self, spec: SynthSpec, workdir: str):
        self.spec = spec
        self.workdir = workdir
        self.reference: np.ndarray | None = None

    def setup(self, seed: int) -> InferState:
        epochs = data.synth_generate(self.spec, seed)
        cfg = model_config_from_dict({}, n_channels=epochs.n_channels,
                                     n_samples=epochs.n_samples, n_classes=epochs.n_classes)
        path = os.path.join(self.workdir, "model.bin")
        params.save_snapshot(path, network.Model.build(cfg, seed=seed).params)
        model = network.Model.build(cfg, seed=0)
        model.params.load_values(params.load_snapshot(path), dtype=cfg.np_dtype)
        return InferState(model, epochs.data.astype(cfg.np_dtype), epochs.labels)

    def warm(self, state: InferState) -> None:
        for i in range(min(20, len(state.x))):
            state.model.logits_np(state.x[i : i + 1])
        self.batched_logits(state)

    def batched_logits(self, state: InferState) -> np.ndarray:
        """The logits evaluate_model computes: one logits_np call at its default chunking."""
        if self.reference is None:
            self.reference = state.model.logits_np(state.x)
        return self.reference

    def check_request(self, reference: np.ndarray, trial: int, row: np.ndarray) -> list:
        want = reference[trial]
        err = float(np.max(np.abs(row - want)))
        if not err <= SPLIT_TOL:
            return [f"trial {trial}: B=1 logits differ from batched by {err:.3e}"]
        if int(np.argmax(row)) != int(np.argmax(want)):
            return [f"trial {trial}: B=1 argmax differs from batched"]
        return []

    def check_eval(self, state: InferState, reference: np.ndarray, metrics: dict) -> list:
        preds = reference.argmax(axis=1)
        want = training.metrics_from_confusion(
            training.confusion_matrix(state.labels, preds, state.model.cfg.n_classes))
        if metrics != want:
            return ["evaluate_model metrics differ from the batched logits' metrics"]
        return []

    def _requests(self, state: InferState, keep_going) -> tuple:
        latencies, replies = [], []
        n = len(state.x)
        while keep_going(len(latencies)):
            trial = len(latencies) % n
            t0 = time.perf_counter()
            row = state.model.logits_np(state.x[trial : trial + 1])[0]
            latencies.append(time.perf_counter() - t0)
            replies.append((trial, row))
        return latencies, replies

    def _eval_pass(self, state: InferState) -> tuple:
        t0 = time.perf_counter()
        metrics = training.evaluate_model(state.model, state.x, state.labels)
        return time.perf_counter() - t0, metrics

    def _check_all(self, state, replies, evals, tally) -> None:
        reference = self.batched_logits(state)
        for trial, row in replies:
            tally.record(self.check_request(reference, trial, row))
        for metrics in evals:
            tally.record(self.check_eval(state, reference, metrics))

    def measure(self, state: InferState, seconds: float, tally: Tally) -> dict:
        start = time.perf_counter()
        loop_end = start + seconds * (1.0 - self.eval_share)
        latencies, replies = self._requests(
            state, lambda done: done == 0 or time.perf_counter() < loop_end)
        t_end = start + seconds
        evals, walls = [], []
        while not walls or _more(t_end, walls[-1]):
            wall, metrics = self._eval_pass(state)
            walls.append(wall)
            evals.append(metrics)
        self._check_all(state, replies, evals, tally)
        return {"request_s": latencies, "unit_trials": [len(state.x)] * len(walls),
                "unit_s": walls}

    def unit(self, state: InferState, tally: Tally) -> None:
        """Each trial once as a B=1 request, then one evaluate_model pass."""
        n = len(state.x)
        _, replies = self._requests(state, lambda done: done < n)
        _, metrics = self._eval_pass(state)
        self._check_all(state, replies, [metrics], tally)


# ---------------------------------------------------------------------------
# prep: the data layer alone


@dataclass
class PrepState:
    epochs: data.EpochSet
    path: str


class PrepWorkload:
    """save_epochs -> load_epochs -> euclidean_align -> rpsd_features -> make_split."""

    def __init__(self, spec: SynthSpec, workdir: str):
        self.spec = spec
        self.workdir = workdir

    def setup(self, seed: int) -> PrepState:
        return PrepState(data.synth_generate(self.spec, seed),
                         os.path.join(self.workdir, "prep.eegb"))

    def warm(self, state: PrepState) -> None:
        data.euclidean_align(state.epochs)

    def chain(self, state: PrepState) -> tuple:
        data.save_epochs(state.path, state.epochs)
        loaded = data.load_epochs(state.path)
        aligned = data.euclidean_align(loaded)
        features = data.rpsd_features(aligned)
        plan = data.make_split(features, "LOSO")
        return loaded, aligned, features, plan

    def check(self, state: PrepState, loaded, aligned, features, plan) -> list:
        src = state.epochs
        problems = []
        same = (loaded.data.dtype == src.data.dtype
                and loaded.data.tobytes() == src.data.tobytes()
                and np.array_equal(loaded.labels, src.labels)
                and np.array_equal(loaded.subjects, src.subjects)
                and loaded.fs == src.fs and loaded.n_classes == src.n_classes)
        if not same:
            problems.append("load_epochs output differs from what was saved")
        t = aligned.n_samples
        eye = np.eye(aligned.n_channels)
        for subj in np.unique(aligned.subjects):
            x = aligned.data[aligned.subjects == subj]
            cov = np.einsum("nct,ndt->cd", x, x, optimize=True) / (x.shape[0] * t)
            err = float(np.max(np.abs(cov - eye)))
            if not err <= IDENTITY_TOL:
                problems.append(
                    f"subject {subj}: aligned mean covariance off identity by {err:.3e}")
        if not np.all(np.isfinite(features.data)):
            problems.append("rpsd_features produced non-finite values")
        subjects = np.unique(features.subjects)
        covered = np.sort(np.concatenate([te for _, te in plan.folds]))
        if len(plan.folds) != subjects.size or not np.array_equal(
                covered, np.arange(features.n_trials)):
            problems.append("LOSO folds do not partition the feature rows by subject")
        return problems

    def _pass(self, state: PrepState, tally: Tally) -> float:
        t0 = time.perf_counter()
        outputs = self.chain(state)
        wall = time.perf_counter() - t0
        tally.record(self.check(state, *outputs))
        return wall

    def measure(self, state: PrepState, seconds: float, tally: Tally) -> dict:
        t_end = time.perf_counter() + seconds
        walls = []
        while not walls or _more(t_end, walls[-1]):
            walls.append(self._pass(state, tally))
        return {"request_s": walls, "unit_trials": [state.epochs.n_trials] * len(walls),
                "unit_s": walls}

    def unit(self, state: PrepState, tally: Tally) -> None:
        self._pass(state, tally)


# ---------------------------------------------------------------------------
# the workload table


def _wide_classes() -> tuple:
    """Four classes, one carrier per distinct channel pair of a 22-channel montage."""
    return tuple(ClassRecipe(freq, (2 * i, 2 * i + 1))
                 for i, freq in enumerate((8.0, 12.0, 18.0, 26.0)))


def build(name: str, workdir: str, tiny: bool = False):
    """Construct a workload; ``tiny`` shrinks every input for the self-test."""
    if name == "train":
        spec = SynthSpec(n_subjects=2, trials_per_subject=40) if tiny else SynthSpec()
        cfg = {"protocol": "CO", "train": {"epochs": 3, "patience": 3}}
        if tiny:  # few steps: a larger step size still clears the accuracy bar
            cfg["train"]["lr"] = 0.01
        return TrainWorkload(spec, cfg, 0.90, workdir)
    if name == "train_wide":
        if tiny:
            spec = SynthSpec(n_subjects=2, trials_per_subject=8, n_channels=22,
                             n_samples=250, fs=250.0, classes=_wide_classes())
        else:
            spec = SynthSpec(n_subjects=4, trials_per_subject=48, n_channels=22,
                             n_samples=1000, fs=250.0, classes=_wide_classes())
        cfg = {"protocol": "CO", "align": True, "model": {"integration_mode": "bidir"},
               "train": {"epochs": 1, "patience": 1}}
        return TrainWorkload(spec, cfg, None, workdir)
    if name == "infer":
        spec = SynthSpec(n_subjects=1, trials_per_subject=12) if tiny else SynthSpec()
        return InferWorkload(spec, workdir)
    if name == "prep":
        if tiny:
            spec = SynthSpec(n_subjects=2, trials_per_subject=4, n_channels=22,
                             n_samples=24 * 128)
        else:
            spec = SynthSpec(n_subjects=6, trials_per_subject=30, n_channels=22,
                             n_samples=30 * 128)
        return PrepWorkload(spec, workdir)
    raise ValueError(f"unknown workload {name!r}")


# the per-workload names the end-to-end metrics were specified with
ALIASES = {
    "train": {"trials_per_s": "train_trials_per_s"},
    "train_wide": {"trials_per_s": "train_trials_per_s"},
    "infer": {"trials_per_s": "eval_trials_per_s", "request_ms_mean": "infer_b1_ms_mean",
              "request_ms_p90": "infer_b1_ms_p90"},
    "prep": {"trials_per_s": "prep_trials_per_s"},
}
