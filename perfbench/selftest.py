"""Self-test of the benchmark at a tiny size.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs all four workloads end to end on tiny inputs, untraced and traced, and
requires every check to pass. Then feeds each check a corrupted output (a
flipped byte in model.bin, a non-finite loss, a perturbed logit, a changed
sample, an aligned set off the identity, ...) and requires the check to fire.
Exits 0 when everything behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import run

run.pin_threads()
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

from lidsn import cli, training  # noqa: E402
from workloads import Tally, build  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def fires(label: str, problems: list, needle: str) -> None:
    expect(f"{label} -> {problems[:1]}", any(needle in p for p in problems))


def end_to_end(name: str, workdir: str) -> None:
    tally = Tally()
    metrics, _, _ = run.run_timed(build(name, workdir, tiny=True), 0, 1.0, tally)
    expect(f"{name}: timed run passes its checks ({tally.attempted} operations)",
           tally.attempted > 0 and tally.failed == 0)
    expect(f"{name}: every end-to-end metric is positive",
           all(value > 0 for value, _ in metrics.values()))
    tally = Tally()
    metrics, _, _ = run.run_traced(build(name, workdir, tiny=True), 0, 1.0, tally,
                                os.path.join(workdir, "spans.json"))
    expect(f"{name}: traced run passes its checks ({tally.attempted} operations)",
           tally.attempted > 0 and tally.failed == 0)
    expect(f"{name}: traced run reports every per-layer metric of BENCHMARK.json",
           list(metrics) == [m["name"] for m in run.benchmark()["per_layer"]])


def corrupt_train(workdir: str) -> None:
    wl = build("train", workdir, tiny=True)
    state = wl.setup(0)
    out = os.path.join(workdir, "job")
    argv = ["train", "--data", state.data_path, "--config", state.config_path, "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    expect("train: clean job passes", wl.check(rc, out) == [])
    expect("train: identical rerun passes", wl.check(rc, out) == [])
    fires("train: non-zero exit code", wl.check(1, out), "exited")

    def variant(edit) -> str:
        bad = os.path.join(workdir, "bad")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        edit(bad)
        return bad

    def flip_model_byte(d):
        path = os.path.join(d, "model.bin")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(path, "wb").write(bytes(blob))

    def nan_loss(d):
        path = os.path.join(d, "curves.csv")
        lines = open(path).read().splitlines()
        cells = lines[1].split(",")
        cells[1] = "nan"
        lines[1] = ",".join(cells)
        open(path, "w").write("\n".join(lines) + "\n")

    def edit_report(key, value):
        def edit(d):
            path = os.path.join(d, "report.json")
            report = json.load(open(path))
            report["test"][key] = value
            open(path, "w").write(cli.canonical_json(report))

        return edit

    fires("train: flipped byte in model.bin", wl.check(0, variant(flip_model_byte)), "model.bin")
    fires("train: non-finite loss in curves.csv", wl.check(0, variant(nan_loss)), "curves.csv")
    fires("train: report.json changed", wl.check(0, variant(edit_report("macro_f1", -1.0))),
          "report.json")
    fires("train: accuracy below the threshold",
          wl.check(0, variant(edit_report("accuracy", 0.0))), "accuracy")


def corrupt_infer(workdir: str) -> None:
    wl = build("infer", workdir, tiny=True)
    state = wl.setup(0)
    reference = wl.batched_logits(state)
    row = state.model.logits_np(state.x[3:4])[0]
    expect("infer: clean B=1 reply passes", wl.check_request(reference, 3, row) == [])
    fires("infer: logit perturbed by 1e-6", wl.check_request(reference, 3, row + 1e-6), "differ")
    fires("infer: reply for another trial", wl.check_request(reference, 3, reference[4]), "differ")
    near_tie = np.array([[0.5, 0.5 + 1e-10]])
    fires("infer: argmax flipped within tolerance",
          wl.check_request(near_tie, 0, near_tie[0][::-1]), "argmax")
    metrics = training.evaluate_model(state.model, state.x, state.labels)
    expect("infer: clean evaluate_model pass passes",
           wl.check_eval(state, reference, metrics) == [])
    bad = copy.deepcopy(metrics)
    bad["confusion"][0][0] += 1
    fires("infer: changed confusion matrix", wl.check_eval(state, reference, bad), "metrics")


def corrupt_prep(workdir: str) -> None:
    wl = build("prep", workdir, tiny=True)
    state = wl.setup(0)
    loaded, aligned, features, plan = wl.chain(state)
    expect("prep: clean pass passes", wl.check(state, loaded, aligned, features, plan) == [])

    bad = copy.deepcopy(loaded)
    bad.data[0, 0, 0] = np.nextafter(bad.data[0, 0, 0], np.inf)
    fires("prep: one loaded sample off by one ulp",
          wl.check(state, bad, aligned, features, plan), "load_epochs")
    bad = copy.deepcopy(aligned)
    bad.data[bad.subjects == bad.subjects[0]] *= 1.001
    fires("prep: aligned subject scaled by 1.001",
          wl.check(state, loaded, bad, features, plan), "identity")
    bad = copy.deepcopy(features)
    bad.data[0, 0, 0] = np.nan
    fires("prep: non-finite feature", wl.check(state, loaded, aligned, bad, plan), "non-finite")
    bad = copy.deepcopy(plan)
    bad.folds = bad.folds[1:]
    fires("prep: LOSO fold missing", wl.check(state, loaded, aligned, features, bad), "LOSO")


def main() -> int:
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for workload in run.benchmark()["workloads"]:
            end_to_end(workload["name"], workdir)
        corrupt_train(workdir)
        corrupt_infer(workdir)
        corrupt_prep(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
