"""Benchmark for lidsn: one workload at one seed, measured for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

The workloads and metrics, with why each exists, are listed in
BENCHMARK.json. With ``--trace 0`` nothing is instrumented and the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repeats of the same work and prints the per-layer metrics and the tracing
overhead.

The package is imported from ``src/`` next to this directory, never from an
installed copy. The load comes from one process and one thread:
LIDSN_THREADS=1 and one BLAS thread. Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. An environment and provenance record is written with
every result under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
TRACE_MIN_PAIRS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark() -> dict:
    """BENCHMARK.json: the one list of workload names and metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in benchmark()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> int:
    """One process, one thread: must run before numpy loads.

    BLAS gets one thread, which is within the CPUs this process may use; on
    a 2-CPU machine two BLAS threads made train jobs slower and no steadier.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ["LIDSN_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(args, cpus: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": openblas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": cpus,
        "LIDSN_THREADS": os.environ["LIDSN_THREADS"],
        "machine": platform.machine(),
        "cpu_model": cpu_model,
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_setups(workload, seed: int) -> tuple:
    """Set up at least 5 times and for at least 3 s; return the state and the median."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def run_timed(workload, seed: int, seconds: float, tally) -> tuple:
    state, setup_s = timed_setups(workload, seed)
    workload.warm(state)
    samples = workload.measure(state, seconds, tally)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    requests = samples["request_s"]
    metrics = {
        "trials_per_s": (sum(samples["unit_trials"]) / sum(samples["unit_s"]), "trials/s"),
        "request_ms_mean": (statistics.fmean(requests) * 1e3, "ms"),
        "request_ms_p90": (percentile(requests, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = [f"requests timed: {len(requests)}; request_ms_p50 = "
             f"{percentile(requests, 50) * 1e3} ms (reported, not gated); "
             f"throughput: {sum(samples['unit_trials'])} trials in {sum(samples['unit_s'])} s"]
    return metrics, notes, samples


def run_traced(workload, seed: int, seconds: float, tally, spans_path: str) -> tuple:
    """Alternate untraced and traced repeats of (set-up + one unit of work).

    Alternating lets both sides see the same machine state, so the
    difference of their medians is the tracing overhead. At least
    TRACE_MIN_PAIRS pairs run, however short ``seconds`` is, so neither
    median rests on a single repeat.
    """
    from tracing import Tracer

    def repeat() -> float:
        t0 = time.perf_counter()
        workload.unit(workload.setup(seed), tally)
        return time.perf_counter() - t0

    workload.warm(workload.setup(seed))
    tracer = Tracer()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while (len(traced) < TRACE_MIN_PAIRS
           or time.perf_counter() + plain[-1] + traced[-1] <= t_end):
        plain.append(repeat())
        tracer.install()
        try:
            traced.append(repeat())
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    values = tracer.metrics(len(traced))
    base = statistics.median(plain)
    overhead = statistics.median(traced) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / base
    units = {m["name"]: m["unit"] for m in benchmark()["per_layer"]}
    if set(values) != set(units):
        raise ValueError("traced metrics differ from BENCHMARK.json per_layer: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = [f"repeats: {len(plain)} untraced and {len(traced)} traced, alternating "
             "(one repeat = set-up plus one unit of work; per-layer values are per repeat)",
             f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    return metrics, notes, {"untraced_repeat_s": plain, "traced_repeat_s": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lidsn", "__init__.py")):
        print(f"error: no lidsn sources under {SRC}", file=sys.stderr)
        return 2
    cpus = pin_threads()
    sys.path.insert(0, SRC)
    import lidsn

    if os.path.dirname(os.path.realpath(lidsn.__file__)) != os.path.realpath(
            os.path.join(SRC, "lidsn")):
        print(f"error: lidsn imported from {lidsn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import ALIASES, Tally, build

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{stem}-{os.getpid()}")
    os.makedirs(workdir)
    workload = build(args.workload, workdir)
    tally = Tally()
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{stem}.json")
            metrics, notes, samples = run_traced(workload, args.seed, args.seconds, tally,
                                                 spans_path)
        else:
            metrics, notes, samples = run_timed(workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = provenance(args, cpus)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({"environment": env, "problems": tally.problems, "notes": notes,
                   "result": result, "samples": samples}, fh, sort_keys=True)

    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for problem in tally.problems:
        print(f"check failed: {problem}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate = {error_rate} (failed {tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        alias = ALIASES[args.workload].get(name) if not args.trace else None
        label = f"{name} ({alias})" if alias else name
        print(f"{label} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
