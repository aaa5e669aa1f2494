"""Run every workload on one or more seeds and summarise the end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/all.py --seeds 0                       # every workload once
    python3 perfbench/all.py --seeds 1,2,3,4,5,6,7,8,9,10    # medians and spreads

Each run is a separate `perfbench/run.py` process with the workloads and the
run length of BENCHMARK.json. For every workload and end-to-end metric it
prints the median over the seeds, and with four or more seeds the spread: the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound. A run that exits non-zero
or reports a failed check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, benchmark


def main(argv=None) -> int:
    bench = benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0", help="comma-separated workload seeds")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list] = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} seed={seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for metric in bench["end_to_end"]:
            vals = values.get(metric["name"], [])
            if not vals:
                continue
            med = statistics.median(vals)
            line = f"  {workload} {metric['name']}: median {med:.6g} {metric['unit']}"
            if len(vals) >= 4:
                q = statistics.quantiles(vals, n=4)
                line += f", spread {(q[2] - q[0]) / med:.4f} (bound {metric['bound']})"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
