"""Run one workload over several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workload fit_cube --seeds 1-10

Runs are sequential, one process at a time, each untraced and as long as
BENCHMARK.json's ``run_seconds``. For every end-to-end metric it prints the
median of the per-run values and the interquartile range as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles, next to
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)

    values, bad = {}, 0
    for seed in seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += not res["correct"]
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in row.items()) + f"  ({wall:.0f} s wall)",
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'metric':28s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[k]
        flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print(f"{k:28s} {med:12.5g} {spread:10.4f} {bound:>6}  {flag}")
    print(f"runs not correct: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
