"""Steadiness of the benchmark on one commit.

    python3 perfbench/steady.py --runs 10 --seed 100 [--workloads scan,tower] [--sets 2]

Runs run.py once per seed (seeds `--seed`, `--seed`+1, ...) on each
workload, one process at a time, and reports for every end-to-end metric the
median and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread
above a third of the metric's bound in BENCHMARK.json is flagged.  With
`--sets 2` the whole set is repeated (same seeds) and the second median is
compared with the first against the bound.  The share of failed operations
must be the same in every run.  Exit code 1 when a check failed or a bound
was exceeded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    """Median and spread; a single run has no spread (reported as 0)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        shares = set()
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                res = one_run(workload, args.seed + i, args.seconds)
                ok &= res["correct"]
                shares.add(Fraction(res["failed"], res["attempted"]))
                results.append(res)
                print(f"{workload} set {s + 1} seed {args.seed + i}: attempted {res['attempted']} failed {res['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
            table = {}
            for name, metric in bounds.items():
                median, spread = summarize([r["metrics"][name]["value"] for r in results])
                table[name] = median
                flag = ""
                if name != "setup_s" and spread > metric["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif spread > metric["bound"] / 3:
                    flag = "  above bound/3"
                print(f"  {workload:6s} {name:14s} median {median:10.4f} {metric['unit']:6s} "
                      f"spread {spread:6.3f} (bound {metric['bound']}){flag}", flush=True)
            medians.append(table)
        if len(shares) > 1:
            ok = False
            print(f"  {workload}: the failed share differs between runs: {sorted(shares)}")
        if args.sets == 2:
            for name, metric in bounds.items():
                first, second = medians[0][name], medians[1][name]
                worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
                flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
                ok &= not flag
                print(f"  {workload:6s} {name:14s} second set vs first: {worse:+.3f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
