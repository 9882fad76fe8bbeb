#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/stability.py --workload serve_open --seeds 1-10 --seconds 20

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4), next to each end-to-end metric's
bound from BENCHMARK.json.  A benchmark is steady when every spread
except setup_s stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: {time.monotonic() - start:.1f} s rc={proc.returncode} "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        if not ok:
            sys.exit(f"seed {seed} failed")
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{args.workload}: spread = (Q3-Q1)/median over {len(next(iter(values.values())))} runs")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds[k]
        flag = "ok" if spread < bound / 3 else "ABOVE bound/3"
        print(f"  {k:40s} median {med:<14.6g} spread {spread:7.4f}"
              f"  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
