#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload closed_prio --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, traced
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  The first call configures and
builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr, so stdout ends with the driver's one-line
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["closed_prio", "mem_contended", "serve_open"]
# Each driver run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def run_driver(driver, args):
    """Run the driver; echo its stdout and return (exit code, result)."""
    cmd = [str(driver), "--work-dir", str(build_dir().parent / "work")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_all(driver, rest):
    """Every workload traced; one result line with the per-layer
    metrics of each, prefixed by the workload name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        rc, result = run_driver(driver, ["--workload", name, "--trace", "1"] + rest)
        if rc or result is None:
            code = code or rc or 1
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return code


def main(argv):
    driver = build()
    if "--self-test" in argv:
        return subprocess.run([str(driver), "--self-test"]).returncode
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(driver, argv[:i] + argv[i + 2:])
    code, result = run_driver(driver, argv)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
