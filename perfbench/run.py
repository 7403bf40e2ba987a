#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles src/) in Release under .bench_build/; later runs
only re-check the build. The benchmark binary prints human-readable lines
and ends with one JSON line {correct, attempted, failed, metrics}; this
script passes them through and exits non-zero, without a result line, when
the build or the run fails. Traced runs leave a Chrome trace and a
per-layer table under .bench_build/runs/.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "train_zb", "train_durable", "plan_storm",
             "plan_robust")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(root, build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=root, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None
            if done.returncode != 0:
                return None
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in [1, 60]")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        return fail(f"no autopipe sources under {root / 'src'}")
    base = root / ".bench_build"
    binary = build(root, base / "perfbench")
    if binary is None:
        log = (base / "perfbench" / "build.log").read_text(errors="replace")
        sys.stderr.write(log[-4000:])
        return fail("build failed")

    out_dir = base / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        return fail(f"benchmark exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(done.stdout)
        return fail("the last line is not a result object")
    # Checkpoint scratch is large and per-run; keep only the trace files.
    for entry in out_dir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
