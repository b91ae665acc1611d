#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds canopus_e2e from source (CMake, into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e), runs one workload in a
fresh process and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits nonzero, without that line, when the
build or the run fails, and with "correct": false when a trial's output is
wrong (audit violation, digest disagreement, retention breach, or a traced
run that does not reproduce the plain one).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; serialized by a lock so
    concurrent runs in one checkout never race on the build tree."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", build_dir, "-j4"]]
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            try:
                p = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "canopus_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 1 <= seconds <= 600:
        fail("--seconds must be in [1, 600]")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "e2e")
    binary = build(build_dir)

    result_path = os.path.join(build_dir, f"result-{os.getpid()}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    try:
        p = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"canopus_e2e exceeded {RUN_TIMEOUT_S} s")
    try:
        with open(result_path) as f:
            out = json.load(f)
        os.remove(result_path)
    except (OSError, ValueError) as e:
        fail(f"canopus_e2e exited {p.returncode} without a result: {e}")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = out[kind].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(out["correct"]) and p.returncode == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
