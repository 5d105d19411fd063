#!/usr/bin/env python3
"""Run one workload of the BitWave reproduction benchmark.

    python3 perfbench/run.py --workload <grid|cold_sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (perfbench/CMakeLists.txt, Release) into
.bench_build/ in the current directory, then runs the workload in a
process of its own with every BITWAVE_* environment variable cleared, so
no thread, cache, fault or tracing knob leaks in. Prints a machine
record, the workload's info lines and, as the last line, the result:
{"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Exits non-zero when the build fails, an output check fails
or a metric BENCHMARK.json names is missing.

Seeds: DEFAULT_SEED is the seed of a bare run. HELD_OUT_SEED was used
by no run while the benchmark was tuned; re-check a claimed gain on it.

--tiny and --perturb-golden are for the self-test (test_perfbench.py).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
BUILD_DIR = Path(".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 10.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", jobs]]
    if not (BUILD_DIR / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {step[:2]} failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step {' '.join(step[:2])} exited "
                f"{done.returncode}")
            return None
    return BUILD_DIR / "perfbench"


def cpu_record():
    model, flags = "unknown", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "unknown":
                model = value.strip()
            elif key == "flags" and not flags:
                flags = value.split()
    except OSError:
        pass
    return model, flags


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown (no git)"


def machine_record():
    model, flags = cpu_record()
    simd = [f for f in flags if f.startswith(("avx", "sse4", "fma", "bmi"))]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": sorted(simd),
        "kernel": platform.release(),
        "git_sha": git_sha(),
    }


def expected_metrics(trace):
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, args, *extra):
    """One workload process; returns (exit code, output lines, result)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BITWAVE_")}
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra,
           "--spawn-epoch", repr(time.time())]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit {done.returncode})")
        return 1, lines, None
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb-golden", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    print("machine: " + json.dumps(machine_record()), flush=True)
    extra = [flag for flag, on in (("--tiny", args.tiny),
                                   ("--perturb-golden", args.perturb_golden))
             if on]
    code, lines, result = run_workload(binary, args, *extra)
    if result is None:
        return 1

    # Set-up time is sampled in extra set-up-only processes while that
    # stays cheap, and reported as the median.
    if code == 0 and not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            sample_code, _, sample = run_workload(binary, args, *extra,
                                                  "--setup-only")
            if sample is None or sample_code != 0:
                return 1
            setups.append(sample["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines[-1:] = ["info setup_s samples: " +
                      " ".join(repr(s) for s in setups), json.dumps(result)]

    problems = []
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: want {want}, "
                        f"got {got}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for problem in problems:
        log(problem)
    print("\n".join(lines), flush=True)
    if problems:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
