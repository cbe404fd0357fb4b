#!/usr/bin/env python3
"""h2priv benchmark entry point.

Builds the perfbench binary from the checkout's sources, runs one workload
for a timed window, checks the verdict oracle, and prints one JSON result
line as the last line of stdout:

    python3 perfbench/run.py --workload live_attack --seed 1000 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a second, traced window). The network is simulated:
no real link or disk rate is measured.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def local_env():
    """Environment whose TMPDIR lies in the build directory, so compilers and
    the benchmark write nothing outside the checkout."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds the perfbench target; returns the binary."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (out / "Makefile").exists():  # configure (again, if it failed before)
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr, env=local_env())
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=local_env())
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines before the result, result)."""
    tmp = build_dir() / f"tmp-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp),
           *extra]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=local_env())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    tagged = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    if len(tagged) != 1:
        raise RuntimeError("perfbench printed no result")
    return [l for l in lines if l not in tagged], json.loads(tagged[0].split(" ", 1)[1])


def check(result, spec, workload, seed, trace):
    """Applies the oracle and the metric contract; returns the result line."""
    problems = list(result["checks"])
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"]
    wrong = [k for k, v in metrics.items() if want.get(k) != v["unit"]]
    if wrong:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {wrong}")
    missing = sorted(set(want) - set(metrics))
    if not trace and missing:
        raise RuntimeError(f"end-to-end metrics missing: {missing}")
    # A layer that does no work in this workload reports 0 (predictions.json
    # names the workloads each layer belongs to).
    for name in missing:
        metrics[name] = {"value": 0, "unit": want[name]}

    attempted, failed = result["attempted"], result["failed"]
    oracle = json.loads((BENCH_DIR / "oracle.json").read_text())[workload]
    if seed == oracle["seed"] and result["oracle_digest"] != oracle["digest"]:
        problems.append(f"verdict digest {result['oracle_digest']} != pinned {oracle['digest']}")
        failed = attempted  # a wrong verdict fails every op of the run
    for p in problems:
        log(f"check failed: {p}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in expected},
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sensitivity self-test only: a second open + decode per offline trace.
    ap.add_argument("--inject-decode", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        binary = build()
        extra = ["--inject-decode"] if args.inject_decode else []
        lines, result = run_binary(binary, args.workload, args.seed, args.seconds,
                                   args.trace, extra)
        line = check(result, spec, args.workload, args.seed, args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 2
    for l in lines:
        print(l)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
