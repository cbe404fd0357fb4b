#!/usr/bin/env python3
"""Sensitivity self-test: the gate must catch an injected slowdown in one layer.

With --inject-decode, every offline_score scoring pass also opens and decodes
each trace a second time (a capture-layer slowdown injected from the
benchmark side). The test runs offline_score and live_attack with and
without the injection, alternating which side runs first, and passes when

  - ops_per_s on offline_score is worse with the injection by more than its
    BENCHMARK.json bound, and
  - ops_per_s on live_attack, which never decodes a trace, stays within it.

    python3 perfbench/selftest.py [--rounds 3] [--seconds 5]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, inject):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd.append("--inject-decode")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: run not correct")
    return result["metrics"]["ops_per_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ops_per_s")

    ok = True
    for workload, must_move in (("offline_score", True), ("live_attack", False)):
        base, injected = [], []
        for r in range(args.rounds):
            seed = 7000 + r
            order = (False, True) if r % 2 == 0 else (True, False)
            for inject in order:
                (injected if inject else base).append(run(workload, seed, args.seconds, inject))
        b, i = statistics.median(base), statistics.median(injected)
        worse = (b - i) / b  # ops_per_s: higher is better
        moved = worse > bound
        verdict = "PASS" if moved == must_move else "FAIL"
        ok &= moved == must_move
        print(f"{verdict} {workload}: ops_per_s {b:.1f} -> {i:.1f} with injection "
              f"({worse:+.1%} worse, bound {bound:.0%}, expected "
              f"{'outside' if must_move else 'inside'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
