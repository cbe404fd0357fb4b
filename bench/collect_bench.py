#!/usr/bin/env python3
"""Runs the bench suite, aggregates results, and gates perf regressions.

Every bench binary prints two machine-readable lines on exit (see
bench/bench_common.hpp):

    BENCH_JSON   {...}   wall clock, simulator events, headline metrics
    METRICS_JSON {...}   the obs::Registry snapshot (per-layer counters,
                         gauges, log-bucket histograms)

`run` mode (the default) executes a configurable subset of the benches,
harvests both lines, and writes `BENCH_<YYYY-MM-DD>.json` at the repo root
so the perf trajectory accumulates across PRs.

`compare` mode diffs a fresh run (or a saved `--results` file) against a
committed baseline and exits non-zero when the stack regressed:

  * hard failures — deterministic quantities that must be bit-identical for
    a fixed workload: simulator `events`, the `*allocs_per_pkt*` metrics of
    bench_stack_throughput, and every obs counter (frames, retransmits,
    TLS records, ...) except the pool reuse/fresh split, which depends on
    worker-thread scheduling and is only warned about.
  * soft failures — wall-clock slowdown beyond --wall-tolerance (default
    15%). Hard by default; `--wall-warn-only` downgrades it to a warning
    for noisy CI runners.

A deterministic mismatch means the PR changed stack behaviour: either fix
it or regenerate the baseline (`run` mode) and commit the new file with an
explanation.

Usage:
    bench/collect_bench.py [run] [--build-dir build] [--out DIR] [--quick]
                           [--save FILE]
    bench/collect_bench.py compare --baseline BENCH_X.json
                           [--results FILE] [--build-dir build]
                           [--wall-tolerance 0.15] [--wall-warn-only]

--quick trims run counts so the whole sweep stays under ~a minute; the
default profile matches what the figures/tables in EXPERIMENTS.md use.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# (binary, default args, quick args). Order is the order they run.
# bench_table2_attack at --jobs 1 is the page-loads-per-core number.
# bench_fleet prints "runs": 0 (its Monte-Carlo loop is run_fleet_corpus, not
# run_batch), so compare gates only its wall clock and its exit status, which
# is non-zero when the jobs-1-vs-4 manifests/digests differ or the merged
# trace fails replay.
BENCHES = [
    ("bench_stack_throughput", ["--mb", "32"], ["--mb", "8"]),
    ("bench_micro_protocol", [], []),
    ("bench_table1_jitter", ["50", "--jobs", "2"], ["5", "--jobs", "2"]),
    ("bench_fig3_interleaving", ["50", "--jobs", "2"], ["5", "--jobs", "2"]),
    ("bench_table2_attack", ["40", "--jobs", "1"], ["10", "--jobs", "1"]),
    ("bench_fleet", ["2"], ["1"]),
    ("bench_replay", ["8", "--jobs", "2"], ["4", "--jobs", "2"]),
    ("bench_corpus_score", ["12", "--jobs", "2"], ["6", "--jobs", "2"]),
    ("bench_codec", ["8", "--jobs", "2"], ["4", "--jobs", "2"]),
    ("bench_defense_grid", ["12", "--jobs", "2"], ["6", "--jobs", "2"]),
]

BENCH_MARKER = "BENCH_JSON "
METRICS_MARKER = "METRICS_JSON "

# Obs counters whose values depend on worker-thread scheduling (buffer
# pools are thread-local, so the reuse pattern varies run to run even
# though the _served total is deterministic). Compare warns instead of
# failing on these.
SCHEDULING_DEPENDENT_COUNTERS = {
    "pool.chunks_reused",
    "pool.chunks_fresh",
    "pool.chunks_oversize",
}


def harvest(binary: pathlib.Path, args: list[str]) -> dict | None:
    """Runs one bench; returns its BENCH_JSON payload with the METRICS_JSON
    snapshot attached under the "obs" key."""
    proc = subprocess.run(
        [str(binary), *args], capture_output=True, text=True, cwd=REPO_ROOT
    )
    if proc.returncode != 0:
        print(f"error: {binary.name} exited {proc.returncode}", file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        return None
    payload = None
    obs = None
    for line in reversed(proc.stdout.splitlines()):
        if payload is None and line.startswith(BENCH_MARKER):
            payload = json.loads(line[len(BENCH_MARKER):])
        elif obs is None and line.startswith(METRICS_MARKER):
            obs = json.loads(line[len(METRICS_MARKER):])
        if payload is not None and obs is not None:
            break
    if payload is None:
        print(f"error: {binary.name} printed no BENCH_JSON line", file=sys.stderr)
        return None
    if obs is not None:
        payload["obs"] = obs
    return payload


def run_benches(build_dir: str, quick: bool) -> list[dict] | None:
    bench_dir = (REPO_ROOT / build_dir / "bench").resolve()
    if not bench_dir.is_dir():
        print(f"error: {bench_dir} not found (build first)", file=sys.stderr)
        return None
    records = []
    for name, full_args, quick_args in BENCHES:
        binary = bench_dir / name
        if not binary.exists():
            print(f"skip: {name} (not built)", file=sys.stderr)
            continue
        args = quick_args if quick else full_args
        print(f"running {name} {' '.join(args)} ...", flush=True)
        payload = harvest(binary, args)
        if payload is None:
            return None
        records.append(payload)
    return records


def cmd_run(ns: argparse.Namespace) -> int:
    records = run_benches(ns.build_dir, ns.quick)
    if records is None:
        return 1
    stamp = datetime.date.today().isoformat()
    doc = json.dumps({"date": stamp, "benches": records}, indent=2) + "\n"
    out_path = pathlib.Path(ns.out) / f"BENCH_{stamp}.json"
    out_path.write_text(doc)
    print(f"wrote {out_path} ({len(records)} benches)")
    if ns.save:
        save_path = pathlib.Path(ns.save)
        save_path.write_text(doc)
        print(f"wrote {save_path}")
    return 0


class Report:
    """Accumulates per-bench findings and renders the final verdict."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.warnings: list[str] = []

    def fail(self, bench: str, msg: str) -> None:
        self.failures.append(f"{bench}: {msg}")

    def warn(self, bench: str, msg: str) -> None:
        self.warnings.append(f"{bench}: {msg}")

    def render(self) -> int:
        for w in self.warnings:
            print(f"WARN  {w}")
        for f in self.failures:
            print(f"FAIL  {f}")
        if self.failures:
            print(f"compare: {len(self.failures)} failure(s), "
                  f"{len(self.warnings)} warning(s)")
            return 1
        print(f"compare: OK ({len(self.warnings)} warning(s))")
        return 0


def compare_counters(bench: str, base_obs: dict, fresh_obs: dict,
                     report: Report) -> None:
    base_counters = base_obs.get("counters", {})
    fresh_counters = fresh_obs.get("counters", {})
    for key in sorted(set(base_counters) | set(fresh_counters)):
        b = base_counters.get(key, 0)
        f = fresh_counters.get(key, 0)
        if b == f:
            continue
        msg = f"counter {key}: baseline {b} -> fresh {f}"
        if key in SCHEDULING_DEPENDENT_COUNTERS:
            report.warn(bench, msg + " (scheduling-dependent, not gated)")
        else:
            report.fail(bench, msg)
    # Gauges and histograms are deterministic too, but drift there always
    # coincides with a counter change; report it for diagnosis only.
    if base_obs.get("gauges") != fresh_obs.get("gauges"):
        report.warn(bench, "gauge high-water marks drifted")
    if base_obs.get("histograms") != fresh_obs.get("histograms"):
        report.warn(bench, "histogram shapes drifted")


def compare_record(base: dict, fresh: dict, ns: argparse.Namespace,
                   report: Report) -> None:
    bench = base["name"]
    if base.get("runs") != fresh.get("runs"):
        report.warn(bench, f"run counts differ (baseline {base.get('runs')}, "
                           f"fresh {fresh.get('runs')}); deterministic "
                           "comparison skipped")
        return

    # google-benchmark binaries (runs == 0) pick iteration counts by wall
    # time, so none of their totals are workload-deterministic.
    deterministic = base.get("runs", 0) > 0
    if deterministic:
        if base.get("events") != fresh.get("events"):
            report.fail(bench, f"simulator events: baseline {base.get('events')}"
                               f" -> fresh {fresh.get('events')}")
        for key, b in base.get("metrics", {}).items():
            if "allocs_per_pkt" not in key:
                continue
            f = fresh.get("metrics", {}).get(key)
            if f is None:
                report.fail(bench, f"metric {key} missing from fresh run")
            elif f > b + 1e-9:
                report.fail(bench, f"metric {key}: baseline {b} -> fresh {f}")
            elif f < b - 1e-9:
                report.warn(bench, f"metric {key} improved: {b} -> {f} "
                                   "(consider refreshing the baseline)")
        if "obs" in base and "obs" in fresh:
            compare_counters(bench, base["obs"], fresh["obs"], report)
        elif "obs" not in base:
            report.warn(bench, "baseline has no obs section (pre-obs baseline?)")
        else:
            report.fail(bench, "fresh run printed no METRICS_JSON line")

    base_wall = base.get("batch_wall_s") or base.get("wall_s") or 0.0
    fresh_wall = fresh.get("batch_wall_s") or fresh.get("wall_s") or 0.0
    if base_wall > 0 and fresh_wall > 0:
        ratio = fresh_wall / base_wall
        if ratio > 1.0 + ns.wall_tolerance:
            msg = (f"wall clock {ratio:.2f}x baseline "
                   f"({base_wall:.3f}s -> {fresh_wall:.3f}s, "
                   f"tolerance {ns.wall_tolerance:.0%})")
            if ns.wall_warn_only:
                report.warn(bench, msg)
            else:
                report.fail(bench, msg)


def cmd_compare(ns: argparse.Namespace) -> int:
    baseline_path = pathlib.Path(ns.baseline)
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())

    if ns.results:
        fresh = json.loads(pathlib.Path(ns.results).read_text())
        records = fresh["benches"] if isinstance(fresh, dict) else fresh
    else:
        records = run_benches(ns.build_dir, ns.quick)
        if records is None:
            return 1

    fresh_by_name = {r["name"]: r for r in records}
    report = Report()
    for base in baseline["benches"]:
        fresh_record = fresh_by_name.get(base["name"])
        if fresh_record is None:
            report.warn(base["name"], "not present in fresh results")
            continue
        compare_record(base, fresh_record, ns, report)
    for name in fresh_by_name:
        if not any(b["name"] == name for b in baseline["benches"]):
            report.warn(name, "new bench with no baseline entry")
    return report.render()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="mode")

    run_p = sub.add_parser("run", help="run benches and write BENCH_<date>.json")
    compare_p = sub.add_parser("compare", help="diff a fresh run against a baseline")

    for p in (run_p, compare_p):
        p.add_argument("--build-dir", default="build", help="CMake build directory")
        p.add_argument("--quick", action="store_true", help="small run counts")
    run_p.add_argument("--out", default=str(REPO_ROOT), help="output directory")
    run_p.add_argument("--save", default=None,
                       help="also write the results to this exact path")
    compare_p.add_argument("--baseline", required=True,
                           help="committed BENCH_<date>.json to diff against")
    compare_p.add_argument("--results", default=None,
                           help="reuse a saved results file instead of re-running")
    compare_p.add_argument("--wall-tolerance", type=float, default=0.15,
                           help="allowed wall-clock slowdown fraction (default 0.15)")
    compare_p.add_argument("--wall-warn-only", action="store_true",
                           help="downgrade wall-clock slowdowns to warnings")

    # Bare invocation (the pre-compare CLI) keeps working as `run`.
    argv = sys.argv[1:]
    if not argv or argv[0] not in ("run", "compare"):
        argv = ["run", *argv]
    ns = parser.parse_args(argv)
    return cmd_compare(ns) if ns.mode == "compare" else cmd_run(ns)


if __name__ == "__main__":
    sys.exit(main())
