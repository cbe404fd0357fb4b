"""The six determinism rules (DESIGN.md §7): the rule table and the text
engine.

The whole reproduction rests on bit-determinism: golden-trace digests and
--jobs-invariant METRICS_JSON counters assert that the same seed produces
the same bytes on every run, on every machine, at any worker count. These
rules reject the code patterns that break that promise:

  wall-clock           std::chrono::{system,steady,high_resolution}_clock,
                       time()/clock()/gettimeofday in simulation code. Sim
                       time comes from sim::Simulator::now() only.
  unseeded-rng         rand()/srand(), std::random_device, or a std::
                       engine constructed without an explicit seed. All
                       randomness must flow from the run seed via sim::Rng.
  unordered-container  std::unordered_{map,set,multimap,multiset} in
                       sim-critical dirs: iteration order is
                       implementation-defined and changes with libstdc++
                       versions, so any loop over one leaks
                       nondeterminism into schedules and digests.
  pointer-keyed-container
                       std::{map,set} keyed on a pointer type: ASLR makes
                       the iteration order differ per process.
  thread-local         thread_local outside src/util and src/obs. The two
                       sanctioned uses (BufferPool, metrics registry) are
                       merge-safe by construction; new ones rarely are.
  float-merge-accum    float/double inside a *merge* function body.
                       Worker-merge must stay in the integer domain:
                       FP addition is not associative, so merge order
                       (= worker count) would change totals.

RULES is the one rule table (ids, scopes, messages): the AST engine
(ast_rules.py) takes its scopes and messages from it. The text engine below
matches each rule's pattern line by line on source.SourceFile's
comment/string-stripped code, so it shares the whole-program rules' stripper
and `// lint:allow(<rule>)` parsing. It is the fallback wherever libclang is
missing, which makes it the engine every local run and ctest use.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from .source import Finding, SourceFile

# Directories (relative to the repo root) whose event ordering feeds the
# wire trace. obs/ consumes traces after the fact; client/server are thin
# layers over h2 — but h2 itself plus everything below it is digest-critical.
SIM_CRITICAL = (
    "src/sim",
    "src/tcp",
    "src/tls",
    "src/h2",
    "src/hpack",
    "src/net",
    "src/core",
    "src/web",
    # capture serializes traces and replays them through the analysis stack;
    # any ordering or ambient-state leak here breaks byte-identical corpora.
    "src/capture",
    # corpus builds sharded stores and --jobs-invariant scoring reports whose
    # byte-identity is CI-enforced with cmp.
    "src/corpus",
    # util hosts the .h2t v2 entropy coder and block cache: compressed trace
    # bytes (and therefore corpus digests) are a pure function of this code.
    "src/util",
    # defense writes the attack x defense grid report and analysis scores the
    # traces feeding it; both are CI-cmp'd byte surfaces at any --jobs.
    "src/defense",
    "src/analysis",
    # fleet merges N clients' observations into one trace and runs the cache
    # admission pre-pass; its manifests are CI-cmp'd at --jobs 1 vs 4.
    "src/fleet",
)
ALL_SRC = ("src",)
THREAD_LOCAL_EXEMPT = ("src/util", "src/obs")

RULES = {
    "wall-clock": {
        "scope": ALL_SRC,
        "pattern": re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|\b(time|clock|gettimeofday|clock_gettime|localtime|gmtime)\s*\("
        ),
        "message": "wall-clock read in simulation code (use sim::Simulator::now())",
    },
    "unseeded-rng": {
        "scope": ALL_SRC,
        "pattern": re.compile(
            r"\b(rand|srand|random)\s*\("
            r"|std::random_device"
            r"|std::(mt19937(_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux(24|48)(_base)?|knuth_b)\s+\w+\s*[;)]"
        ),
        "message": "ambient randomness (derive a sim::Rng from the run seed instead)",
    },
    "unordered-container": {
        "scope": SIM_CRITICAL,
        "pattern": re.compile(r"std::unordered_(map|set|multimap|multiset)\b"),
        "message": "unordered container in sim-critical code "
        "(iteration order is implementation-defined)",
    },
    "pointer-keyed-container": {
        "scope": SIM_CRITICAL,
        "pattern": re.compile(r"std::(map|set|multimap|multiset)<[^<>,]*\*\s*[,>]"),
        "message": "pointer-keyed ordered container (ASLR makes iteration "
        "order differ per process)",
    },
    "thread-local": {
        "scope": ALL_SRC,
        "exempt": THREAD_LOCAL_EXEMPT,
        "pattern": re.compile(r"\bthread_local\b"),
        "message": "thread_local outside util/obs (per-thread state breaks "
        "--jobs invariance unless merged commutatively)",
    },
    "float-merge-accum": {
        "scope": ALL_SRC,
        "pattern": re.compile(r"\b(float|double)\b"),
        "merge_only": True,
        "message": "floating point inside a merge function (FP addition is "
        "not associative; merge order = worker count would change totals)",
    },
}

MERGE_FN_RE = re.compile(r"\b\w*merge\w*\s*\(")


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def in_scope(rel: str, rule: dict) -> bool:
    return in_dirs(rel, rule["scope"]) and not in_dirs(rel, rule.get("exempt", ()))


def lint_file(root: Path, rel: str, rules: set[str]) -> list[Finding]:
    """Text-engine findings for one file, restricted to `rules`."""
    active = {
        rid: r for rid, r in RULES.items() if rid in rules and in_scope(rel, r)
    }
    if not active:
        return []
    try:
        src = SourceFile(root, rel)
    except (OSError, UnicodeDecodeError) as e:
        print(f"h2lint: cannot read {rel}: {e}", file=sys.stderr)
        return []

    findings = []
    merge_depth = None  # brace depth at which the current merge fn body ends
    depth = 0
    for lineno, code in enumerate(src.code_lines, 1):
        if merge_depth is None and MERGE_FN_RE.search(code):
            merge_depth = depth
        in_merge = merge_depth is not None and (depth > merge_depth or "{" in code)
        depth += code.count("{") - code.count("}")
        if merge_depth is not None and depth <= merge_depth and "}" in code:
            merge_depth = None

        for rid, rule in active.items():
            if rule.get("merge_only") and not in_merge:
                continue
            if rule["pattern"].search(code) and rid not in src.allowed(lineno):
                findings.append(Finding(rel, lineno, rid, rule["message"]))
    return findings


def check(root: Path, rels: list[str], rules: set[str]) -> list[Finding]:
    """The text engine over every file in `rels`."""
    return [f for rel in rels for f in lint_file(root, rel, rules)]
