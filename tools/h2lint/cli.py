"""h2lint command line.

Usage:
  python3 -m h2lint [--root DIR] [--compile-db FILE] [--engine auto|ast|text]
                    [--strict] [--rules LIST] [--list-rules] [--explain-dag]
                    [paths...]

h2lint is the repo's one determinism linter, and it also runs the
whole-program rules.

Engines:
  - The six determinism rules and the file-level adversary-plaintext rule
    run on the AST backend (libclang + compile_commands.json) when
    available; otherwise they fall back to the text engines
    (determinism.py, adversary.py). Both engines take ids, scopes and
    messages from determinism.RULES and adversary.py.
  - The four whole-program rules (layering, obs-registry, h2t-tags,
    rng-fork) are pure Python and always run.

--strict makes a missing AST backend a hard error (exit 2) — CI passes it
so the semantic rules can never silently degrade there. Exit codes: 0
clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import (
    adversary,
    ast_backend,
    determinism,
    layering,
    obs_registry,
    rng_fork,
    trace_tags,
)
from .source import Finding, iter_source_files

WHOLE_PROGRAM_RULES = {
    "layering": "include-layering DAG between src/ modules "
    "(tools/h2lint/layering.py is the spec)",
    "obs-registry": "Counter/Gauge/Hist enum <-> export-name consistency "
    "(length, uniqueness, canonical names, dead counters)",
    "h2t-tags": ".h2t section-tag/flag-bit uniqueness and writer/reader drift",
    "rng-fork": "sim::Rng& parameters must be fork()ed into parallel work",
}

DETERMINISM_RULES = tuple(determinism.RULES)
# Rules with an AST and a text engine.
ENGINE_RULES = (*DETERMINISM_RULES, adversary.RULE)


def run_text_engine(root: Path, rels: list[str], rules: set[str]) -> list[Finding]:
    findings = determinism.check(root, rels, rules)
    if adversary.RULE in rules:
        findings.extend(adversary.check(root, rels))
    return findings


def run_ast_engine(
    root: Path, compile_db: Path, rels: list[str], rules: set[str]
) -> tuple[list[Finding], list[str]]:
    from .ast_rules import AstLinter  # deferred: needs the backend

    linter = AstLinter(root, compile_db)
    findings = linter.run()
    wanted = set(rels)
    return (
        [f for f in findings if f.rule in rules and (not wanted or f.path in wanted)],
        linter.parse_failures,
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="h2lint", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent.parent),
        help="tree root; rule scopes and registry paths resolve against it",
    )
    parser.add_argument(
        "--compile-db",
        default=None,
        help="compile_commands.json for the AST engine "
        "(default: <root>/build/compile_commands.json)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "ast", "text"),
        default="auto",
        help="auto: AST when libclang is importable, else the text engine",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) instead of degrading when the AST backend or "
        "compile database is missing",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset (default: all)",
    )
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--explain-dag",
        action="store_true",
        help="print the layering DAG spec and exit",
    )
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    all_rules = dict.fromkeys(ENGINE_RULES)
    all_rules.update(dict.fromkeys(WHOLE_PROGRAM_RULES))
    if args.list_rules:
        for rid in DETERMINISM_RULES:
            print(f"{rid}: {determinism.RULES[rid]['message']} [ast/regex]")
        print(f"{adversary.RULE}: {adversary.MESSAGE} [ast/regex]")
        for rid, desc in WHOLE_PROGRAM_RULES.items():
            print(f"{rid}: {desc} [whole-program]")
        return 0
    if args.explain_dag:
        print(layering.explain())
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"h2lint: no such root: {root}", file=sys.stderr)
        return 2
    rules = set(all_rules)
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",")}
        unknown = rules - set(all_rules)
        if unknown:
            print(f"h2lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    if args.paths:
        rels = []
        for p in args.paths:
            path = Path(p)
            rel = path if not path.is_absolute() else path.relative_to(root)
            if (root / rel).is_dir():
                rels.extend(iter_source_files(root, str(rel)))
            else:
                rels.append(str(rel))
    else:
        rels = iter_source_files(root)

    findings: list[Finding] = []
    engine_used = "text"
    engine_rules = rules & set(ENGINE_RULES)
    if engine_rules:
        compile_db = Path(
            args.compile_db
            if args.compile_db
            else root / "build" / "compile_commands.json"
        )
        want_ast = args.engine in ("auto", "ast")
        have_ast = ast_backend.available() and compile_db.is_file()
        if want_ast and have_ast:
            engine_used = "ast"
            ast_findings, failures = run_ast_engine(
                root, compile_db, rels, engine_rules
            )
            findings.extend(ast_findings)
            for rel in failures:
                print(f"h2lint: parse failed, text fallback for {rel}",
                      file=sys.stderr)
            if failures:
                findings.extend(run_text_engine(root, failures, engine_rules))
        else:
            if args.engine == "ast" or (args.strict and want_ast):
                missing = (
                    "libclang bindings"
                    if not ast_backend.available()
                    else f"compile database {compile_db}"
                )
                print(f"h2lint: AST engine unavailable ({missing})",
                      file=sys.stderr)
                return 2
            findings.extend(run_text_engine(root, rels, engine_rules))

    if "layering" in rules:
        findings.extend(layering.check(root, rels))
    if "rng-fork" in rules:
        findings.extend(rng_fork.check(root, rels))
    # Whole-program registries ignore the path filter: their subject is the
    # cross-file invariant, not any one file.
    if "obs-registry" in rules:
        findings.extend(obs_registry.check(root))
    if "h2t-tags" in rules:
        findings.extend(trace_tags.check(root))

    findings = sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())
    if findings:
        print(
            f"h2lint[{engine_used}]: {len(findings)} finding(s) in "
            f"{len(rels)} file(s); suppress deliberate uses with "
            "// lint:allow(<rule>)",
            file=sys.stderr,
        )
        return 1
    print(f"h2lint[{engine_used}]: clean ({len(rels)} files)")
    return 0
