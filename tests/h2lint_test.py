#!/usr/bin/env python3
"""Tests for tools/h2lint (the semantic analysis suite, DESIGN.md §12).

Runs h2lint as a subprocess (the same way CI and tools/run_h2lint.sh do)
over one miniature fixture tree per rule family (the six determinism rules
share one), asserting the exact (path, line, rule) triples reported —
positive, negative and `// lint:allow(<rule>)` suppression cases for each.

The AST-engine cases (typedef/alias and multi-line blind spots) need the
libclang Python bindings and are skipped where they are absent; CI
installs them and runs h2lint with --strict so they always execute there.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
FIXTURES = REPO / "tests" / "lint" / "h2lint"

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z0-9-]+)\]")

DETERMINISM_RULES = (
    "wall-clock",
    "unseeded-rng",
    "unordered-container",
    "pointer-keyed-container",
    "thread-local",
    "float-merge-accum",
)
ADVERSARY_RULE = "adversary-plaintext"
WHOLE_PROGRAM_RULES = ("layering", "obs-registry", "h2t-tags", "rng-fork")


def have_libclang():
    try:
        from clang import cindex  # noqa: PLC0415 - probe, not a dependency

        cindex.Index.create()
        return True
    except Exception:  # noqa: BLE001 - ImportError or missing libclang.so
        return False


def run_h2lint(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(TOOLS)
    return subprocess.run(
        [sys.executable, "-m", "h2lint", *args],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )


def findings(stdout):
    out = set()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            out.add((m.group("path"), int(m.group("line")), m.group("rule")))
    return out


def import_h2lint(module):
    """Imports tools/h2lint/<module>.py in-process."""
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module(f"h2lint.{module}")
    finally:
        sys.path.remove(str(TOOLS))


class DeterminismFixture(unittest.TestCase):
    """The text engine over a tree that seeds one violation per rule plus
    clean, suppressed, exempt and digit-separator files."""

    ROOT = FIXTURES / "determinism"
    EXPECTED = {
        ("src/core/thread_local_violation.cpp", 5, "thread-local"),
        ("src/h2/unordered_container_violation.cpp", 9, "unordered-container"),
        ("src/net/pointer_keyed_violation.cpp", 10, "pointer-keyed-container"),
        ("src/sim/digit_separator_violation.cpp", 9, "wall-clock"),
        ("src/sim/wall_clock_violation.cpp", 8, "wall-clock"),
        ("src/tcp/unseeded_rng_violation.cpp", 8, "unseeded-rng"),
        ("src/web/float_merge_violation.cpp", 13, "float-merge-accum"),
    }

    def lint(self, *paths):
        return run_h2lint(
            "--root", str(self.ROOT), "--engine", "text",
            "--rules", ",".join(DETERMINISM_RULES), *paths,
        )

    def test_each_seeded_violation_fires_at_its_line(self):
        result = self.lint()
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(findings(result.stdout), self.EXPECTED)

    def test_clean_file_produces_no_findings(self):
        result = self.lint("src/sim/clean.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(findings(result.stdout), set())

    def test_lint_allow_suppresses_the_annotated_line(self):
        result = self.lint("src/hpack/suppressed_allow.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_exempt_dir_is_not_linted_for_thread_local(self):
        result = self.lint("src/util/thread_local_exempt.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_single_file_scope_still_applies_rules(self):
        result = self.lint("src/sim/wall_clock_violation.cpp")
        self.assertEqual(result.returncode, 1)
        self.assertEqual(
            findings(result.stdout),
            {("src/sim/wall_clock_violation.cpp", 8, "wall-clock")},
        )

    def test_digit_separator_does_not_hide_the_rest_of_the_line(self):
        # `return 1'000 + time(nullptr);`: read as a char-literal quote, the
        # ' would blank out the clock call.
        result = self.lint("src/sim/digit_separator_violation.cpp")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            findings(result.stdout),
            {("src/sim/digit_separator_violation.cpp", 9, "wall-clock")},
        )

    def test_list_rules_prints_the_shared_table_messages(self):
        determinism = import_h2lint("determinism")
        result = run_h2lint("--list-rules")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        for rid in DETERMINISM_RULES:
            self.assertIn(
                f"{rid}: {determinism.RULES[rid]['message']} [ast/regex]",
                result.stdout.splitlines(),
            )

    def test_injected_violation_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            dst = root / "src" / "sim"
            dst.mkdir(parents=True)
            shutil.copy(self.ROOT / "src" / "sim" / "clean.cpp", dst / "clean.cpp")
            rules = ("--rules", ",".join(DETERMINISM_RULES))
            self.assertEqual(
                run_h2lint("--root", str(root), "--engine", "text", *rules).returncode,
                0,
            )
            with open(dst / "clean.cpp", "a") as f:
                f.write("static int now_ms = time(nullptr);\n")
            result = run_h2lint("--root", str(root), "--engine", "text", *rules)
            self.assertEqual(result.returncode, 1)
            self.assertIn("[wall-clock]", result.stdout)


class LayeringFixture(unittest.TestCase):
    ROOT = FIXTURES / "layering"

    def test_violating_and_unknown_modules_fire_at_the_seeded_lines(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "layering")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            findings(result.stdout),
            {
                ("src/gateway/unknown_module.cpp", 1, "layering"),
                ("src/tcp/bad_layering.cpp", 4, "layering"),
            },
        )

    def test_finding_names_the_offending_edge(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "layering")
        self.assertIn("edge tcp -> h2", result.stdout)

    def test_legal_edges_and_ubiquitous_modules_are_clean(self):
        result = run_h2lint(
            "--root", str(self.ROOT), "--rules", "layering",
            "src/tcp/allowed_edges.cpp",
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_lint_allow_suppresses_the_annotated_include(self):
        result = run_h2lint(
            "--root", str(self.ROOT), "--rules", "layering",
            "src/tcp/suppressed_edge.cpp",
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_base_dag_spec_is_acyclic(self):
        layering = import_h2lint("layering")
        layering.check_spec_acyclic()  # must not raise
        saved = layering.BASE_DAG
        layering.BASE_DAG = {"a": frozenset({"b"}), "b": frozenset({"a"})}
        try:
            with self.assertRaises(ValueError):
                layering.check_spec_acyclic()
        finally:
            layering.BASE_DAG = saved


class ObsRegistryFixture(unittest.TestCase):
    ROOT = FIXTURES / "obs"

    def test_drift_dead_counter_and_bogus_key_fire_at_the_seeded_lines(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "obs-registry")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            findings(result.stdout),
            {
                ("src/obs/export.cpp", 11, "obs-registry"),
                ("src/obs/include/h2priv/obs/metrics.hpp", 12, "obs-registry"),
                ("src/tcp/counts.cpp", 10, "obs-registry"),
            },
        )

    def test_messages_name_the_canonical_form_and_the_dead_member(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "obs-registry")
        self.assertIn('"tcp.segments_sent"', result.stdout)
        self.assertIn("kNetMbSeen is never incremented", result.stdout)

    def test_lint_allow_suppresses_the_waived_key(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "obs-registry")
        self.assertNotIn("tcp.waived_key", result.stdout)


class TraceTagsFixture(unittest.TestCase):
    ROOT = FIXTURES / "tags"

    def test_collision_intersection_and_bit_claims_fire_at_the_seeded_lines(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "h2t-tags")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        fmt = "src/capture/include/h2priv/capture/trace_format.hpp"
        self.assertEqual(
            findings(result.stdout),
            {
                (fmt, 16, "h2t-tags"),  # kVerdicts collides with kTimeline
                (fmt, 18, "h2t-tags"),  # kBlockIndex intersects compressed flag
                ("src/capture/trace_writer.cpp", 10, "h2t-tags"),  # 0x01 twice
                ("src/capture/trace_writer.cpp", 11, "h2t-tags"),  # 0x03 multi-bit
                ("src/capture/trace_writer.cpp", 13, "h2t-tags"),  # 0x40 unread
            },
        )

    def test_digit_separator_is_not_treated_as_a_char_literal(self):
        # kSectionCompressedFlag = 0x8000'0000u must parse as 2^31 (a single
        # bit): a stripper that reads the ' as a quote would mangle the value
        # and emit a bogus "not a single bit" finding at its line (11).
        result = run_h2lint("--root", str(self.ROOT), "--rules", "h2t-tags")
        fmt = "src/capture/include/h2priv/capture/trace_format.hpp"
        self.assertNotIn((fmt, 11, "h2t-tags"), findings(result.stdout))

    def test_lint_allow_suppresses_the_waived_claims(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "h2t-tags")
        got = findings(result.stdout)
        self.assertNotIn((
            "src/capture/include/h2priv/capture/trace_format.hpp", 17, "h2t-tags",
        ), got)  # kWaived = 1 is annotated
        self.assertNotIn(
            ("src/capture/trace_writer.cpp", 12, "h2t-tags"), got
        )  # flags |= 0x06 is annotated


class AdversaryPlaintextFixture(unittest.TestCase):
    """The text engine over miniature copies of the adversary's files: an
    hpack and an h2 include, a named tls::OpenContext and an unqualified
    Session after a using-directive fire; a comment, a string, a waived
    include and a non-adversary file that wires sessions do not."""

    ROOT = FIXTURES / "adversary"

    def lint(self, *paths):
        return run_h2lint(
            "--root", str(self.ROOT), "--engine", "text",
            "--rules", ADVERSARY_RULE, *paths,
        )

    def test_each_seeded_violation_fires_at_its_line(self):
        result = self.lint()
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            findings(result.stdout),
            {
                ("src/analysis/include/h2priv/analysis/monitor_stream.hpp", 5,
                 ADVERSARY_RULE),  # h2/ include
                ("src/core/attack.cpp", 8, ADVERSARY_RULE),  # tls::OpenContext
                ("src/core/include/h2priv/core/monitor.hpp", 8,
                 ADVERSARY_RULE),  # unqualified Session
                ("src/core/predictor.cpp", 4, ADVERSARY_RULE),  # hpack/ include
            },
        )

    def test_comments_and_strings_are_not_code(self):
        result = self.lint("src/core/monitor.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_lint_allow_suppresses_the_annotated_include(self):
        result = self.lint("src/core/controller.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_files_outside_the_adversary_are_not_linted(self):
        result = self.lint("src/core/experiment.cpp")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_scope_names_existing_files_of_the_tree(self):
        adversary = import_h2lint("adversary")
        for rel in sorted(adversary.ADVERSARY_FILES):
            self.assertTrue((REPO / rel).is_file(), rel)


class RngForkFixture(unittest.TestCase):
    ROOT = FIXTURES / "rngfork"

    def test_parent_stream_uses_inside_the_spawn_extent_fire(self):
        result = run_h2lint("--root", str(self.ROOT), "--rules", "rng-fork")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            findings(result.stdout),
            {
                ("src/core/bad_fork.cpp", 9, "rng-fork"),  # [&rng] capture
                ("src/core/bad_fork.cpp", 10, "rng-fork"),  # rng.next() draw
            },
        )

    def test_forked_child_is_clean(self):
        result = run_h2lint(
            "--root", str(self.ROOT), "--rules", "rng-fork",
            "src/core/good_fork.cpp",
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_lint_allow_suppresses_annotated_uses(self):
        result = run_h2lint(
            "--root", str(self.ROOT), "--rules", "rng-fork",
            "src/core/suppressed_fork.cpp",
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


class RealTree(unittest.TestCase):
    def test_repo_is_clean_under_all_rules(self):
        result = run_h2lint("--root", str(REPO))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_repo_src_is_clean_under_the_text_engine(self):
        result = run_h2lint(
            "--root", str(REPO), "--engine", "text",
            "--rules", ",".join(DETERMINISM_RULES),
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_list_rules_names_all_eleven(self):
        result = run_h2lint("--list-rules")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        listed = {line.split(":")[0] for line in result.stdout.splitlines() if line}
        self.assertEqual(
            listed,
            set(DETERMINISM_RULES) | {ADVERSARY_RULE} | set(WHOLE_PROGRAM_RULES),
        )

    def test_explain_dag_covers_every_module(self):
        result = run_h2lint("--explain-dag")
        self.assertEqual(result.returncode, 0)
        for module in ("sim", "tcp", "tls", "h2", "hpack", "net", "web",
                       "client", "server", "analysis", "core", "capture",
                       "corpus", "defense"):
            self.assertIn(f"  {module}:", result.stdout)

    def test_unknown_rule_is_a_setup_error(self):
        result = run_h2lint("--rules", "no-such-rule")
        self.assertEqual(result.returncode, 2)

    def test_forced_ast_engine_without_compile_db_is_a_setup_error(self):
        result = run_h2lint(
            "--root", str(REPO), "--engine", "ast",
            "--compile-db", "/nonexistent/compile_commands.json",
        )
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)


class Injection(unittest.TestCase):
    """The gate must gate: a violation injected into a scratch tree must
    flip the exit code (the same self-checks CI runs for the semantic
    rules)."""

    def test_injected_layering_violation_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            dst = root / "src" / "tls"
            dst.mkdir(parents=True)
            (dst / "probe.cpp").write_text(
                "#include \"h2priv/tcp/segment.hpp\"\n"
            )
            self.assertEqual(
                run_h2lint("--root", str(root), "--rules", "layering").returncode,
                0,
            )
            with open(dst / "probe.cpp", "a") as f:
                f.write("#include \"h2priv/corpus/store.hpp\"\n")
            result = run_h2lint("--root", str(root), "--rules", "layering")
            self.assertEqual(result.returncode, 1)
            self.assertIn("[layering]", result.stdout)
            self.assertIn("edge tls -> corpus", result.stdout)

    def test_injected_core_capture_include_fails(self):
        # core simulates and scores; the .h2t format sits below it and
        # record/replay above it, so no core file may include capture.
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            dst = root / "src" / "core"
            dst.mkdir(parents=True)
            (dst / "probe.cpp").write_text(
                "#include \"h2priv/analysis/observation.hpp\"\n"
            )
            self.assertEqual(
                run_h2lint("--root", str(root), "--rules", "layering").returncode,
                0,
            )
            with open(dst / "probe.cpp", "a") as f:
                f.write("#include \"h2priv/capture/trace_writer.hpp\"\n")
            result = run_h2lint("--root", str(root), "--rules", "layering")
            self.assertEqual(result.returncode, 1)
            self.assertIn("edge core -> capture", result.stdout)

    def test_injected_adversary_plaintext_violation_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            dst = root / "src" / "core"
            dst.mkdir(parents=True)
            (dst / "monitor.cpp").write_text(
                "#include \"h2priv/tcp/segment.hpp\"\n"
            )
            rules = ("--rules", ADVERSARY_RULE)
            self.assertEqual(run_h2lint("--root", str(root), *rules).returncode, 0)
            with open(dst / "monitor.cpp", "a") as f:
                f.write("#include \"h2priv/h2/frame.hpp\"\n")
            result = run_h2lint("--root", str(root), *rules)
            self.assertEqual(result.returncode, 1)
            self.assertIn("src/core/monitor.cpp:2: [adversary-plaintext]", result.stdout)

    def test_injected_rng_fork_violation_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            dst = root / "src" / "sim"
            dst.mkdir(parents=True)
            (dst / "spawn.cpp").write_text(
                "void run_all(sim::Rng& rng, int n) {\n"
                "  for (int i = 0; i < n; ++i) use(rng.next());\n"
                "}\n"
            )
            self.assertEqual(
                run_h2lint("--root", str(root), "--rules", "rng-fork").returncode,
                0,
            )
            (dst / "spawn.cpp").write_text(
                "void run_all(sim::Rng& rng, int n) {\n"
                "  std::thread worker([&rng] { use(rng.next()); });\n"
                "  worker.join();\n"
                "}\n"
            )
            result = run_h2lint("--root", str(root), "--rules", "rng-fork")
            self.assertEqual(result.returncode, 1)
            self.assertIn("[rng-fork]", result.stdout)


@unittest.skipUnless(have_libclang(), "libclang Python bindings not available")
class AstEngine(unittest.TestCase):
    """The two regex blind spots the AST engine exists to close, and an
    alias that hides tls::OpenContext from the adversary-plaintext text
    engine. CI installs libclang and runs these; locally they skip."""

    ROOT = FIXTURES / "ast"

    def _compile_db(self, tmp):
        inc = self.ROOT / "src" / "obs" / "include"
        entries = [
            {
                "directory": str(self.ROOT),
                "file": str(self.ROOT / "src" / "sim" / name),
                "command": f"c++ -std=c++17 -I{inc} -c src/sim/{name}",
            }
            for name in ("uses_alias.cpp", "multiline_clock.cpp")
        ]
        db = Path(tmp) / "compile_commands.json"
        db.write_text(json.dumps(entries))
        return db

    def test_alias_of_unordered_map_fires_at_the_use_site(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_h2lint(
                "--root", str(self.ROOT), "--engine", "ast",
                "--compile-db", str(self._compile_db(tmp)),
                "--rules", ",".join(DETERMINISM_RULES),
            )
            self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
            self.assertIn(
                ("src/sim/uses_alias.cpp", 8, "unordered-container"),
                findings(result.stdout),
            )

    def test_multiline_clock_call_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_h2lint(
                "--root", str(self.ROOT), "--engine", "ast",
                "--compile-db", str(self._compile_db(tmp)),
                "--rules", ",".join(DETERMINISM_RULES),
            )
            got = findings(result.stdout)
            clock = {
                (p, line, rule)
                for (p, line, rule) in got
                if p == "src/sim/multiline_clock.cpp" and rule == "wall-clock"
            }
            self.assertTrue(clock, f"no wall-clock finding in {got}")

    def test_alias_of_open_context_fires_in_an_adversary_file(self):
        inc = self.ROOT / "src" / "tls" / "include"
        entries = [
            {
                "directory": str(self.ROOT),
                "file": str(self.ROOT / "src" / "core" / "attack.cpp"),
                "command": f"c++ -std=c++17 -I{inc} -c src/core/attack.cpp",
            }
        ]
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "compile_commands.json"
            db.write_text(json.dumps(entries))
            result = run_h2lint(
                "--root", str(self.ROOT), "--engine", "ast",
                "--compile-db", str(db), "--rules", ADVERSARY_RULE,
            )
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(
            ("src/core/attack.cpp", 8, ADVERSARY_RULE), findings(result.stdout)
        )

    def test_text_engine_misses_both_blind_spots(self):
        result = run_h2lint(
            "--root", str(self.ROOT), "--engine", "text",
            "--rules", ",".join(DETERMINISM_RULES),
        )
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
