"""The six determinism rules (DESIGN.md §7) and the adversary-plaintext
rule at the AST/type level.

Rule ids, scopes and messages come from the one rule table,
determinism.RULES, and from adversary.py, whose text engines also run them.
What changes is *how* a violation is recognized:

  - Types are matched on their **canonical** spelling, so a typedef or
    alias of std::unordered_map is caught at the use site even when the
    alias was declared in an exempt header (the text engine's
    typedef/alias blind spot).
  - Calls and declarations are matched on **cursors**, whose extents span
    physical lines, so `std::chrono::\n  steady_clock::now()` is caught
    (the text engine's multi-line blind spot).
  - An adversary file's includes are read from the translation unit, and a
    plaintext type is matched on the declaration a cursor references or on
    its canonical type, so an alias of tls::OpenContext is caught too.

Findings are attributed to the file and line of the cursor location, and
honor the shared `// lint:allow(<rule>)` syntax by consulting the raw
source line. Header findings are deduplicated across translation units.

This module imports the backend lazily-by-construction: it is only loaded
by the CLI when ast_backend.available() is True.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import adversary, ast_backend
from .determinism import RULES, SIM_CRITICAL, THREAD_LOCAL_EXEMPT, in_dirs
from .source import Finding, SourceFile

WALL_CLOCK_FNS = {
    "time",
    "clock",
    "gettimeofday",
    "clock_gettime",
    "localtime",
    "gmtime",
}
WALL_CLOCK_TYPES = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
)
AMBIENT_RNG_FNS = {"rand", "srand", "random"}
RNG_ENGINE_TYPES = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(24|48)(_base)?|knuth_b)\b"
)
RANDOM_DEVICE = re.compile(r"std::random_device\b")
UNORDERED = re.compile(r"std::(__\w+::)?unordered_(map|set|multimap|multiset)<")
POINTER_KEYED = re.compile(
    r"std::(__\w+::)?(map|set|multimap|multiset)<[^<>,]*\*\s*[,>]"
)

class AstLinter:
    def __init__(self, root: Path, compile_db: Path):
        self.root = root
        self.db = ast_backend.load_compile_db(compile_db)
        self._sources: dict[str, SourceFile] = {}
        self._findings: set[Finding] = set()
        self.parse_failures: list[str] = []

    def _rel(self, location) -> str | None:
        if location.file is None:
            return None
        try:
            return str(Path(str(location.file)).resolve().relative_to(self.root))
        except ValueError:
            return None

    def _source(self, rel: str) -> SourceFile:
        if rel not in self._sources:
            self._sources[rel] = SourceFile(self.root, rel)
        return self._sources[rel]

    def _report(self, rule: str, location) -> None:
        rel = self._rel(location)
        if rel is None or not rel.startswith("src/"):
            return
        line = location.line
        if rule in self._source(rel).allowed(line):
            return
        message = adversary.MESSAGE if rule == adversary.RULE else RULES[rule]["message"]
        self._findings.add(Finding(rel, line, rule, message))

    # --- per-cursor checks --------------------------------------------------

    def _check_call(self, cursor, rel: str) -> None:
        ref = cursor.referenced
        name = ref.spelling if ref is not None else cursor.spelling
        qualified = ast_backend.fully_qualified(ref) if ref is not None else name
        if name in WALL_CLOCK_FNS and "::" not in qualified.replace(name, ""):
            self._report("wall-clock", cursor.location)
        if WALL_CLOCK_TYPES.search(qualified):
            self._report("wall-clock", cursor.location)
        if name in AMBIENT_RNG_FNS and qualified in (name, "std::" + name):
            self._report("unseeded-rng", cursor.location)

    def _check_decl_type(self, cursor, rel: str) -> None:
        canonical = cursor.type.get_canonical().spelling if cursor.type else ""
        if RANDOM_DEVICE.search(canonical):
            self._report("unseeded-rng", cursor.location)
        if RNG_ENGINE_TYPES.search(canonical):
            # Engine constructed without arguments = default seed.
            kinds = ast_backend.CINDEX.CursorKind
            args = [
                c
                for c in cursor.get_children()
                if c.kind
                not in (kinds.TYPE_REF, kinds.NAMESPACE_REF, kinds.TEMPLATE_REF)
            ]
            if not args:
                self._report("unseeded-rng", cursor.location)
        if in_dirs(rel, SIM_CRITICAL):
            if UNORDERED.search(canonical):
                self._report("unordered-container", cursor.location)
            if POINTER_KEYED.search(canonical):
                self._report("pointer-keyed-container", cursor.location)

    def _check_thread_local(self, cursor, rel: str) -> None:
        if in_dirs(rel, THREAD_LOCAL_EXEMPT):
            return
        try:
            tokens = [t.spelling for t in cursor.get_tokens()]
        except Exception:  # noqa: BLE001 - token range can be invalid in PCH edges
            return
        if "thread_local" in tokens:
            self._report("thread-local", cursor.location)

    def _check_float_in_merge(self, cursor) -> None:
        kinds = ast_backend.CINDEX.CursorKind
        for c in cursor.walk_preorder():
            if c.kind in (kinds.VAR_DECL, kinds.PARM_DECL, kinds.FIELD_DECL):
                canonical = c.type.get_canonical().spelling if c.type else ""
                if re.search(r"\b(float|double)\b", canonical):
                    self._report("float-merge-accum", c.location)

    def _check_adversary_includes(self, tu) -> None:
        for inc in tu.get_includes():
            rel = self._rel(inc.location)
            if rel is None or not adversary.in_scope(rel):
                continue
            if adversary.HEADER_PATH_RE.search(str(inc.include.name)):
                self._report(adversary.RULE, inc.location)

    def _check_plaintext_type(self, cursor) -> None:
        ref = cursor.referenced
        named = ast_backend.fully_qualified(ref) if ref is not None else ""
        canonical = cursor.type.get_canonical().spelling if cursor.type else ""
        if any(adversary.QUALIFIED_RE.search(s) for s in (named, canonical)):
            self._report(adversary.RULE, cursor.location)

    # --- TU walk ------------------------------------------------------------

    def lint_tu(self, tu) -> None:
        kinds = ast_backend.CINDEX.CursorKind
        self._check_adversary_includes(tu)
        for cursor in tu.cursor.walk_preorder():
            rel = self._rel(cursor.location)
            if rel is None or not rel.startswith("src/"):
                continue
            if adversary.in_scope(rel):
                self._check_plaintext_type(cursor)
            if cursor.kind == kinds.CALL_EXPR:
                self._check_call(cursor, rel)
            elif cursor.kind in (
                kinds.VAR_DECL,
                kinds.FIELD_DECL,
                kinds.PARM_DECL,
                kinds.TYPEDEF_DECL,
                kinds.TYPE_ALIAS_DECL,
            ):
                self._check_decl_type(cursor, rel)
                if cursor.kind == kinds.VAR_DECL:
                    self._check_thread_local(cursor, rel)
            elif cursor.kind in (
                kinds.FUNCTION_DECL,
                kinds.CXX_METHOD,
            ) and "merge" in cursor.spelling.lower():
                if cursor.is_definition():
                    self._check_float_in_merge(cursor)

    def run(self) -> list[Finding]:
        """Parses every src/ TU in the compile database and lints it.
        Headers are reached through their including TUs; the CLI filters
        findings when explicit paths were requested."""
        for file, args in sorted(self.db.items()):
            try:
                rel = str(Path(file).resolve().relative_to(self.root))
            except ValueError:
                continue
            if not rel.startswith("src/"):
                continue
            tu = ast_backend.parse(Path(file), args)
            if tu is None:
                self.parse_failures.append(rel)
                continue
            self.lint_tu(tu)
        return sorted(self._findings, key=lambda f: (f.path, f.line, f.rule))
