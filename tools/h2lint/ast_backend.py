"""Optional libclang backend.

Loads clang.cindex if the Python bindings and a libclang shared object are
present; otherwise available() is False and the CLI degrades to the text
engine (determinism.py) for the six determinism rules. CI
installs the bindings and passes --strict, which makes a missing backend a
hard error there — locally the degradation is silent-but-announced.

Translation units come from compile_commands.json so every file is parsed
with the flags it actually builds with (include paths, -std=, defines).
"""

from __future__ import annotations

import json
from pathlib import Path

try:  # pragma: no cover - exercised only where libclang is installed
    from clang import cindex as _cindex

    try:
        _cindex.Index.create()
        CINDEX = _cindex
    except Exception:  # noqa: BLE001 - bindings installed but no libclang.so
        CINDEX = None
except ImportError:
    CINDEX = None


def available() -> bool:
    return CINDEX is not None


def load_compile_db(path: Path) -> dict[str, list[str]]:
    """file (absolute path) -> compiler args, from compile_commands.json."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    db: dict[str, list[str]] = {}
    for entry in entries:
        file = str((Path(entry["directory"]) / entry["file"]).resolve())
        if "arguments" in entry:
            args = list(entry["arguments"])
        else:
            args = entry["command"].split()
        # Drop the compiler itself, the input file, and -o/-c plumbing:
        # libclang wants only the front-end flags.
        cleaned: list[str] = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a == entry["file"] or a == file:
                continue
            cleaned.append(a)
        db[file] = cleaned
    return db


def parse(file: Path, args: list[str]):
    """Parse one TU; returns the TranslationUnit or None on hard failure."""
    index = CINDEX.Index.create()
    try:
        tu = index.parse(
            str(file),
            args=args,
            options=CINDEX.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
        )
    except CINDEX.TranslationUnitLoadError:
        return None
    return tu


def fully_qualified(cursor) -> str:
    """`a::b::name` via semantic parents (namespaces/classes only)."""
    parts = []
    c = cursor
    while c is not None and c.kind != CINDEX.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))
