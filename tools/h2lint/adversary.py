"""Rule `adversary-plaintext`: the adversary's code reads no plaintext.

The paper's on-path adversary sees what tshark's `ssl.record.content_type`
filter sees: record types and lengths, never a decrypted byte (DESIGN.md
§5, item 4). TLS record bodies carry plaintext under a 16-byte integrity
tag (src/tls/record.cpp), so this rule, not a cipher, keeps the adversary
off it. It is file-level: the adversary's files (TrafficMonitor,
ObjectPredictor, Attack, NetworkController and analysis::MonitorStream,
sources and headers)

  - may include no `h2priv/h2/` or `h2priv/hpack/` header: decoding frames
    or header blocks is what reading plaintext looks like, and
  - may never name `tls::OpenContext` or `tls::Session`, the two types that
    hand out record plaintext.

The module-level `layering` rule cannot say this: core and analysis
legitimately depend on h2 (ground truth, Topology).

Both engines run it. The text engine below matches includes on
comment-stripped lines and the two type names on comment/string-stripped
code. The AST engine (ast_rules.py) checks the includes each translation
unit records for these files, and every cursor whose referenced declaration
or canonical type is one of the two types, so an alias or a `using`
directive cannot hide them.
"""

from __future__ import annotations

import re
from pathlib import Path

from .source import Finding, SourceFile

RULE = "adversary-plaintext"

_CORE_PARTS = ("monitor", "predictor", "attack", "controller")
ADVERSARY_FILES = frozenset(
    {
        *(f"src/core/{part}.cpp" for part in _CORE_PARTS),
        *(f"src/core/include/h2priv/core/{part}.hpp" for part in _CORE_PARTS),
        "src/analysis/monitor_stream.cpp",
        "src/analysis/include/h2priv/analysis/monitor_stream.hpp",
    }
)

MESSAGE = (
    "adversary code includes an h2/ or hpack/ header or names "
    "tls::OpenContext/tls::Session (the on-path observer sees record types "
    "and lengths, never plaintext)"
)

# Text engine: the include path (strings kept) and the type names, qualified
# or not (code only).
INCLUDE_RE = re.compile(r"#include\s+\"h2priv/(h2|hpack)/")
NAME_RE = re.compile(r"\b(?:OpenContext|Session)\b")
# AST engine: an included file's path, and a fully qualified declaration or
# canonical type spelling.
HEADER_PATH_RE = re.compile(r"(^|/)h2priv/(h2|hpack)/")
QUALIFIED_RE = re.compile(r"\bh2priv::tls::(?:OpenContext|Session)\b")


def in_scope(rel: str) -> bool:
    return rel in ADVERSARY_FILES


def check(root: Path, rels: list[str]) -> list[Finding]:
    """The text engine over the adversary files among `rels`."""
    findings: list[Finding] = []
    for rel in rels:
        if not in_scope(rel):
            continue
        sf = SourceFile(root, rel)
        for lineno, (text, code) in enumerate(zip(sf.text_lines, sf.code_lines), 1):
            if RULE in sf.allowed(lineno):
                continue
            if INCLUDE_RE.search(text) or NAME_RE.search(code):
                findings.append(Finding(rel, lineno, RULE, MESSAGE))
    return findings
