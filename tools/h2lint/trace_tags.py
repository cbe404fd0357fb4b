"""Rule `h2t-tags`: .h2t section-tag and flag-bit uniqueness + reader drift.

The .h2t container evolves additively: unknown section ids are skipped by
readers, and single-byte flag fields grow one bit at a time (the defense
block claimed meta bit 0x20 in PR 8; the fleet work will claim packet
bits next). Nothing in the compiler stops two writers claiming the same
tag or bit — the file still round-trips, it just silently conflates two
meanings. This rule makes a claim collision a lint failure:

  - `Section` enumerator values in trace_format.hpp must be unique, and
    none may intersect kSectionCompressedFlag (the v2 trailer bit that
    marks a compressed payload).
  - Every `flags |= <literal>` accumulation run in src/capture/*.cpp must
    use distinct single-bit literals (a run = the statements between one
    `flags = 0` reset and the next).
  - Every bit a writer sets must be examined by at least one reader
    (`flags & <literal>` somewhere in src/capture): a claimed bit with no
    reader is either dead or — worse — about to be re-claimed by someone
    who greps for readers and finds none.
"""

from __future__ import annotations

import re
from pathlib import Path

from .source import Finding, SourceFile, matching_bracket

RULE = "h2t-tags"

TRACE_FORMAT_HPP = "src/capture/include/h2priv/capture/trace_format.hpp"
WRITER_GLOB = "src/capture"

SECTION_ENUM_RE = re.compile(r"enum\s+class\s+Section\s*:\s*[\w:]+\s*\{")
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)(?:\s*=\s*([0-9][0-9a-fA-Fx']*))?\s*,", re.M)
COMPRESSED_FLAG_RE = re.compile(
    r"kSectionCompressedFlag\s*=\s*([0-9][0-9a-fA-Fx'u]*)"
)
FLAG_RESET_RE = re.compile(r"\bflags\s*=\s*0\s*;")
FLAG_OR_RE = re.compile(r"\bflags\s*\|=\s*(0[xX][0-9a-fA-F']+|\d+)")
FLAG_MASK_RE = re.compile(r"\bflags\s*&\s*(0[xX][0-9a-fA-F']+|\d+)")


def _int(literal: str) -> int:
    return int(literal.replace("'", "").rstrip("uUlL"), 0)


def parse_sections(sf: SourceFile) -> list[tuple[str, int, int]]:
    """[(member, value, line)] of the Section enum (implicit values count
    up from the previous explicit one, as in C++)."""
    code = sf.code()
    m = SECTION_ENUM_RE.search(code)
    if m is None:
        return []
    open_idx = m.end() - 1
    body = code[open_idx : matching_bracket(code, open_idx) + 1]
    out: list[tuple[str, int, int]] = []
    next_value = 0
    for mm in ENUMERATOR_RE.finditer(body):
        value = _int(mm.group(2)) if mm.group(2) else next_value
        next_value = value + 1
        out.append((mm.group(1), value, sf.line_of(open_idx + mm.start(1))))
    return out


def check(root: Path) -> list[Finding]:
    """Whole-program: always scans the full capture module."""
    fmt_path = root / TRACE_FORMAT_HPP
    if not fmt_path.is_file():
        return []  # tree without a trace format (fixture roots): nothing to check
    fmt = SourceFile(root, TRACE_FORMAT_HPP)
    findings: list[Finding] = []

    def report(sf: SourceFile, line: int, message: str) -> None:
        if RULE not in sf.allowed(line):
            findings.append(Finding(sf.rel, line, RULE, message))

    # Section-tag uniqueness + compressed-flag separation.
    sections = parse_sections(fmt)
    by_value: dict[int, str] = {}
    flag_m = COMPRESSED_FLAG_RE.search(fmt.code())
    compressed_flag = _int(flag_m.group(1)) if flag_m else 0
    if compressed_flag and compressed_flag & (compressed_flag - 1):
        report(
            fmt,
            fmt.line_of(flag_m.start()),
            f"kSectionCompressedFlag {hex(compressed_flag)} is not a single "
            "bit",
        )
    for member, value, line in sections:
        if value in by_value:
            report(
                fmt,
                line,
                f"section tag collision: {member} and {by_value[value]} both "
                f"claim id {value}",
            )
        by_value.setdefault(value, member)
        if compressed_flag and value & compressed_flag:
            report(
                fmt,
                line,
                f"section id of {member} intersects kSectionCompressedFlag "
                f"({hex(compressed_flag)}): a reader cannot tell the base id "
                "from the compression marker",
            )

    # Flag-bit accumulation runs in the capture writers/readers.
    cpp_files = sorted(
        str(f.relative_to(root)) for f in (root / WRITER_GLOB).glob("*.cpp")
    )
    written: dict[int, tuple[str, int]] = {}  # bit -> first (file, line) writer
    masked: set[int] = set()
    for rel in cpp_files:
        sf = SourceFile(root, rel)
        run_bits: dict[int, int] = {}  # bit -> line of first claim in this run
        for lineno, code in enumerate(sf.code_lines, 1):
            if FLAG_RESET_RE.search(code):
                run_bits = {}
            for m in FLAG_MASK_RE.finditer(code):
                masked.add(_int(m.group(1)))
            for m in FLAG_OR_RE.finditer(code):
                bit = _int(m.group(1))
                if bit == 0 or bit & (bit - 1):
                    report(
                        sf,
                        lineno,
                        f"flags |= {m.group(1)} is not a single bit (flag "
                        "fields grow one claimed bit at a time)",
                    )
                    continue
                if bit in run_bits:
                    report(
                        sf,
                        lineno,
                        f"flag bit {hex(bit)} claimed twice in one "
                        f"accumulation run (first at line {run_bits[bit]}): "
                        "two meanings collide on the wire",
                    )
                run_bits.setdefault(bit, lineno)
                written.setdefault(bit, (rel, lineno))

    # Writer/reader drift: every written bit needs a reader-side mask.
    for bit, (rel, lineno) in sorted(written.items()):
        if bit not in masked:
            sf = SourceFile(root, rel)
            report(
                sf,
                lineno,
                f"flag bit {hex(bit)} is written but no reader in "
                "src/capture masks it (`flags & ...`): dead or silently "
                "re-claimable",
            )
    return findings
