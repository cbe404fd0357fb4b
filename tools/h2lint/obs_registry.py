"""Rule `obs-registry`: Counter/Gauge/Hist enum <-> export-name consistency.

METRICS_JSON is a CI-diffed byte surface: bench baselines, the perf gate
and the --jobs invariance tests all compare exported counter names and
values verbatim. Four failure modes are invisible to a regex linter
because they span two files:

  1. enum/name-array length drift — adding an enum member without the
     matching name shifts every later name one slot (silent relabeling).
  2. duplicate export names — two counters folded under one JSON key.
  3. name drift — the exported string no longer derives from the enum
     member, so grepping one finds the other no more.
  4. dead counters — an enum member no instrumentation point increments:
     the registry claims an observable that is always zero.

The canonical name of `kTcpSegmentsSent` is `tcp.segments_sent`: drop the
`k`, split CamelCase, first token is the layer, the rest joins with `_`
(gauges append `_max` — only the maximum is well-defined across workers).
ACRONYMS holds the tokens whose canonical form does not split (GoAway is
one RFC 7540 frame name, not two words).

Counters referenced only inside metrics.hpp mapping helpers (e.g.
h2_frame_sent_counter's contiguous kH2DataSent..kH2OtherSent block) count
as incremented: the inclusive enum range between the anchors a helper names
is block-covered, PER HELPER BODY — ranges never span from one helper's
anchors to another's, so counters that merely sit between two unrelated
blocks in the enum stay visible to the dead-counter check.
"""

from __future__ import annotations

import re
from pathlib import Path

from .source import Finding, SourceFile, iter_source_files, matching_bracket

RULE = "obs-registry"

METRICS_HPP = "src/obs/include/h2priv/obs/metrics.hpp"
EXPORT_CPP = "src/obs/export.cpp"

# Multi-word tokens that stay joined in the canonical snake_case name.
ACRONYMS = {("go", "away"): "goaway"}

ENUM_RE = re.compile(
    r"enum\s+class\s+(Counter|Gauge|Hist)\s*:\s*[\w:]+\s*\{", re.S
)
MEMBER_RE = re.compile(r"^\s*(k\w+)\s*,", re.M)
ARRAY_RE = re.compile(r"k(Counter|Gauge|Hist)Names\s*=\s*\{")
STRING_RE = re.compile(r'"([a-z0-9_.]+)"')
COUNTER_REF_RE = re.compile(r"Counter::(k\w+)")


def camel_tokens(member: str) -> list[str]:
    """`kTcpSegmentsSent` -> ['tcp', 'segments', 'sent'] (H2 is one token)."""
    body = member[1:] if member.startswith("k") else member
    tokens = [t.lower() for t in re.findall(r"[A-Z][a-z0-9]*", body)]
    out: list[str] = []
    i = 0
    while i < len(tokens):
        for merged, joined in ACRONYMS.items():
            if tuple(tokens[i : i + len(merged)]) == merged:
                out.append(joined)
                i += len(merged)
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


def canonical_name(member: str, kind: str) -> str:
    tokens = camel_tokens(member)
    name = f"{tokens[0]}.{'_'.join(tokens[1:])}"
    return name + "_max" if kind == "Gauge" else name


def parse_enums(sf: SourceFile) -> dict[str, list[tuple[str, int]]]:
    """kind -> ordered [(member, line)] excluding the kCount sentinel."""
    code = sf.code()
    enums: dict[str, list[tuple[str, int]]] = {}
    for m in ENUM_RE.finditer(code):
        open_idx = m.end() - 1
        body = code[open_idx : matching_bracket(code, open_idx) + 1]
        members = [
            (mm.group(1), sf.line_of(open_idx + mm.start(1)))
            for mm in MEMBER_RE.finditer(body)
            if mm.group(1) != "kCount"
        ]
        enums[m.group(1)] = members
    return enums


def parse_name_arrays(sf: SourceFile) -> dict[str, tuple[int, list[tuple[str, int]]]]:
    """kind -> (decl line, ordered [(name, line)])."""
    code = sf.text()  # names live inside string literals
    arrays: dict[str, tuple[int, list[tuple[str, int]]]] = {}
    for m in ARRAY_RE.finditer(code):
        open_idx = m.end() - 1
        body = code[open_idx : matching_bracket(code, open_idx) + 1]
        names = [
            (mm.group(1), sf.line_of_text(open_idx + mm.start(1)))
            for mm in STRING_RE.finditer(body)
        ]
        arrays[m.group(1)] = (sf.line_of_text(m.start()), names)
    return arrays


HELPER_BODY_RE = re.compile(r"\)\s*(?:const\s*)?(?:noexcept\s*)?\{")


def block_covered(sf: SourceFile, enums: dict[str, list[tuple[str, int]]]) -> set[str]:
    """Counter members covered by mapping helpers in metrics.hpp: the
    inclusive enum range between the anchors each helper references,
    computed per function body so two unrelated helpers never fuse into
    one range that swallows every counter declared between them."""
    counters = [m for m, _ in enums.get("Counter", [])]
    index = {m: i for i, m in enumerate(counters)}
    code = sf.code()
    covered: set[str] = set()
    for h in HELPER_BODY_RE.finditer(code):
        open_idx = h.end() - 1
        body = code[open_idx : matching_bracket(code, open_idx) + 1]
        anchors = [
            index[m.group(1)]
            for m in COUNTER_REF_RE.finditer(body)
            if m.group(1) in index
        ]
        if anchors:
            covered.update(counters[min(anchors) : max(anchors) + 1])
    return covered


def check(root: Path) -> list[Finding]:
    """Whole-program: always scans the full tree regardless of path args."""
    if not (root / METRICS_HPP).is_file() or not (root / EXPORT_CPP).is_file():
        return []  # tree without an obs registry (fixture roots): nothing to check
    metrics = SourceFile(root, METRICS_HPP)
    export = SourceFile(root, EXPORT_CPP)
    enums = parse_enums(metrics)
    arrays = parse_name_arrays(export)
    findings: list[Finding] = []

    def report(sf: SourceFile, line: int, message: str) -> None:
        if RULE not in sf.allowed(line):
            findings.append(Finding(sf.rel, line, RULE, message))

    registered: set[str] = set()
    for kind in ("Counter", "Gauge", "Hist"):
        members = enums.get(kind, [])
        decl_line, names = arrays.get(kind, (1, []))
        registered.update(n for n, _ in names)
        if len(members) != len(names):
            report(
                export,
                decl_line,
                f"k{kind}Names has {len(names)} entries but enum {kind} has "
                f"{len(members)} members (positional drift relabels every "
                "later export)",
            )
            continue
        seen: dict[str, int] = {}
        for (member, _), (name, name_line) in zip(members, names):
            if name in seen:
                report(
                    export,
                    name_line,
                    f'export name "{name}" is claimed twice (also line '
                    f"{seen[name]}): two {kind.lower()}s fold under one "
                    "JSON key",
                )
            seen[name] = name_line
            expected = canonical_name(member, kind)
            if name != expected:
                report(
                    export,
                    name_line,
                    f'{kind} {member} exports as "{name}" but its canonical '
                    f'name is "{expected}" (string-key drift between '
                    "metrics.hpp and export.cpp)",
                )

    # Dead counters: never referenced outside the registry pair and not
    # block-covered by a metrics.hpp mapping helper.
    counters = enums.get("Counter", [])
    covered = block_covered(metrics, enums)
    unseen = {m: line for m, line in counters if m not in covered}
    if unseen:
        scan = iter_source_files(root) + iter_source_files(root, "bench")
        for rel in scan:
            if rel in (METRICS_HPP, EXPORT_CPP) or not unseen:
                continue
            for m in COUNTER_REF_RE.finditer(SourceFile(root, rel).code()):
                unseen.pop(m.group(1), None)
        for member, line in sorted(unseen.items(), key=lambda kv: kv[1]):
            report(
                metrics,
                line,
                f"Counter {member} is never incremented anywhere in src/ or "
                "bench/ (a registered observable that is always zero)",
            )

    # String-key drift: a metric-shaped literal in src/ that is not a
    # registered name means someone hard-coded (or typo'd) an export key.
    layers = {n.split(".", 1)[0] for n in registered}
    key_re = re.compile(
        r'"((?:' + "|".join(sorted(layers)) + r')\.[a-z0-9_]+)"'
    ) if layers else None
    if key_re is not None:
        for rel in iter_source_files(root):
            if rel in (METRICS_HPP, EXPORT_CPP):
                continue
            sf = SourceFile(root, rel)
            for lineno, line in enumerate(sf.text_lines, 1):
                for m in key_re.finditer(line):
                    if m.group(1) not in registered and RULE not in sf.allowed(
                        lineno
                    ):
                        findings.append(
                            Finding(
                                rel,
                                lineno,
                                RULE,
                                f'string literal "{m.group(1)}" looks like a '
                                "metric key but no Counter/Gauge/Hist exports "
                                "that name",
                            )
                        )
    return findings
