"""Rule `rng-fork`: a sim::Rng& parameter must be fork()ed into parallel work.

A sim::Rng is a mutable stream: two consumers drawing from the same
instance interleave, and when the consumers run on different workers the
interleaving depends on the schedule — exactly the bug class that breaks
--jobs invariance. The house discipline (rng.hpp): a function that takes
`sim::Rng&` and spawns parallel work hands each parallel region an
independent child via `rng.fork()`, never the parent reference.

Detection is function-scoped: inside any function with a `sim::Rng&`
parameter, every use of that parameter inside the argument extent of a
parallel-spawn call (util::parallel_for, run_many, std::thread/jthread,
std::async) must be a `.fork()` call. The extent includes lambdas passed
to the spawn, so capturing the parent by reference is also caught.

This rule is textual but extent-based (brace/paren matching over
comment-stripped code), so a lambda body split over many lines is still
one extent — the determinism text engine's multi-line blind spot does not
apply here.
"""

from __future__ import annotations

import re
from pathlib import Path

from .source import Finding, SourceFile, iter_source_files, matching_bracket

RULE = "rng-fork"

# `sim::Rng& name` (or plain `Rng& name` inside src/sim itself) in a
# parameter list. Rng by value / && is already an independent copy.
RNG_PARAM_RE = re.compile(r"(?:\bsim::)?\bRng\s*&\s*(\w+)\s*[,)]")
# The optional identifier covers named-variable construction:
# `std::thread worker(...)` spawns just as surely as `std::async(...)`.
SPAWN_RE = re.compile(
    r"\b(parallel_for|run_many|std::thread|std::jthread|std::async)"
    r"\s*(?:\w+\s*)?[({]"
)
FN_OPEN_RE = re.compile(r"\)\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>,\s&*]+)?\{")


def _param_extents(code: str) -> list[tuple[int, int, int]]:
    """(param-list start, body start, body end) for every function body."""
    out = []
    for m in FN_OPEN_RE.finditer(code):
        body_open = m.end() - 1
        # Walk back over the parameter list the `)` closes.
        close = m.start()
        depth = 0
        start = 0
        for i in range(close, -1, -1):
            if code[i] == ")":
                depth += 1
            elif code[i] == "(":
                depth -= 1
                if depth == 0:
                    start = i
                    break
        out.append((start, body_open, matching_bracket(code, body_open)))
    return out


def check_file(sf: SourceFile) -> list[Finding]:
    code = sf.code()
    findings: list[Finding] = []
    for params_start, body_open, body_end in _param_extents(code):
        params = code[params_start:body_open]
        rng_names = set(RNG_PARAM_RE.findall(params))
        if not rng_names:
            continue
        body = code[body_open:body_end]
        for spawn in SPAWN_RE.finditer(body):
            open_idx = body_open + spawn.end() - 1
            extent_end = matching_bracket(code, open_idx)
            extent = code[open_idx : extent_end + 1]
            for name in rng_names:
                for use in re.finditer(r"\b" + re.escape(name) + r"\b", extent):
                    tail = extent[use.end() :]
                    if re.match(r"\s*\.\s*fork\s*\(", tail):
                        continue
                    lineno = sf.line_of(open_idx + use.start())
                    if RULE in sf.allowed(lineno):
                        continue
                    findings.append(
                        Finding(
                            sf.rel,
                            lineno,
                            RULE,
                            f"parent sim::Rng '{name}' used inside "
                            f"{spawn.group(1)} without .fork(): parallel "
                            "consumers of one stream make draw order depend "
                            "on the worker schedule",
                        )
                    )
    return findings


def check(root: Path, rels: list[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for rel in rels if rels is not None else iter_source_files(root):
        findings.extend(check_file(SourceFile(root, rel)))
    return findings
