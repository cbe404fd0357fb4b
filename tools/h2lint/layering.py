"""Rule `layering`: the include-layering DAG between src/ modules.

Each src/<module> may `#include "h2priv/<dep>/..."` only along an edge
declared below. The base DAG follows the architecture chain (DESIGN.md
§12):

    util -> sim -> {net, tcp} -> tls -> {hpack, h2}
         -> {web, server, client} -> analysis -> core
         -> capture -> corpus -> defense          (obs: includable anywhere)

`util` and `obs` are ubiquitous plumbing (seed-free helpers, metrics) and
are includable from every module; everything else must name its direct
dependencies here. The base DAG must be acyclic — check_spec_acyclic()
proves it, and the unit tests run it — but a handful of LEGALIZED edges
deliberately cut across the chain; each carries its justification and is
reported by --explain rather than silently merged into the base.

A violating include can be waived in place with `// lint:allow(layering)`,
but the intended fix is either routing through a module that already owns
the edge (e.g. defense reads the adversary catalog through
core::isidewith_catalog(), not web/ directly) or legalizing the edge here
with a justification.
"""

from __future__ import annotations

import re
from pathlib import Path

from .source import Finding, SourceFile, iter_source_files, module_of

RULE = "layering"

# Includable from anywhere: seed-free plumbing and the metrics registry.
UBIQUITOUS = frozenset({"util", "obs"})

# module -> direct dependencies (self, util, obs implied). Keep edges
# minimal: an edge exists because a file needs it today and the
# architecture wants it, not because a layer is "lower".
BASE_DAG: dict[str, frozenset[str]] = {
    "util": frozenset(),
    "obs": frozenset(),
    "sim": frozenset(),
    "hpack": frozenset(),
    "net": frozenset({"sim"}),
    "tcp": frozenset({"sim"}),
    "tls": frozenset({"tcp"}),
    "h2": frozenset({"hpack"}),
    "web": frozenset({"sim"}),
    "client": frozenset({"h2", "tls", "web", "sim"}),
    "server": frozenset({"h2", "tls", "web", "sim", "analysis"}),
    "analysis": frozenset({"h2", "tls", "tcp", "net", "web"}),
    "core": frozenset(
        {"analysis", "server", "client", "web", "tls", "tcp", "net", "sim"}
    ),
    "capture": frozenset({"core", "analysis", "web", "tls", "tcp"}),
    "corpus": frozenset({"capture", "core", "analysis"}),
    "defense": frozenset({"corpus", "core", "capture", "sim"}),
    "fleet": frozenset({"core", "capture", "analysis", "web", "sim"}),
}

# Deliberate cross-chain edges: (from, to) -> justification. These are
# exactly the edges a pure chain cannot express; anything else that wants
# one must argue its case in review, not add an include.
LEGALIZED: dict[tuple[str, str], str] = {
    ("server", "defense"): (
        "defense::DefenseConfig is a passive knob struct the padded sender "
        "consumes; the active grid driver stays on top of the chain"
    ),
    ("capture", "defense"): (
        ".h2t kMeta stores the DefenseConfig a trace was generated under so "
        "replay reproduces defended verdicts without re-running"
    ),
}

INCLUDE_RE = re.compile(r"#include\s+\"h2priv/([A-Za-z0-9_]+)/")


def allowed_deps(module: str) -> frozenset[str]:
    extra = {dst for (src, dst) in LEGALIZED if src == module}
    return BASE_DAG.get(module, frozenset()) | extra | UBIQUITOUS | {module}


def check_spec_acyclic() -> None:
    """Raises ValueError if the *base* DAG has a cycle (legalized edges are
    exempt: each one is argued for in LEGALIZED)."""
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(node: str, stack: tuple[str, ...]) -> None:
        if state.get(node) == 1:
            return
        if state.get(node) == 0:
            cycle = " -> ".join((*stack[stack.index(node):], node))
            raise ValueError(f"layering base DAG has a cycle: {cycle}")
        state[node] = 0
        for dep in BASE_DAG.get(node, frozenset()):
            visit(dep, (*stack, node))
        state[node] = 1

    for module in BASE_DAG:
        visit(module, ())


def check(root: Path, rels: list[str] | None = None) -> list[Finding]:
    check_spec_acyclic()
    findings: list[Finding] = []
    for rel in rels if rels is not None else iter_source_files(root):
        module = module_of(rel)
        if module is None:
            continue
        if module not in BASE_DAG:
            findings.append(
                Finding(
                    rel,
                    1,
                    RULE,
                    f"module '{module}' is not in the layering DAG spec "
                    "(add it to tools/h2lint/layering.py with its "
                    "dependencies)",
                )
            )
            continue
        sf = SourceFile(root, rel)
        deps = allowed_deps(module)
        for lineno, code in enumerate(sf.text_lines, 1):
            m = INCLUDE_RE.search(code)
            if m is None:
                continue
            target = m.group(1)
            if target in deps or RULE in sf.allowed(lineno):
                continue
            findings.append(
                Finding(
                    rel,
                    lineno,
                    RULE,
                    f"edge {module} -> {target} is not in the layering DAG "
                    "(route through a module that owns the edge, or legalize "
                    "it in tools/h2lint/layering.py with a justification)",
                )
            )
    return findings


def explain() -> str:
    """Human-readable spec dump for --explain / DESIGN.md cross-checks."""
    lines = ["base DAG (module: direct deps; self/util/obs implied):"]
    for module in sorted(BASE_DAG):
        deps = ", ".join(sorted(BASE_DAG[module])) or "-"
        lines.append(f"  {module}: {deps}")
    lines.append("legalized cross-chain edges:")
    for (src, dst), why in sorted(LEGALIZED.items()):
        lines.append(f"  {src} -> {dst}: {why}")
    return "\n".join(lines)
