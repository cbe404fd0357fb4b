#!/usr/bin/env python3
"""Lists the h2priv library functions that no executable links.

Build the tree at -O0 with -ffunction-sections and link it with
-Wl,--gc-sections: every function then lives in its own section, the linker
drops each section no executable reaches, and nothing is inlined away (at
-O2 a private helper folded into its only caller looks dead). Then run

    python3 tools/dead_code.py BUILD_DIR [BUILD_DIR ...]

The tool reads every libh2priv_*.a archive and every ELF executable under
the given directories with nm. It prints each h2priv:: function that an
archive defines and no executable contains, demangled and grouped by the
object file that defines it. Overloads and constructor/destructor variants
are compared by their demangled signature.

Exit status: 0 when every such function is on ALLOWLIST, 1 when one is not
or when an ALLOWLIST entry is no longer a dead function, 2 when a build
directory holds no archive or no executable.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# Functions no production binary links that stay anyway, each with why.
ALLOWLIST: dict[str, str] = {
    "h2priv::capture::TraceFile::TraceFile(std::vector<unsigned char, "
    "std::allocator<unsigned char> >)": (
        "opens an in-memory .h2t image: the hardening tests feed it hostile "
        "bytes through it, and it is the fuzz entry point ROADMAP item 5 needs"
    ),
    "h2priv::client::Browser::progress(unsigned int) const": (
        "the only view of the per-object request and complete times, which "
        "the client tests check"
    ),
    # No production code rebinds a SharedBytes, but a ref-counted handle
    # that copies and moves on construction must assign the same way.
    "h2priv::util::SharedBytes::operator=(h2priv::util::SharedBytes const&)": (
        "copy assignment of a value type whose copy constructor is linked"
    ),
    "h2priv::util::SharedBytes::operator=(h2priv::util::SharedBytes&&)": (
        "move assignment of a value type whose move constructor is linked"
    ),
}

# Mangled names of functions in namespace h2priv, local entities included
# (lambdas and statics inside h2priv functions): _ZN6h2priv..., _ZNK6h2priv...,
# _ZZN6h2priv...
H2PRIV_MANGLED = re.compile(r"^_ZZ?N[rVKRO]*6h2priv")
# nm symbol types of defined code: global, local, weak, indirect.
TEXT_TYPES = frozenset("TtWi")
CLONE_SUFFIX = re.compile(r" \[clone [^\]]*\]")
ARCHIVE_MEMBER = re.compile(r"^(?P<path>.+)\[(?P<member>[^\]]+)\]$")


def nm_symbols(path: Path) -> list[tuple[str, str, str]]:
    """(member, name, type) of every defined symbol in an archive or binary;
    member is the object file inside an archive, "" for an executable."""
    out = subprocess.run(
        ["nm", "--defined-only", "--format=posix", "-A", str(path)],
        check=True, capture_output=True, text=True,
    ).stdout
    symbols = []
    for line in out.splitlines():
        where, _, rest = line.partition(": ")
        fields = rest.split()
        if len(fields) < 2:
            continue
        m = ARCHIVE_MEMBER.match(where)
        symbols.append((m.group("member") if m else "", fields[0], fields[1]))
    return symbols


def demangle(names: set[str]) -> dict[str, str]:
    ordered = sorted(names)
    out = subprocess.run(
        ["c++filt"], input="\n".join(ordered) + "\n",
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return {m: CLONE_SUFFIX.sub("", d) for m, d in zip(ordered, out)}


def is_executable(path: Path) -> bool:
    """An ELF executable (ET_EXEC or PIE ET_DYN) with its execute bit set."""
    if not path.is_file() or not path.stat().st_mode & 0o111:
        return False
    with path.open("rb") as f:
        head = f.read(18)
    return head[:4] == b"\x7fELF" and head[16] in (2, 3)


def scan(build_dirs: list[Path]) -> tuple[list[Path], list[Path]]:
    archives: list[Path] = []
    executables: list[Path] = []
    for root in build_dirs:
        for path in sorted(root.rglob("*")):
            if "CMakeFiles" in path.parts:
                continue  # compiler-identification binaries and objects
            if path.name.startswith("libh2priv_") and path.suffix == ".a":
                archives.append(path)
            elif is_executable(path):
                executables.append(path)
    return archives, executables


def dead_functions(archives: list[Path], executables: list[Path]) -> dict[str, set[str]]:
    """Demangled dead functions keyed by "archive[object]"."""
    defined: dict[str, set[str]] = defaultdict(set)  # mangled -> defining objects
    for archive in archives:
        for member, name, kind in nm_symbols(archive):
            if kind in TEXT_TYPES and H2PRIV_MANGLED.match(name):
                defined[name].add(f"{archive.name}[{member}]")
    linked: set[str] = set()
    for exe in executables:
        linked.update(n for _, n, _ in nm_symbols(exe) if H2PRIV_MANGLED.match(n))

    names = demangle(set(defined) | linked)
    live = {names[n] for n in linked}
    dead: dict[str, set[str]] = defaultdict(set)
    for mangled, objects in defined.items():
        if names[mangled] not in live:
            for obj in objects:
                dead[obj].add(names[mangled])
    return dead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dirs", nargs="+", type=Path,
                        help="build trees to read archives and executables from")
    args = parser.parse_args(argv)

    archives, executables = scan(args.build_dirs)
    if not archives or not executables:
        print(f"dead-code: found {len(archives)} libh2priv_*.a archive(s) and "
              f"{len(executables)} executable(s) under "
              f"{', '.join(map(str, args.build_dirs))}; need at least one of each",
              file=sys.stderr)
        return 2

    dead = dead_functions(archives, executables)
    all_dead = set().union(*dead.values()) if dead else set()
    failed = False
    for obj in sorted(dead):
        unlisted = sorted(f for f in dead[obj] if f not in ALLOWLIST)
        if unlisted:
            failed = True
            print(obj)
            for fn in unlisted:
                print(f"  {fn}")
    for fn, reason in sorted(ALLOWLIST.items()):
        if fn in all_dead:
            print(f"allowed: {fn}: {reason}")
        else:
            failed = True
            print(f"stale allowlist entry (linked, renamed or deleted): {fn}")

    n_unlisted = len(all_dead - set(ALLOWLIST))
    print(f"dead-code: {len(archives)} archive(s), {len(executables)} executable(s); "
          f"{n_unlisted} unlisted dead function(s), {len(all_dead) - n_unlisted} "
          "allowlisted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
