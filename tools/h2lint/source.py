"""Source-file model shared by every h2lint rule.

One comment/string stripper and one `lint:allow` parser serve the
determinism text engine and the whole-program rules alike, so every rule
agrees on what counts as code. The joined views let the whole-program rules
match constructs split across physical lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

ALLOW_RE = re.compile(r"//.*lint:allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


BRACKETS = {"{": "}", "(": ")"}


def matching_bracket(text: str, open_idx: int) -> int:
    """Index of the bracket closing the `{` or `(` at text[open_idx],
    counting nesting of that bracket kind only; len(text) if it never
    closes. The one brace matcher every whole-program rule shares."""
    open_ch = text[open_idx]
    close_ch = BRACKETS[open_ch]
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def strip_code(
    line: str, in_block_comment: bool, keep_strings: bool = False
) -> tuple[str, bool]:
    """Remove comments, and (unless keep_strings) string/char literal
    *contents*, from one line.

    A `'` directly after an alphanumeric character is a C++14 digit
    separator (0x8000'0000u, 1'000), not a char-literal quote: read as a
    quote, it would blank out the rest of the line."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            in_block_comment = False
            i = end + 2
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c == "'" and out and (out[-1].isalnum() or out[-1] == "_"):
            out.append(c)  # digit separator inside a numeric literal
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    if keep_strings:
                        out.append(line[i : i + 2])
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                if keep_strings:
                    out.append(line[i])
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


@dataclass(frozen=True)
class Finding:
    """One rule violation, printed as ``path:line: [rule] message``."""

    path: str  # root-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """A parsed source file: raw lines, comment-stripped code lines, and
    per-line `lint:allow` suppression sets."""

    def __init__(self, root: Path, rel: str):
        self.rel = rel
        self.raw_lines: list[str] = []
        self.code_lines: list[str] = []  # comments + string contents stripped
        self.text_lines: list[str] = []  # comments stripped, strings kept
        self._allowed: list[set[str]] = []
        self._joined: str | None = None
        self._joined_text: str | None = None
        text = (root / rel).read_text(encoding="utf-8")
        in_block = False
        in_block_t = False
        for raw in text.split("\n"):
            self.raw_lines.append(raw)
            m = ALLOW_RE.search(raw)
            self._allowed.append(
                {a.strip() for a in m.group(1).split(",")} if m else set()
            )
            code, in_block = strip_code(raw, in_block)
            self.code_lines.append(code)
            kept, in_block_t = strip_code(raw, in_block_t, keep_strings=True)
            self.text_lines.append(kept)

    def allowed(self, lineno: int) -> set[str]:
        """Suppressed rule ids for a 1-based line number."""
        return self._allowed[lineno - 1] if 0 < lineno <= len(self._allowed) else set()

    def code(self) -> str:
        """The whole file, comments/strings stripped, newlines kept (so
        offsets convert back to line numbers via line_of)."""
        if self._joined is None:
            self._joined = "\n".join(self.code_lines)
        return self._joined

    def line_of(self, offset: int) -> int:
        """1-based line number of a character offset into code()."""
        return self.code().count("\n", 0, offset) + 1

    def line_of_text(self, offset: int) -> int:
        """1-based line number of a character offset into text(). Not
        interchangeable with line_of: the views keep the same newlines but
        string contents make text() lines longer, so offsets differ."""
        return self.text().count("\n", 0, offset) + 1

    def text(self) -> str:
        """The whole file, comments stripped but string literals kept."""
        if self._joined_text is None:
            self._joined_text = "\n".join(self.text_lines)
        return self._joined_text


def iter_source_files(root: Path, subdir: str = "src") -> list[str]:
    """Root-relative paths of every .cpp/.hpp under root/subdir, sorted."""
    base = root / subdir
    if not base.is_dir():
        return []
    return [
        str(f.relative_to(root))
        for ext in ("*.cpp", "*.hpp")
        for f in sorted(base.rglob(ext))
    ]


def module_of(rel: str) -> str | None:
    """The src/ module a root-relative path belongs to, or None."""
    m = re.match(r"src/([A-Za-z0-9_]+)/", rel)
    return m.group(1) if m else None
