"""h2lint: the h2priv tree's determinism and whole-program linter.

  - The six determinism rules (DESIGN.md §7), from one rule table
    (determinism.py), and the file-level adversary-plaintext rule
    (adversary.py: the adversary's files may not include h2/ or hpack/
    headers or name tls::OpenContext/tls::Session). They run at the
    AST/type level via libclang when it is available (canonical types kill
    the typedef/alias blind spot, cursor extents kill the
    split-across-lines blind spot). When libclang is absent, h2lint falls
    back to the line-oriented text engines, so the rules never go dark.
  - Whole-program invariant checks that need the entire tree at once and
    therefore run in pure Python with no toolchain dependency at all:
      layering       include-layering DAG between src/ modules
      obs-registry   Counter/Gauge/Hist enum <-> export name consistency
      h2t-tags       .h2t section-tag and flag-bit uniqueness + reader drift
      rng-fork       sim::Rng& parameters must be fork()ed into parallel work

Entry point: ``python3 -m h2lint`` (see cli.py) or tools/run_h2lint.sh.
Every rule prints ``path:line: [rule] message`` and honors one
``// lint:allow(<rule>)`` suppression syntax. DESIGN.md §12 is the
specification.
"""

__all__ = ["__version__"]

__version__ = "1.0"
