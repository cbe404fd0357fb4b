#!/usr/bin/env bash
# Run h2lint (tools/h2lint/, DESIGN.md §12) over the tree.
#
# Usage:
#   tools/run_h2lint.sh [--strict] [--build-dir DIR] [args passed to h2lint...]
#
#   --strict     require the AST backend (libclang Python bindings +
#                compile_commands.json); exit 2 if either is missing. CI
#                always passes --strict so the semantic rules can never
#                silently degrade there. The default is to let h2lint fall
#                back to the text engines for the determinism and
#                adversary-plaintext rules — the whole-program rules
#                (layering, obs-registry, h2t-tags, rng-fork) run either way.
#   --build-dir  compilation database location (default: build). Configured
#                automatically if compile_commands.json is missing.
#
# Exit codes: 0 clean, 1 findings, 2 setup error.
set -euo pipefail

cd "$(dirname "$0")/.."

strict=0
build_dir=build
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) strict=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) extra+=("$1"); shift ;;
  esac
done

if ! command -v python3 >/dev/null 2>&1; then
  echo "run_h2lint.sh: python3 not found" >&2
  exit 2
fi

have_ast=0
if python3 - >/dev/null 2>&1 <<'EOF'
from clang import cindex
cindex.Index.create()
EOF
then
  have_ast=1
fi

if [[ "$have_ast" == 1 && ! -f "$build_dir/compile_commands.json" ]]; then
  echo "run_h2lint.sh: configuring $build_dir for compile_commands.json"
  cmake -B "$build_dir" -S . >/dev/null
fi

args=(--compile-db "$build_dir/compile_commands.json")
if [[ "$strict" == 1 ]]; then
  args+=(--strict)
elif [[ "$have_ast" == 0 ]]; then
  echo "run_h2lint.sh: libclang bindings not found; determinism rules fall" \
       "back to the text engine (pass --strict to fail instead)"
fi

PYTHONPATH=tools python3 -m h2lint "${args[@]}" ${extra[@]+"${extra[@]}"}
