#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release) into build-bench/ at the
# repository root, then runs it; every argument goes to run.py (see its
# docstring and README.md). Build output goes to stderr, so the last line
# of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j "$(nproc)" >&2
exec python3 "$here/run.py" --binary "$build/e2e_bench" "$@"
