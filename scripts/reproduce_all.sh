#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, then regenerate
# every paper table/figure plus the extension benches.  Outputs land in
# test_output.txt and bench_output.txt at the repository root.  Every
# bench runs even after one fails (a gated bench exits 1 on a red gate);
# the script then exits 1 naming each bench that failed.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
failed=()
for b in build/bench/*; do
  [[ -f "$b" && -x "$b" ]] || continue  # skip CMake's own files
  echo "================ $b ================" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt || failed+=("${b##*/}")
done

if (( ${#failed[@]} != 0 )); then
  echo "reproduce_all: ${#failed[@]} bench(es) failed: ${failed[*]}" >&2
  exit 1
fi
echo "done: see test_output.txt and bench_output.txt"
