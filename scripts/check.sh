#!/usr/bin/env bash
# CI-style gate: every analysis pass must come back green.
#
#   1. default        — RelWithDebInfo build, full test suite (includes the
#                       fzcheck simulator-hazard tests: any SanitizerReport
#                       diagnostic fails test_sanitizer), run twice: once
#                       unpinned and once pinned to one core (taskset -c 0).
#                       Strip counts follow the core count, and so does
#                       which code runs, so the suite must pass on both.
#   1b. service smoke — fzd selftest (job taxonomy, byte-identity vs a
#                       direct Codec, policy/params rejection) plus a short
#                       concurrent soak against the admission queue; re-run
#                       under the tsan preset in full mode
#   2. bench smoke    — scripts/bench_smoke.sh guards the SIMD/fused and
#                       tile-parallel throughput against the checked-in
#                       BENCH_pr5.json baseline (tolerance via
#                       FZ_BENCH_TOLERANCE), including the stream-identity
#                       and fused >= 1.5x unfused gates, and the PR6
#                       random-access reader gate (byte-identical slices,
#                       hot-cache hit rate, prefetch effectiveness) via
#                       BENCH_pr6.json
#   3. trace smoke    — runs fz_cli under FZ_TRACE and --trace, plus a
#                       small bench/regress run under FZ_TRACE; in each
#                       case scripts/validate_trace.py checks the Chrome
#                       JSON parses, spans nest per thread, and the
#                       expected stage/chunk spans were recorded — the
#                       regress trace must contain the per-strip
#                       "fused-strip" spans of the tile-parallel pass and
#                       every span of the fused decompress (strips,
#                       offsets, carries, reconstruct), and
#                       the cli selftest traces must contain the reader's
#                       "reader-read" spans plus one pool-worker
#                       "chunk-fetch" span per container chunk
#   4. lint-static    — tools/fzlint over src/tools/examples/tests/bench:
#                       layering DAG, lock/allocation discipline in hot-path
#                       files, on-disk-layout audit, hygiene bans.  Built
#                       from this repo, so it ALWAYS runs — including under
#                       --fast; scripts/lint_gate.sh is the standalone
#                       wrapper and archives build/fzlint_report.json
#   5. asan-ubsan     — full suite under AddressSanitizer + UBSanitizer,
#                       plus the trace smoke re-run against the asan build
#                       (the env-sink exit flush must be sanitizer-clean)
#                       and an explicit re-run of the fused-parallel
#                       schedule-independence suite (thread-scaling
#                       byte-identity under the sanitizers)
#   6. tsan           — pool/codec/chunked/threading tests under
#                       ThreadSanitizer (host-side concurrency)
#   7. lint           — clang-tidy over src/ (.clang-tidy profile,
#                       WarningsAsErrors: any warning fails); skipped with a
#                       notice when clang-tidy is not installed, unless
#                       FZ_REQUIRE_LINT=1, which turns the skip into a
#                       failure (docs/SANITIZER.md has the install note)
#
# Any sanitizer finding fails the suite (-fno-sanitize-recover=all aborts
# the offending test; TSan exits nonzero on a report; clang-tidy exits
# nonzero on any warning-as-error; fzlint exits nonzero on any finding).
#
# Every numbered section runs, even after an earlier one failed: each runs
# in its own `( set -e; ... )` subshell, so it stops at its own first
# failing command and the next section still starts.  The script ends with
# one line per section and exits 1 if any failed, naming each of them.
#
# Usage: scripts/check.sh [--fast]
#   --fast   default configuration + lint-static only (skip sanitizer
#            builds and clang-tidy)
#
# No errexit at the top level: a failing section must not end the script.
# (errexit is also ignored inside a function or subshell that is an if/||
# condition, which is why run_section reads $? after a plain subshell.)
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

jobs=$(nproc 2>/dev/null || echo 4)

run_preset() {
  local preset="$1"
  echo "==== configure/build/test: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
}

trace_smoke() {
  # $1: fz_cli binary.  The selftest covers single-stream, f64 and chunked
  # paths, so the trace exercises stage, chunk and per-worker spans.
  local cli="$1"
  local tmp
  tmp=$(mktemp -d)
  FZ_TRACE="${tmp}/env.json" "${cli}" selftest > /dev/null
  "${cli}" --trace "${tmp}/cli.json" selftest > /dev/null 2> "${tmp}/summary.txt"
  python3 scripts/validate_trace.py "${tmp}/env.json" \
    --expect compress decompress chunk-compress prefix-sum-encode \
    reader-read chunk-fetch \
    --min-count reader-read=2 chunk-fetch=4
  python3 scripts/validate_trace.py "${tmp}/cli.json" \
    --expect compress compress-chunked chunk-compress chunk-decompress \
    reader-read chunk-fetch \
    --min-count reader-read=2 chunk-fetch=4
  grep -q "spans by name" "${tmp}/summary.txt" ||
    { echo "trace smoke: --trace printed no summary" >&2; exit 1; }
  rm -rf "${tmp}"
}

service_smoke() {
  # $1: fzd binary.  selftest covers the full job taxonomy (roundtrip
  # byte-identity vs a direct Codec, policy/params rejection, stats text);
  # the short soak hammers the admission queue from concurrent clients and
  # fails on any response mismatch or dropped worker exception.
  local fzd="$1"
  echo "---- fzd selftest (${fzd}) ----"
  "${fzd}" selftest > /dev/null
  echo "---- fzd soak: 600 mixed requests / 6 clients ----"
  "${fzd}" soak --requests 600 --clients 6 --queue 16 > /dev/null
}

default_suite() {
  run_preset default
  echo "==== default suite pinned to one core (taskset -c 0) ===="
  taskset -c 0 ctest --preset default -j "${jobs}"
}

trace_section() {
  trace_smoke build/examples/fz_cli
  # A traced bench run: every env-sink codec in regress records into one
  # trace, covering the unfused reference graph and the fused-parallel
  # production graphs — including the per-strip spans of the tile-parallel
  # compress pass and every phase of the fused decompress.
  local trace_tmp
  trace_tmp=$(mktemp -d)
  FZ_TRACE="${trace_tmp}/regress.json" build/bench/regress \
    --scale 0.05 --iters 1 --out "${trace_tmp}/bench.json" \
    --huff-out "${trace_tmp}/huff.json" --pr10-out "${trace_tmp}/pr10.json" \
    > /dev/null
  python3 scripts/validate_trace.py "${trace_tmp}/regress.json" \
    --expect compress dual-quant fused-quant-shuffle-mark fused-strip \
    prefix-sum-encode decompress fused-decode fused-decode-strip \
    decode-offsets decode-carry reconstruct
  rm -rf "${trace_tmp}"
}

asan_section() {
  run_preset asan-ubsan

  echo "==== trace smoke (asan-ubsan) ===="
  trace_smoke build-asan/examples/fz_cli

  echo "==== fused-parallel schedule independence (asan-ubsan) ===="
  # The thread-scaling byte-identity suite again, explicitly, under the
  # sanitizers: worker counts {1,2,3,8} x dtypes x {scalar, AVX2} must
  # match the unfused reference and stay fault-free.
  build-asan/tests/test_fused_parallel
  build-asan/tests/test_threading \
    --gtest_filter='Threading.SharedSinkAcrossFusedStripWorkers'
}

tsan_section() {
  run_preset tsan

  echo "==== service smoke (tsan): fzd selftest + concurrent soak ===="
  service_smoke build-tsan/src/fzd
}

lint_section() {
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake --build build --target lint
  elif [[ "${FZ_REQUIRE_LINT:-0}" == "1" ]]; then
    echo "lint: clang-tidy not found on PATH and FZ_REQUIRE_LINT=1 —" \
      "failing (docs/SANITIZER.md has the install note)" >&2
    exit 1
  else
    echo "lint: clang-tidy not found on PATH; skipping (install clang-tidy to enable, or set FZ_REQUIRE_LINT=1 to make this fatal)"
  fi
}

sections=()
results=()
failed=()

# run_section NAME CMD...: run CMD in a `set -e` subshell; record the result.
run_section() {
  local name="$1"
  shift
  echo "==== ${name} ===="
  ( set -e; "$@" )
  local rc=$?
  sections+=("${name}")
  if (( rc == 0 )); then
    results+=("ok")
  else
    results+=("FAILED (exit ${rc})")
    failed+=("${name}")
  fi
}

run_section "1 default: build + suite, unpinned and pinned" default_suite
run_section "1b service smoke: fzd selftest + concurrent soak" \
  service_smoke build/src/fzd
run_section "2 bench smoke: SIMD + fused-pipeline + random-access guards" \
  scripts/bench_smoke.sh build/bench/regress build/bench/random_access
run_section "3 trace smoke: telemetry export validates" trace_section
run_section "4 lint-static: fzlint (layering / lock discipline / layout / hygiene)" \
  scripts/lint_gate.sh build

if [[ "${1:-}" != "--fast" ]]; then
  run_section "5 asan-ubsan" asan_section
  run_section "6 tsan" tsan_section
  run_section "7 lint: clang-tidy over src/" lint_section
fi

echo "==== check.sh summary ===="
for i in "${!sections[@]}"; do
  echo "  ${results[i]}: ${sections[i]}"
done
if (( ${#failed[@]} != 0 )); then
  echo "check.sh: ${#failed[@]} section(s) failed:" >&2
  for name in "${failed[@]}"; do echo "  ${name}" >&2; done
  exit 1
fi
echo "check.sh: all configurations green"
