#!/usr/bin/env bash
# One-stop local analysis gate (what CI runs as `ctest -L analysis`):
#
#   1. configure + build the default tree;
#   2. static audits: tools/lock_audit.py (lock hierarchy discipline)
#      and tools/config_audit.py (config keys vs graphite.cfg);
#      then quick unit/system tests (ctest -L quick) and the lockdep
#      runtime gate (ctest -L lockdep);
#      ... then the telemetry plane (ctest -L telemetry): unit suite +
#      the end-to-end HTTP scrape probe;
#   3. clang-tidy over every first-party TU (SKIPs when the toolchain
#      has no clang-tidy; see tools/run_tidy.py);
#   4. a UBSan build (-fno-sanitize-recover=undefined) running the
#      memory-system concurrency smoke (ubsan_smoke), the memory
#      system's unit and integration suites and lockdep's suite.
#
# Usage: tools/check_all.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

step() { printf '\n=== check_all: %s ===\n' "$*"; }

# Run a gated bench in $BUILD with its report held back. When the bench
# misses a bound, print the report, whose verdict lines name the row,
# and the failed command, so the log does not end at a step banner.
gate() {
    local out status=0
    out="$(cd "$BUILD" && "$@")" || status=$?
    if [ "$status" -ne 0 ]; then
        printf '%s\n' "$out"
        printf 'check_all: FAILED (exit %d): %s\n' "$status" "$*" >&2
        return "$status"
    fi
}

step "configure + build ($BUILD)"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"

step "static audits (lock hierarchy + config keys)"
# Hard gate: raw mutexes outside the lockdep layer, undeclared lock
# classes, a cyclic lock_order.def, a config key read with no
# graphite.cfg entry, or an entry nothing reads all fail the build here
# before anything runs.
python3 tools/lock_audit.py
python3 tools/config_audit.py

step "quick tests"
ctest --test-dir "$BUILD" -L quick --output-on-failure -j "$JOBS"

step "lockdep gate (planted-inversion + disabled-build checks)"
ctest --test-dir "$BUILD" -L lockdep --output-on-failure

step "telemetry plane"
# Unit suite plus the end-to-end probe (CLI + HTTP scrape cross-check).
ctest --test-dir "$BUILD" -L telemetry --output-on-failure

step "accuracy observatory (causality detection + report schema)"
ctest --test-dir "$BUILD" -L accuracy --output-on-failure

step "overhead and scaling benchmarks (armed-vs-off budgets, L1-hit scaling, fast-forward)"
# Fast mode keeps the gate cheap; each observer owns its pass criterion
# and bench_report.py rolls the BENCH_*.json verdicts into one table.
# The telemetry row stays out: its two sides simulate different cycle
# counts under the free-running scheduler, so one fast run is too noisy
# to gate on.
gate env GRAPHITE_BENCH_FAST=1 \
    ./bench/micro_observer_overhead accuracy span race
# The L1-hit scaling gate (4 threads over 1 on private lines) runs at
# full size, about 5 s with the reported miss-path and L2 write-hit
# rows: fast mode's
# short loops hide the cost of a counter that every thread writes on
# every access.
gate ./bench/micro_lock_contention
# The fast-forward gate (ff_speedup >= 5) also runs at full size, about
# 3 s: fast mode's shorter warmup leaves it too little margin on a
# loaded host.
gate ./bench/micro_checkpoint
python3 tools/bench_report.py --dir "$BUILD" \
    --require micro_accuracy_overhead micro_span_overhead \
    micro_race_overhead micro_lock_contention micro_checkpoint

step "checkpoint/restore differential"
# Fingerprint-identical resume: segmented-through-snapshot runs vs
# uninterrupted runs across config cells and host widths, plus the
# golden on-disk format fixture.
ctest --test-dir "$BUILD" -R 'snapshot_smoke|test_snapshot' \
    --output-on-failure

step "clang-tidy"
# ctest maps run_tidy.py's exit 77 to SKIPPED on toolchains without
# clang-tidy; anything else must pass.
ctest --test-dir "$BUILD" -L tidy --output-on-failure

step "UBSan build + smoke ($BUILD-ubsan)"
cmake -B "$BUILD-ubsan" -S . -DGRAPHITE_SANITIZE=undefined >/dev/null
cmake --build "$BUILD-ubsan" -j "$JOBS" --target test_mem_concurrency \
    test_memory_system test_mem_units test_lockdep
ctest --test-dir "$BUILD-ubsan" -L analysis --output-on-failure

step "PASS"
