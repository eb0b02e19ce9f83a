#!/usr/bin/env bash
# Build, test, and regenerate every paper table.
#
#   scripts/run_experiments.sh            # scaled-down defaults (minutes)
#   scripts/run_experiments.sh --full     # paper-scale protocol (hours)
#
# Outputs land in test_output.txt and bench_output.txt at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Static analysis + TSan gate (clang-tidy if installed, -Werror build,
# ThreadSanitizer smoke of the parallel evaluation path).
scripts/run_static_analysis.sh

# Sanitized run-control smoke: build the CLI with ASan+UBSan and assert that
# a time-limited run (budget stop + checkpoint flush) exits cleanly.
echo "=== sanitized run-control smoke (s298, 5s budget) ==="
cmake -B build-sanitize -G Ninja -DGATEST_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-sanitize --target gatest_atpg_cli
smoke_ckpt=$(mktemp /tmp/gatest_smoke.XXXXXX.ckpt)
build-sanitize/tools/gatest_atpg --profile s298 --time-limit 5 \
    --checkpoint "$smoke_ckpt" --seed 1
echo "sanitized smoke passed (exit 0)"
rm -f "$smoke_ckpt" "$smoke_ckpt.tmp"

# ASan+UBSan differential fuzz: 50 random sequential circuits through the
# naive reference, the packed simulator and the packed simulator with proven
# pruning — detection sets and every fitness observable, for committed
# vectors and for scored candidate sequences, must agree exactly while the
# sanitizers watch the packed kernel.
echo "=== sanitized differential fuzz (fsim vs reference) ==="
cmake --build build-sanitize --target fsim_test
build-sanitize/tests/fsim_test --gtest_filter='FsimDifferentialFuzz*'

# Fitness cache gate: the memoization cache must deliver >= 1.25x on the
# s344 phase-2 evaluation stream (and produce bit-identical fitness sums,
# checked inside the bench).
echo "=== fitness cache speedup gate ==="
build/bench/micro_fitness_cache --check

# Line-coverage summary for the hot-path libraries (gcov-based; skips
# itself gracefully when gcov is unavailable).  DESIGN.md documents the
# >= 80% expectation for src/fsim and src/gatest.
scripts/run_coverage.sh

# Telemetry gate: the disabled path must stay within 2% of a bare run, and a
# traced run must produce a schema-valid JSONL that gatest_report can digest.
echo "=== telemetry overhead + trace validation ==="
build/bench/micro_telemetry --check
trace_tmp=$(mktemp -d /tmp/gatest_trace.XXXXXX)
build/tools/gatest_atpg --profile s344 --engine ga --seed 5 \
    --trace-out "$trace_tmp/s344.jsonl" --metrics-out "$trace_tmp/s344.json"
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/validate_trace.py "$trace_tmp/s344.jsonl" \
      --metrics "$trace_tmp/s344.json"
fi
build/tools/gatest_report "$trace_tmp/s344.jsonl"
rm -rf "$trace_tmp"

# Service gate: the daemon must serve a small mixed workload to completion
# (checkpoint-sliced, 2 workers) with a schema-valid server trace, and the
# scheduler bench must hold its completion/identity/throughput gates.
echo "=== serve smoke + scheduler throughput gate ==="
serve_tmp=$(mktemp -d /tmp/gatest_serve.XXXXXX)
build/tools/gatest_serve --port 0 --port-file "$serve_tmp/port" \
    --workers 2 --slice-ms 50 --trace-out "$serve_tmp/serve.jsonl" --quiet &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$serve_tmp/port" ] && break; sleep 0.1; done
[ -s "$serve_tmp/port" ] || { echo "gatest_serve never published its port"; exit 1; }
build/tools/gatest_loadgen --port "$(cat "$serve_tmp/port")" \
    --jobs 6 --profiles s27,s298 --max-evals 2000 --expect-complete
kill -TERM "$serve_pid"
wait "$serve_pid"
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/validate_trace.py "$serve_tmp/serve.jsonl"
fi
rm -rf "$serve_tmp"
build/bench/serve_throughput --check

# Durability gate: kill -9 + restart bit-identity at 1 and 4 workers, then
# the full torture protocol — 25 submit/crash/restart cycles under
# deterministic write-side fault injection with zero lost or corrupt jobs.
echo "=== serve durability: crash recovery + torture (25 cycles) ==="
for workers in 1 4; do
  scripts/run_crash_recovery.sh build/tools/gatest_serve \
      build/tools/gatest_client build/tools/gatest_atpg \
      "$(mktemp -d /tmp/gatest_crash.XXXXXX)" "$workers"
done
scripts/run_torture.sh build/tools/gatest_serve build/tools/gatest_client \
    build/tools/gatest_atpg "$(mktemp -d /tmp/gatest_torture.XXXXXX)" 25 2

# The same torture protocol against the ASan+UBSan build: crash-time file
# states, journal recovery, and the fault-injection error paths must be
# clean under the sanitizers (fewer cycles — sanitized runs are slower).
echo "=== serve durability torture under ASan+UBSan ==="
cmake --build build-sanitize --target gatest_serve_cli gatest_client_cli
scripts/run_torture.sh build-sanitize/tools/gatest_serve \
    build-sanitize/tools/gatest_client build/tools/gatest_atpg \
    "$(mktemp -d /tmp/gatest_torture_asan.XXXXXX)" 10 2

# Every record-capable bench emits a versioned JSON record alongside its
# table; with default flags the records are then held against the committed
# baselines in bench/baselines/ (exact metrics byte-identical, perf within
# 15%).  Custom flags (--full, --runs=...) change the protocol, so the
# regression compare is skipped for those runs.
rec_tmp=$(mktemp -d /tmp/gatest_bench_rec.XXXXXX)
{
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    name=$(basename "$b")
    echo "=== $name ==="
    case "$name" in
      micro_analysis)
        # google-benchmark harness: native --benchmark_out, no --json.
        "$b" "$@" ;;
      *)
        "$b" "$@" "--json=$rec_tmp/BENCH_$name.json" ;;
    esac
    echo
  done
} 2>&1 | tee bench_output.txt

if [ $# -eq 0 ] && command -v python3 >/dev/null 2>&1; then
  echo "=== bench-regression check vs bench/baselines ==="
  python3 scripts/bench_regress.py "$rec_tmp"/BENCH_*.json
fi
rm -rf "$rec_tmp"
