#!/usr/bin/env bash
# Static analysis + thread-sanitizer gate.
#
#   scripts/run_static_analysis.sh
#
# Stages, each skipped gracefully when its tool is unavailable:
#   0. determinism lint: scripts/check_determinism.sh bans rand()/time(NULL)/
#      std::random_device and unordered-container iteration in src/;
#   1. clang-tidy over the library/tool sources (checks from .clang-tidy),
#      via -DGATEST_CLANG_TIDY=ON so the exact compile flags are used;
#   2. a warnings-as-errors build (-DGATEST_WERROR=ON) with the default
#      toolchain — the repo must compile -Wall -Wextra clean;
#   3. a ThreadSanitizer smoke: rebuild with GATEST_SANITIZE=thread and
#      exercise the parallel fitness evaluation path (ThreadPool +
#      per-worker fault simulators) at 4 threads, the run-control and
#      parallelism unit tests, and the gatest_serve daemon (worker pool,
#      slice preemption, connection threads) under loadgen traffic;
#   4. a MemorySanitizer smoke (clang only, needs an MSan-instrumented C++
#      standard library): the implication/untestability unit tests plus the
#      differential fuzz sweep, which covers the prover and pruned-simulator
#      lockstep machinery end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- stage 0: determinism lint ------------------------------------------------
echo "=== determinism lint (scripts/check_determinism.sh) ==="
sh scripts/check_determinism.sh || fail=1

# --- stage 1: clang-tidy ------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (checks from .clang-tidy) ==="
  cmake -B build-tidy -G Ninja -DGATEST_CLANG_TIDY=ON -DGATEST_WERROR=ON
  cmake --build build-tidy || fail=1
else
  echo "=== clang-tidy not installed; skipping tidy stage ==="
fi

# --- stage 2: warnings-as-errors build ---------------------------------------
echo "=== -Werror build ==="
cmake -B build-werror -G Ninja -DGATEST_WERROR=ON
cmake --build build-werror || fail=1

# --- stage 3: ThreadSanitizer smoke ------------------------------------------
echo "=== ThreadSanitizer smoke (parallel fitness evaluation, 4 threads) ==="
cmake -B build-tsan -G Ninja -DGATEST_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan --target gatest_atpg_cli util_test run_control_test \
      telemetry_test

export TSAN_OPTIONS="halt_on_error=1"
# End-to-end: a short GA run with 4 evaluation threads drives
# ThreadPool::parallel_for and the per-worker simulator replicas — with
# telemetry attached so the metrics/trace/chunk-timing paths are exercised.
tsan_trace=$(mktemp /tmp/gatest_tsan.XXXXXX.jsonl)
build-tsan/tools/gatest_atpg --profile s298 --engine ga --seed 1 \
    --threads 4 --max-evals 2000 --trace-out "$tsan_trace" \
    --metrics-out /dev/null || fail=1
rm -f "$tsan_trace"
# Same path with the fitness cache on: per-worker caches must stay data-race
# free at 4 threads.
build-tsan/tools/gatest_atpg --profile s298 --engine ga --seed 1 \
    --threads 4 --max-evals 2000 --fitness-cache \
    --metrics-out /dev/null || fail=1
# Unit coverage of the pool itself (exception propagation, reuse) and the
# parallel-vs-serial identity of the generator.
build-tsan/tests/util_test --gtest_filter='ThreadPool*' || fail=1
build-tsan/tests/run_control_test --gtest_filter='*Parallel*' || fail=1
# Concurrent metrics updates and the telemetry-attached identity check.
build-tsan/tests/telemetry_test || fail=1
# Differential fuzz sweep under TSan (serial, but catches lurking UB that
# TSan's instrumentation surfaces differently than a plain build).
cmake --build build-tsan --target fsim_test
build-tsan/tests/fsim_test --gtest_filter='FsimDifferentialFuzz*' || fail=1
# Serve daemon under TSan: 4 scheduler workers slicing 4 jobs at an
# aggressive 20 ms quantum while loadgen polls over TCP and a second
# process scrapes the HTTP observability endpoints in a tight loop —
# races between worker threads, connection handlers, the watch/metrics
# paths, and the /metrics /readyz renders would surface here.
cmake --build build-tsan --target gatest_serve_cli gatest_loadgen_cli
tsan_serve=$(mktemp -d /tmp/gatest_tsan_serve.XXXXXX)
build-tsan/tools/gatest_serve --port 0 --port-file "$tsan_serve/port" \
    --workers 4 --slice-ms 20 \
    --http-port 0 --http-port-file "$tsan_serve/http" --quiet &
tsan_serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tsan_serve/port" ] && [ -s "$tsan_serve/http" ] && break
  sleep 0.1
done
if [ -s "$tsan_serve/port" ]; then
  # Hammer the HTTP observability plane from a second process while the
  # 4-worker pool serves jobs: the /metrics render, the readiness atomics,
  # and the per-connection handler threads all run concurrently with the
  # scheduler here, so any unsynchronized access trips TSan.
  tsan_scraper_pid=""
  if command -v python3 >/dev/null 2>&1 && [ -s "$tsan_serve/http" ]; then
    python3 - "$(cat "$tsan_serve/http")" <<'PYEOF' &
import sys
import time
import urllib.request

port = sys.argv[1]
deadline = time.monotonic() + 30.0
while time.monotonic() < deadline:
    for path in ("metrics", "healthz", "readyz", "jobs"):
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/{path}", timeout=5
            ).read()
        except OSError:
            sys.exit(0)  # daemon shut down; scraping is done
    time.sleep(0.01)
PYEOF
    tsan_scraper_pid=$!
  fi
  build-tsan/tools/gatest_loadgen --port "$(cat "$tsan_serve/port")" \
      --jobs 4 --profiles s27,s298 --max-evals 1000 --expect-complete \
      --quiet || fail=1
  kill -TERM "$tsan_serve_pid" || fail=1
  wait "$tsan_serve_pid" || fail=1
  if [ -n "$tsan_scraper_pid" ]; then
    kill "$tsan_scraper_pid" 2>/dev/null || true
    wait "$tsan_scraper_pid" 2>/dev/null || true
  fi
else
  echo "gatest_serve never published its port under TSan"
  kill "$tsan_serve_pid" 2>/dev/null || true
  fail=1
fi
rm -rf "$tsan_serve"
# Restart-recovery under TSan at 4 workers: kill -9 the journaled daemon
# mid-slice and restart on the same state dir — the recovery scan, the
# re-enqueue of checkpointed jobs across 4 worker threads, and the served
# bit-identity must all be race-free.
cmake --build build-tsan --target gatest_client_cli
scripts/run_crash_recovery.sh build-tsan/tools/gatest_serve \
    build-tsan/tools/gatest_client build-tsan/tools/gatest_atpg \
    "$(mktemp -d /tmp/gatest_tsan_crash.XXXXXX)" 4 || fail=1

# --- stage 4: MemorySanitizer smoke -------------------------------------------
# MSan is clang-only and, unlike ASan/TSan, reports false positives whenever
# uninstrumented code (system libstdc++/libc++) writes memory the instrumented
# code later reads.  Probe: compile-and-run a tiny std::string program under
# -fsanitize=memory; if the probe itself reports errors, the standard library
# is not MSan-instrumented here and the stage is skipped.
if command -v clang++ >/dev/null 2>&1; then
  msan_probe_src=$(mktemp /tmp/gatest_msan_probe.XXXXXX.cpp)
  msan_probe_bin=$(mktemp /tmp/gatest_msan_probe.XXXXXX)
  printf '#include <string>\n#include <cstdio>\nint main(){std::string s="ok";std::printf("%%zu\\n",s.size());return 0;}\n' \
      > "$msan_probe_src"
  if clang++ -fsanitize=memory -O1 "$msan_probe_src" -o "$msan_probe_bin" \
         >/dev/null 2>&1 && "$msan_probe_bin" >/dev/null 2>&1; then
    echo "=== MemorySanitizer smoke (implication prover + differential fuzz) ==="
    cmake -B build-msan -G Ninja -DGATEST_MSAN=ON \
          -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-msan --target analysis_test fsim_test
    build-msan/tests/analysis_test || fail=1
    build-msan/tests/fsim_test --gtest_filter='FsimDifferentialFuzz*' || fail=1
  else
    echo "=== MSan probe failed (standard library not MSan-instrumented); skipping MSan stage ==="
  fi
  rm -f "$msan_probe_src" "$msan_probe_bin"
else
  echo "=== clang++ not installed; skipping MSan stage ==="
fi

if [ "$fail" -ne 0 ]; then
  echo "static analysis FAILED"
  exit 1
fi
echo "static analysis passed"
