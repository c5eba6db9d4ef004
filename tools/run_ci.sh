#!/usr/bin/env bash
# One-command CI: configure, build and test the three trees this repo gates on.
#
#   native  build/        plain build, full ctest suite
#           build-bench/  the standalone benchmark/ project, its ctests
#   asan    build-asan/   AddressSanitizer + UBSan, full ctest suite
#   tsan    build-tsan/   ThreadSanitizer, the `tsan_smoke` ctest label
#                         (concurrent sweep isolation + the realtime backend;
#                         the full suite under TSan is deterministic
#                         single-threaded code and would only re-prove native)
#
# Usage:
#   tools/run_ci.sh              # all three trees
#   tools/run_ci.sh native,tsan  # a comma-separated subset
#   JOBS=8 tools/run_ci.sh       # override parallelism (default: nproc)
#
# Build directories are persistent, so reruns are incremental. Exits nonzero
# on the first configure, build, or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TREES="${1:-native,asan,tsan}"

build_tree() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [${name}] configure + build (${dir}, -j${JOBS}) ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${JOBS}"
}

telemetry_smoke() {
  # The telemetry path end-to-end through the CLI: an open-loop flash crowd
  # with the attribution profiler and windowed time series on, the exported
  # JSON schema-checked by the report renderer. Runs in every tree so the
  # sampler and profiler also see the sanitizers.
  local name="$1" dir="$2"
  echo "=== [${name}] saturn_sim telemetry smoke ==="
  "./${dir}/tools/saturn_sim" --protocol=saturn --dcs=3 --open-loop=3000 \
    --arrival-rate=2000 --arrival-plan="1200:burst:*:4:300" \
    --zipf-sessions=0.9 --warmup=1 --seconds=1 \
    --attribution --timeseries-out="${dir}/ci_timeseries.json" \
    --timeseries-window=100 > /dev/null
  python3 tools/telemetry_report.py --check "${dir}/ci_timeseries.json"
}

for tree in ${TREES//,/ }; do
  case "${tree}" in
    native)
      build_tree native build
      echo "=== [native] ctest (full suite) ==="
      ctest --test-dir build --output-on-failure -j "${JOBS}"
      echo "=== [native] saturn_sim open-loop smoke ==="
      # The million-user engine end-to-end through the CLI: open-loop saturn
      # with a flash-crowd plan on the procedural keyspace. Small enough for
      # CI; the scale gates live in perf_sim_smoke / perf_sim_alloc_budget.
      ./build/tools/saturn_sim --protocol=saturn --dcs=3 --open-loop=3000 \
        --arrival-rate=2000 --arrival-plan="1200:burst:*:4:300" \
        --zipf-sessions=0.9 --warmup=1 --seconds=1 > /dev/null
      telemetry_smoke native build
      # The benchmark of record compiles its own copy of src/ with the
      # saturn_bench program, which calls the simulator's public API. Building
      # and smoke-running it here makes a src/ change that breaks that API
      # fail CI instead of the benchmark run.
      echo "=== [native] benchmark/ configure + build (build-bench, -j${JOBS}) ==="
      cmake -B build-bench -S benchmark
      cmake --build build-bench -j "${JOBS}"
      echo "=== [native] benchmark ctest (benchmark_smoke, benchmark_run_py_test) ==="
      ctest --test-dir build-bench --output-on-failure \
        -R '^(benchmark_smoke|benchmark_run_py_test)$'
      ;;
    asan)
      build_tree asan build-asan -DSATURN_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
      echo "=== [asan] ctest (full suite) ==="
      ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
      telemetry_smoke asan build-asan
      ;;
    tsan)
      build_tree tsan build-tsan -DSATURN_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
      echo "=== [tsan] ctest (-L tsan_smoke) ==="
      ctest --test-dir build-tsan --output-on-failure -L tsan_smoke -j "${JOBS}"
      telemetry_smoke tsan build-tsan
      ;;
    *)
      echo "run_ci.sh: unknown tree '${tree}' (expected native, asan, tsan)" >&2
      exit 2
      ;;
  esac
done

echo "=== CI green: ${TREES} ==="
