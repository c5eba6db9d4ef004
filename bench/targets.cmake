# Bench targets are defined from the top level (via include()) so that the
# build/bench directory contains only the bench executables — the canonical
# way to run the whole harness is `for b in build/bench/*; do $b; done`.
set(SATURN_FIG_BENCHES
  table1_latencies
  fig1a_tradeoff
  fig1b_partial_replication
  fig4_configurations
  fig5_throughput
  fig6_latency_variability
  fig7_visibility
  fig8_facebook
  ablation_design
  ablation_stabilization
  ablation_batching
  cops_metadata
)

foreach(bench ${SATURN_FIG_BENCHES})
  add_executable(${bench} ${CMAKE_SOURCE_DIR}/bench/${bench}.cc)
  target_link_libraries(${bench} saturn)
  set_target_properties(${bench} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(micro_core ${CMAKE_SOURCE_DIR}/bench/micro_core.cc)
target_link_libraries(micro_core saturn benchmark::benchmark)
set_target_properties(micro_core PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Simulation-core perf harness (see bench/perf_sim.cc). The default build is
# RelWithDebInfo (-O2), so tier-1 exercises optimized code; the smoke run in
# ctest keeps the harness from bit-rotting without paying for a full
# measurement on every test cycle.
add_executable(perf_sim ${CMAKE_SOURCE_DIR}/bench/perf_sim.cc)
target_link_libraries(perf_sim saturn)
set_target_properties(perf_sim PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
add_test(NAME perf_sim_smoke
         COMMAND perf_sim --smoke --out ${CMAKE_BINARY_DIR}/BENCH_smoke.json)
# The realtime leg times 1, 2 and 4 worker threads against each other; under
# `ctest -j` neighbouring tests would take the very cores it measures.
set_tests_properties(perf_sim_smoke PROPERTIES RUN_SERIAL TRUE)

# Allocation-regression gate: the smoke run's allocs/event must stay within
# 10% of the committed smoke baseline (bench/BENCH_smoke_baseline.json).
# --no-timing keeps only the deterministic checks — event fingerprints and
# allocation rates — so machine load cannot flake the suite. Skipped under
# sanitizers, whose interposed allocators change the counts being audited.
find_package(Python3 COMPONENTS Interpreter QUIET)
if(Python3_FOUND AND NOT SATURN_SANITIZE AND NOT SATURN_TSAN)
  add_test(NAME perf_sim_alloc_budget
           COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
                   ${CMAKE_SOURCE_DIR}/bench/BENCH_smoke_baseline.json
                   ${CMAKE_BINARY_DIR}/BENCH_smoke.json --no-timing)
  set_tests_properties(perf_sim_alloc_budget PROPERTIES DEPENDS perf_sim_smoke)
endif()

# `cmake --build build --target perf` runs the full measurement and prints the
# delta against the committed baseline (regression gate: >5% events/sec drop).
if(Python3_FOUND)
  add_custom_target(perf
    COMMAND $<TARGET_FILE:perf_sim> --out ${CMAKE_BINARY_DIR}/BENCH_sim.json
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
            ${CMAKE_SOURCE_DIR}/BENCH_sim.json ${CMAKE_BINARY_DIR}/BENCH_sim.json
    DEPENDS perf_sim
    USES_TERMINAL)
endif()
