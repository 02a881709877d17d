# Bench targets are defined from the top-level CMakeLists via include() so
# that ${CMAKE_BINARY_DIR}/bench contains *only* the benchmark executables —
# `for b in build/bench/*; do $b; done` then runs the whole harness cleanly.

function(otac_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_compile_options(${name} PRIVATE ${OTAC_HARDENED_WARNINGS})
  target_link_libraries(${name} PRIVATE otac_experiments otac_bench_report)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# One binary per paper table/figure.
otac_add_bench(section2_trace_stats)
otac_add_bench(fig2_capacity_hitrate)
otac_add_bench(fig3_photo_types)
otac_add_bench(fig5_classification_perf)
otac_add_bench(fig6_file_hitrate)
otac_add_bench(fig7_byte_hitrate)
otac_add_bench(fig8_file_writes)
otac_add_bench(fig9_byte_writes)
otac_add_bench(fig10_response_time)
otac_add_bench(table1_classifiers)

# Ablations of the paper's design choices.
otac_add_bench(ablate_retrain)
otac_add_bench(ablate_cost_matrix)
otac_add_bench(ablate_history_table)
otac_add_bench(ablate_tree_budget)
otac_add_bench(ablate_criteria)
otac_add_bench(ablate_deployed_classifier)
otac_add_bench(ablate_feature_sets)

# Plain-main micro-benchmarks: run policy x workload cells on the thread
# pool and emit BENCH_<name>.json reports (see bench/bench_json.h).
otac_add_bench(micro_classifier)
otac_add_bench(micro_cache_ops)
otac_add_bench(micro_obs_overhead)

# Scenario report (src/scenario): every registered adapter, adversarial
# and fault scenario across Original/Proposal — BENCH_scenarios.json is
# the artifact `scripts/ci.sh scenarios` gates against checked-in
# envelopes (tools/envelope_gate).
otac_add_bench(micro_scenarios)
target_link_libraries(micro_scenarios PRIVATE otac_scenario)
