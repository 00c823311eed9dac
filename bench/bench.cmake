# Experiment harness: one binary per experiment ID of DESIGN.md §3.
# Binaries are emitted into ${CMAKE_BINARY_DIR}/bench (and nothing else is),
# so `for b in build/bench/*; do $b; done` regenerates every table/figure.

function(cilkpp_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

cilkpp_add_bench(bench_fig2_dag_model cilkpp_dag cilkpp_sim)
cilkpp_add_bench(bench_amdahl cilkpp_dag cilkpp_sim cilkpp_cilkview)
cilkpp_add_bench(bench_work_span_laws cilkpp_dag cilkpp_sim)
cilkpp_add_bench(bench_fig3_qsort_profile cilkpp_workloads cilkpp_dag cilkpp_sim cilkpp_cilkview)
cilkpp_add_bench(bench_greedy_bound cilkpp_dag cilkpp_sim cilkpp_workloads)
cilkpp_add_bench(bench_serial_overhead cilkpp_workloads cilkpp_runtime cilkpp_support benchmark::benchmark)
cilkpp_add_bench(bench_spawn_path cilkpp_workloads cilkpp_runtime cilkpp_support)
cilkpp_add_bench(bench_steal_locality cilkpp_workloads cilkpp_runtime cilkpp_support)
cilkpp_add_bench(bench_stack_space cilkpp_dag cilkpp_sim)
cilkpp_add_bench(bench_steal_frequency cilkpp_dag cilkpp_sim cilkpp_workloads)
cilkpp_add_bench(bench_multiprogramming cilkpp_dag cilkpp_sim)
if(CILKPP_SERVE)
  # The real-runtime shared-vs-partitioned leg of E9 rides along when the
  # serving layer is built.
  target_compile_definitions(bench_multiprogramming PRIVATE CILKPP_BENCH_SERVE=1)
  target_link_libraries(bench_multiprogramming PRIVATE cilkpp_serve cilkpp_workloads)
  cilkpp_add_bench(bench_jobserver cilkpp_serve cilkpp_workloads)
endif()
cilkpp_add_bench(bench_composability cilkpp_dag cilkpp_sim cilkpp_workloads)
cilkpp_add_bench(bench_cilkscreen cilkpp_cilkscreen cilkpp_workloads cilkpp_dag)
cilkpp_add_bench(bench_reducer_vs_mutex cilkpp_workloads cilkpp_dag cilkpp_sim)
cilkpp_add_bench(bench_parallelism_survey cilkpp_workloads cilkpp_dag cilkpp_cilkview)
cilkpp_add_bench(bench_graph cilkpp_graph cilkpp_runtime cilkpp_dag cilkpp_sim cilkpp_cilkview)
cilkpp_add_bench(bench_ablation_policy cilkpp_dag cilkpp_sim)
cilkpp_add_bench(bench_ablation_grain cilkpp_dag cilkpp_sim cilkpp_workloads)
cilkpp_add_bench(bench_ablation_burden cilkpp_dag cilkpp_sim cilkpp_cilkview cilkpp_workloads)
cilkpp_add_bench(bench_hook_overhead cilkpp_trace cilkpp_stress cilkpp_workloads benchmark::benchmark)
cilkpp_add_bench(bench_lint_overhead cilkpp_lint cilkpp_runtime)
cilkpp_add_bench(bench_memlens_overhead cilkpp_memlens cilkpp_cilkscreen cilkpp_support)
cilkpp_add_bench(stress_fuzz cilkpp_stress)
