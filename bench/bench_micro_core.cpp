// google-benchmark microbenchmarks of the planning hot paths: these are
// what Fig. 12's search times are made of.
#include <benchmark/benchmark.h>

#include "common.h"
#include "core/autopipe.h"
#include "core/balanced_dp.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/slicer.h"
#include "sim/executor.h"

namespace {

using namespace autopipe;

// benchmark_main owns main(), so the provenance line is emitted from a
// static initializer -- it precedes google-benchmark's own header output.
[[maybe_unused]] const bool g_metadata_emitted = [] {
  bench::emit_metadata("micro_core");
  return true;
}();

const core::ModelConfig& gpt2_config() {
  static const core::ModelConfig cfg =
      costmodel::build_model_config(costmodel::gpt2_345m(), {4, 0, true});
  return cfg;
}

void BM_SimulatePipeline(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto& cfg = gpt2_config();
  const auto p = core::balanced_partition(cfg, depth);
  const auto costs = core::stage_costs(cfg, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::simulate_pipeline(costs, 2 * depth, cfg.comm_ms).iteration_ms);
  }
}
BENCHMARK(BM_SimulatePipeline)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_BalancedDp(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto loads = core::block_loads(gpt2_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::balanced_counts(loads, depth));
  }
}
BENCHMARK(BM_BalancedDp)->Arg(2)->Arg(8)->Arg(16);

void BM_PlannerEndToEnd(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto& cfg = gpt2_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::plan(cfg, depth, 2 * depth).sim.iteration_ms);
  }
}
BENCHMARK(BM_PlannerEndToEnd)->Arg(4)->Arg(8)->Arg(16);

void BM_Slicer(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto& cfg = gpt2_config();
  const auto costs =
      core::stage_costs(cfg, core::balanced_partition(cfg, depth));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_slicing(costs, cfg.comm_ms, 2 * depth)
            .sliced_micro_batches);
  }
}
BENCHMARK(BM_Slicer)->Arg(4)->Arg(16);

void BM_EventExecutor(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto& cfg = gpt2_config();
  const auto costs =
      core::stage_costs(cfg, core::balanced_partition(cfg, depth));
  const auto schedule = core::build_1f1b(costs, 2 * depth, cfg.comm_ms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::execute(schedule).iteration_ms);
  }
}
BENCHMARK(BM_EventExecutor)->Arg(4)->Arg(16);

void BM_EvaluateSchedule(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto& cfg = gpt2_config();
  const auto costs =
      core::stage_costs(cfg, core::balanced_partition(cfg, depth));
  const auto schedule = core::build_1f1b(costs, 2 * depth, cfg.comm_ms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_schedule(schedule).iteration_ms);
  }
}
BENCHMARK(BM_EvaluateSchedule)->Arg(4)->Arg(16);

void BM_AutoPlanFacade(benchmark::State& state) {
  const auto& cfg = gpt2_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::auto_plan(cfg, {8, 256, 0, true}).evaluation.iteration_ms);
  }
}
BENCHMARK(BM_AutoPlanFacade);

}  // namespace
