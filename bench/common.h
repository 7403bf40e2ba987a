// Shared helpers for the per-table/figure benchmark harnesses.
//
// Every harness prints the same rows/series the paper reports. Numbers are
// produced by the discrete-event executor with the RTX-3090 launch-overhead
// profile ("actual run" conditions); OOM cells come from the memory model.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "core/autopipe.h"
#include "core/planner.h"
#include "core/slicer.h"
#include "costmodel/memory.h"
#include "model/ops.h"
#include "planners/megatron.h"
#include "sim/executor.h"
#include "util/table.h"

// Build provenance, injected by bench/CMakeLists.txt so every harness can
// stamp its output; "unknown" outside a git checkout / multi-config build.
#ifndef AUTOPIPE_GIT_SHA
#define AUTOPIPE_GIT_SHA "unknown"
#endif
#ifndef AUTOPIPE_BUILD_TYPE
#define AUTOPIPE_BUILD_TYPE "unknown"
#endif

namespace autopipe::bench {

/// One JSON metadata line per harness run -- git SHA, build type, hardware
/// thread count and the GEMM tile ISA the kernels dispatched to -- so
/// archived bench output stays attributable to the binary and CPU path
/// that produced it.
inline void emit_metadata(const std::string& bench_name) {
  std::printf(
      "{\"bench\":\"%s\",\"meta\":1,\"git_sha\":\"%s\","
      "\"build_type\":\"%s\",\"hw_threads\":%u,\"kernel_isa\":\"%s\"}\n",
      bench_name.c_str(), AUTOPIPE_GIT_SHA, AUTOPIPE_BUILD_TYPE,
      std::thread::hardware_concurrency(), model::kernel_isa());
}

inline core::ModelConfig config_for(const std::string& model, int mbs) {
  return costmodel::build_model_config(costmodel::model_by_name(model),
                                       {mbs, 0, true});
}

inline sim::ExecOptions actual_run_options(const core::ModelConfig& cfg) {
  sim::ExecOptions opts;
  opts.per_op_overhead_ms = cfg.device.kernel_launch_ms;
  return opts;
}

/// Does `partition` fit device memory under `kind` with m micro-batches?
inline bool fits(const core::ModelConfig& cfg,
                 const core::Partition& partition,
                 costmodel::ScheduleKind kind, int m, int chunks = 1) {
  const int n = partition.num_stages();
  std::vector<costmodel::StageFootprint> stages(n);
  for (int s = 0; s < n; ++s) {
    stages[s].param_bytes = core::stage_param_bytes(cfg, partition, s);
    stages[s].stash_bytes = core::stage_stash_bytes(cfg, partition, s);
    stages[s].work_bytes = core::stage_work_bytes(cfg, partition, s);
  }
  return costmodel::fits_memory(stages, kind, m, chunks,
                                cfg.device.mem_capacity_bytes);
}

struct VariantTimes {
  double megatron = 0;  ///< uniform partition, plain 1F1B
  double slicer = 0;    ///< uniform partition + micro-batch slicing
  double planner = 0;   ///< planned partition, plain 1F1B
  double autopipe = 0;  ///< planned partition + micro-batch slicing
  bool megatron_oom = false;
};

/// Times the four Fig. 9/10 variants of one (model, depth, m) cell on the
/// event executor.
inline VariantTimes time_variants(const core::ModelConfig& cfg, int stages,
                                  int m) {
  VariantTimes out;
  const auto opts = actual_run_options(cfg);

  const core::Partition uniform = planners::megatron_partition(cfg, stages);
  out.megatron_oom =
      !fits(cfg, uniform, costmodel::ScheduleKind::OneFOneB, m);
  const auto uniform_costs = core::stage_costs(cfg, uniform);
  out.megatron =
      sim::execute(core::build_1f1b(uniform_costs, m, cfg.comm_ms), opts)
          .iteration_ms;
  const auto uniform_slicing =
      core::solve_slicing(uniform_costs, cfg.comm_ms, m);
  out.slicer = sim::execute(
                   core::build_sliced_1f1b(
                       uniform_costs, m, cfg.comm_ms,
                       uniform_slicing.sliced_micro_batches),
                   opts)
                   .iteration_ms;

  const auto planned = core::plan(cfg, stages, m);
  const auto costs = core::stage_costs(cfg, planned.partition);
  out.planner = sim::execute(core::build_1f1b(costs, m, cfg.comm_ms), opts)
                    .iteration_ms;
  const auto slicing = core::solve_slicing(costs, cfg.comm_ms, m);
  out.autopipe =
      sim::execute(core::build_sliced_1f1b(costs, m, cfg.comm_ms,
                                           slicing.sliced_micro_batches),
                   opts)
          .iteration_ms;
  return out;
}

inline std::string fmt_or(const std::optional<double>& v,
                          const char* fallback, int precision = 1) {
  return v ? util::Table::fmt(*v, precision) : fallback;
}

/// Prints the table and, when AUTOPIPE_CSV_DIR is set, also writes it to
/// <dir>/<name>.csv for downstream plotting.
inline void show_table(const util::Table& table, const std::string& name) {
  std::printf("%s\n", table.to_ascii().c_str());
  if (const char* dir = std::getenv("AUTOPIPE_CSV_DIR")) {
    const std::string path = std::string(dir) + "/" + name + ".csv";
    if (table.write_csv(path)) {
      std::printf("(csv written to %s)\n\n", path.c_str());
    }
  }
}

}  // namespace autopipe::bench
