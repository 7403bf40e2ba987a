// The five benchmark workloads and the per-layer probes of traced runs.
//
// Every workload makes its inputs from the run seed, sets itself up
// several times (the median is `setup_s`), measures for the requested
// seconds and checks its outputs. With a tracer, spans wrap each call into
// the library; the layer probes then time each module's public functions
// directly and fill the per-layer metric table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir;  ///< scratch space for checkpoints and trace files
};

/// Busy-thread budget of a workload (recorded with every result).
struct ThreadBudget {
  int stage_threads = 0;
  int kernel_pool_threads = 0;
  int service_workers = 0;
  int client_threads = 0;
  int planner_threads = 0;
};

/// What one workload run measured.
struct Outcome {
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  /// Throughput in tokens/s (train*) or plans/s (plan*), and latency.
  OpStats ops{1, 0, 90};
  std::string throughput_unit;     ///< "tokens/s" or "plans/s"
  std::string latency_unit;        ///< what one latency sample times
  /// Process peak RSS read when the measured loop ends, before the
  /// correctness check builds its own reference model.
  double peak_rss_mb = 0;
  FailureTally tally;
  bool correct = true;
  std::vector<std::string> notes;  ///< human-readable findings
  ThreadBudget threads;
};

Outcome run_train(const RunArgs& args, Tracer* tracer, double seconds);
Outcome run_train_durable(const RunArgs& args, Tracer* tracer, double seconds);
Outcome run_plan_storm(const RunArgs& args, Tracer* tracer, double seconds);
Outcome run_plan_robust(const RunArgs& args, Tracer* tracer, double seconds);

/// model / runtime / sim(Table II) / guard / ckpt / supervisor layers,
/// timed on the workload's own training shape (the `train` shape for
/// workloads that do not train).
void probe_training_layers(const RunArgs& args, Tracer& tracer,
                           MetricSet& out);
/// service / core / sim.execute / faults layers on the plan_storm request
/// mix and the plan_robust case list.
void probe_planning_layers(const RunArgs& args, Tracer& tracer,
                           MetricSet& out);

/// Longest a measured loop may run while it still lacks the samples its
/// tail percentile needs: one run must end within 180 s.
inline double hard_cap_s(double seconds) { return seconds > 60 ? seconds : 60; }

}  // namespace perfbench
