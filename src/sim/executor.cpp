#include "sim/executor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/rng.h"

namespace autopipe::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ExecResult execute(const core::Schedule& schedule, const ExecOptions& options) {
  core::validate(schedule);
  const int n = schedule.num_stages;

  // A null or empty FaultPlan reaches the pass as a null pointer, which
  // follows the exact arithmetic of the fault-free path and keeps results
  // bit-identical (the determinism contract of DESIGN.md §6).
  const faults::FaultPlan* plan =
      options.faults && !options.faults->empty() ? options.faults : nullptr;
  if (plan) plan->validate(n, std::max(0, schedule.chunks * n - 1));
  if (!options.allreduce_ms.empty() &&
      static_cast<int>(options.allreduce_ms.size()) != n) {
    throw std::invalid_argument("allreduce_ms must have one entry per device");
  }

  // Op durations with per-op overhead and jitter, drawn in device-major
  // order.
  util::Rng rng(options.seed);
  std::vector<double> durations;
  for (int dev = 0; dev < n; ++dev) {
    for (const core::ScheduleOp& op : schedule.order[dev]) {
      double duration =
          schedule.op_duration_ms(dev, op) + options.per_op_overhead_ms;
      if (options.jitter_frac > 0) {
        duration *= 1.0 + options.jitter_frac * rng.uniform(-1.0, 1.0);
      }
      durations.push_back(duration);
    }
  }
  const core::ScheduleTiming timing =
      core::time_schedule(schedule, std::move(durations), plan);
  const int total = static_cast<int>(timing.start_ms.size());
  std::vector<TimedOp> ops;
  ops.reserve(total);
  for (int dev = 0; dev < n; ++dev) {
    for (const core::ScheduleOp& op : schedule.order[dev]) {
      const std::size_t id = ops.size();
      ops.push_back({op, dev, timing.start_ms[id], timing.end_ms[id]});
    }
  }

  // Hybrid data parallelism: each device's all-reduce starts when its last
  // op ends. Nothing depends on it, so it needs no node in the graph; a
  // device without one keeps an end of -inf.
  std::vector<int> last_op(n, -1);
  for (int id = 0; id < total; ++id) last_op[ops[id].device] = id;
  std::vector<double> allreduce_end(n, -kInf);
  for (int dev = 0; dev < n && !options.allreduce_ms.empty(); ++dev) {
    if (last_op[dev] < 0 || options.allreduce_ms[dev] <= 0) continue;
    const double start = timing.end_ms[last_op[dev]];
    const double base = options.allreduce_ms[dev];
    const double factor = plan ? plan->slowdown(dev, start) : 1.0;
    allreduce_end[dev] = start + (factor == 1.0 ? base : base * factor);
  }

  // Crash truncation: an op on a crashed device that has not *finished* by
  // the crash instant is lost, and so is every op that consumes a lost
  // op's output -- one sweep in topological order settles it. Runtime-only
  // crash triggers (after_ops with an infinite at_ms) do not touch the
  // simulated timeline.
  std::vector<double> crash_at(n, kInf);
  FailureReport failure;
  for (int dev = 0; plan && dev < n; ++dev) {
    const faults::DeviceCrash* c = plan->crash_for(dev);
    if (c && c->at_ms < kInf) {
      crash_at[dev] = c->at_ms;
      if (!failure.crashed || c->at_ms < failure.at_ms) {
        failure.crashed = true;
        failure.device = dev;
        failure.at_ms = c->at_ms;
      }
    }
  }
  std::vector<char> lost(total, 0);
  if (failure.crashed) {
    for (int id : timing.order) {
      const int dev = ops[id].device;
      const int from = timing.transfer_pred[id];
      lost[id] = timing.end_ms[id] > crash_at[dev] ||
                 (id > 0 && ops[id - 1].device == dev && lost[id - 1]) ||
                 (from >= 0 && lost[from]);
    }
  }

  ExecResult result;
  result.failure = failure;
  result.link_retries = timing.link_retries;
  result.device_busy_ms.assign(n, 0.0);
  result.trace.reserve(ops.size());
  bool startup_found = false;
  double makespan = 0;
  for (int id = 0; id < total; ++id) {
    if (lost[id]) {
      ++result.failure.lost_ops;
      continue;
    }
    ++result.failure.completed_ops;
    const TimedOp& timed = ops[id];
    result.device_busy_ms[timed.device] += timing.duration_ms[id];
    makespan = std::max(makespan, timed.end_ms);
    // Startup overhead (§II-B): when the last *device* starts computing its
    // first forward. Under the interleaved schedule that is the device's
    // first chunk -- the half-size chunks are exactly why interleaving
    // halves startup.
    if (timed.op.type == core::OpType::Forward && timed.device == n - 1 &&
        (!startup_found || timed.start_ms < result.startup_ms)) {
      result.startup_ms = timed.start_ms;
      startup_found = true;
    }
    result.trace.push_back(timed);
  }
  // All-reduce tails count toward the makespan but not toward compute busy
  // time; a tail is lost with its device's last op or by the crash.
  for (int dev = 0; dev < n; ++dev) {
    const bool tail_lost = allreduce_end[dev] > crash_at[dev] ||
                           (last_op[dev] >= 0 && lost[last_op[dev]]);
    if (!tail_lost) makespan = std::max(makespan, allreduce_end[dev]);
  }
  // A crashed iteration never finishes; report how far the pipeline got.
  result.iteration_ms =
      failure.crashed ? std::max(makespan, failure.at_ms) : makespan;
  std::sort(result.trace.begin(), result.trace.end(),
            [](const TimedOp& a, const TimedOp& b) {
              return std::tie(a.start_ms, a.device) <
                     std::tie(b.start_ms, b.device);
            });
  return result;
}

}  // namespace autopipe::sim
