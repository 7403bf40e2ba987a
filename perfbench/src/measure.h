// Sample statistics and failure accounting shared by every workload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile of `xs`, q in [0, 100]. Empty input -> 0.
double percentile(std::vector<double> xs, double q);
double median(std::span<const double> xs);

/// The tail-percentile rule: a percentile q is reportable only when at
/// least ten samples lie beyond it, i.e. n * (1 - q/100) >= 10.
bool tail_supported(std::size_t samples, double q);
/// Fewest samples for which percentile q is reportable.
std::size_t min_samples_for_tail(double q);

/// Per-operation samples of a measured loop, folded into consecutive
/// windows as they arrive: throughput over windows of `rate_window`
/// operations, latency percentiles over windows of `latency_window` samples
/// (0: one window, the whole run). Reported values are medians over the
/// windows, which a burst of interference from outside the process moves
/// less than a whole-run average; and memory stays bounded by one window
/// however many operations a run completes. Not thread-safe.
class OpStats {
 public:
  OpStats(std::size_t rate_window, std::size_t latency_window, double tail_q);

  /// One completed operation: `end_s` seconds after the loop began
  /// (non-decreasing), taking `latency_ms`, completing `units` of work.
  void add(double end_s, double latency_ms, double units);

  std::size_t count() const { return count_; }
  double tail_q() const { return tail_q_; }
  /// Samples behind each latency percentile.
  std::size_t latency_window() const;
  /// Units/s: median over rate windows (the whole run if it is shorter).
  double throughput_per_s() const;
  /// Units/s over the whole run.
  double overall_per_s() const;
  double p50_ms() const;
  double tail_ms() const;

 private:
  double latency_percentile(const std::vector<double>& per_window,
                            double q) const;

  std::size_t rate_window_, latency_window_;
  double tail_q_;
  std::size_t count_ = 0;
  double total_units_ = 0, last_end_s_ = 0;
  std::size_t window_ops_ = 0;
  double window_units_ = 0, window_start_s_ = 0;
  std::vector<double> rates_;
  std::vector<double> buffer_;  ///< latencies of the open latency window
  std::vector<double> p50s_, tails_;
};

/// Failure accounting of one workload run. `attempted` counts operations
/// (training steps, plan requests, robust plans); `failed` the ones whose
/// result was missing or wrong (error/busy replies, steps that never
/// completed, correctness mismatches). Supervisor recovery actions on an
/// unfaulted run are failures too, but of attempts inside an operation the
/// supervisor then completed: they widen `failed_share` without marking an
/// operation as failed.
struct FailureTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t recovery_actions = 0;

  /// (failed + recovery_actions) / (attempted + recovery_actions): every
  /// recovery action is one more attempt that failed. 0 when nothing ran.
  double failed_share() const;
  FailureTally& operator+=(const FailureTally& other);
};

}  // namespace perfbench
