#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                     static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::span<const double> xs) {
  return percentile(std::vector<double>(xs.begin(), xs.end()), 50);
}

OpStats::OpStats(std::size_t rate_window, std::size_t latency_window,
                 double tail_q)
    : rate_window_(std::max<std::size_t>(1, rate_window)),
      latency_window_(latency_window),
      tail_q_(tail_q) {
  if (latency_window_ > 0) buffer_.reserve(latency_window_);
}

void OpStats::add(double end_s, double latency_ms, double units) {
  ++count_;
  total_units_ += units;
  last_end_s_ = end_s;
  window_units_ += units;
  if (++window_ops_ == rate_window_) {
    if (end_s > window_start_s_) {
      rates_.push_back(window_units_ / (end_s - window_start_s_));
    }
    window_start_s_ = end_s;
    window_ops_ = 0;
    window_units_ = 0;
  }
  buffer_.push_back(latency_ms);
  if (latency_window_ > 0 && buffer_.size() == latency_window_) {
    p50s_.push_back(percentile(buffer_, 50));
    tails_.push_back(percentile(buffer_, tail_q_));
    buffer_.clear();
  }
}

std::size_t OpStats::latency_window() const {
  return p50s_.empty() ? buffer_.size() : latency_window_;
}

double OpStats::throughput_per_s() const {
  return rates_.empty() ? overall_per_s() : median(rates_);
}

double OpStats::overall_per_s() const {
  return last_end_s_ > 0 ? total_units_ / last_end_s_ : 0;
}

double OpStats::latency_percentile(const std::vector<double>& per_window,
                                   double q) const {
  return per_window.empty() ? percentile(buffer_, q) : median(per_window);
}

double OpStats::p50_ms() const { return latency_percentile(p50s_, 50); }

double OpStats::tail_ms() const { return latency_percentile(tails_, tail_q_); }

bool tail_supported(std::size_t samples, double q) {
  // Integer form of n * (1 - q/100) >= 10, exact for q given in hundredths.
  const auto beyond_hundredths = static_cast<long long>(
      std::llround((100.0 - q) * 100.0));
  return static_cast<long long>(samples) * beyond_hundredths >= 100000;
}

std::size_t min_samples_for_tail(double q) {
  const auto beyond_hundredths = static_cast<long long>(
      std::llround((100.0 - q) * 100.0));
  if (beyond_hundredths <= 0) return SIZE_MAX;  // no finite count suffices
  return static_cast<std::size_t>((100000 + beyond_hundredths - 1) /
                                  beyond_hundredths);
}

double FailureTally::failed_share() const {
  const std::int64_t tries = attempted + recovery_actions;
  if (tries <= 0) return 0;
  return static_cast<double>(failed + recovery_actions) /
         static_cast<double>(tries);
}

FailureTally& FailureTally::operator+=(const FailureTally& other) {
  attempted += other.attempted;
  failed += other.failed;
  recovery_actions += other.recovery_actions;
  return *this;
}

}  // namespace perfbench
