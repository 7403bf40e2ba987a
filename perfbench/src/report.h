// Metric naming and the one-line JSON result every run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Metric-name grammar: 1..64 characters from [A-Za-z0-9_.-], starting
/// with a letter or a digit.
bool valid_metric_name(std::string_view name);
/// Unit grammar: 1..16 characters from [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric set. add() rejects (std::invalid_argument) a malformed
/// name or unit, a duplicate name and a non-finite value.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// with every value printed at full precision.
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

}  // namespace perfbench
