#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

bool all_of(std::string_view s, std::string_view extra) {
  for (const char c : s) {
    if (!alnum(c) && extra.find(c) == std::string_view::npos) return false;
  }
  return true;
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  return !name.empty() && name.size() <= 64 && alnum(name.front()) &&
         all_of(name, "_.-");
}

bool valid_unit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && all_of(unit, "_/%.-");
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("malformed metric name: '" + name + "'");
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("malformed unit for " + name + ": '" + unit +
                                "'");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  metrics_.push_back({name, value, unit});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const Metric& m : metrics.all()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    // Names and units are validated to need no JSON escaping.
    out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
