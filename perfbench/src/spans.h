// In-memory span recorder for traced benchmark runs.
//
// Spans wrap the benchmark's own calls into the library's public functions
// (TrainSession::step, Block::forward, PlanService::handle_line, core::plan,
// sim::execute, ...): name, start, end, the enclosing span and a request id
// shared by the spans of one request. They are kept in memory and written
// out after the run as a Chrome trace (chrome://tracing / Perfetto, the
// same viewer workflow as trace::write_chrome_trace) beside a per-name
// table of counts, total and self time.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds, and seconds elapsed since such a reading.
std::int64_t steady_now_ns();
double seconds_since(std::int64_t start_ns);

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  int id = -1;
  int parent = -1;           ///< -1: a root span
  std::int64_t request = -1; ///< -1: not part of a request
  int thread = 0;            ///< small per-thread index, for the viewer
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Steady-clock ns of the tracer's time origin.
  std::int64_t epoch_ns() const { return epoch_ns_; }
  /// Stores one finished span (nothing when disabled).
  void record(SpanRecord span);
  /// Reserves an id for a span that is still open, so children can name it
  /// as their parent before it is recorded.
  int reserve_id();
  std::vector<SpanRecord> spans() const;

 private:
  bool enabled_;
  std::int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int next_id_ = 0;
};

/// RAII span. Times its scope whether or not tracing is on (ms() is the
/// measurement), and records it only on an enabled tracer. The parent is
/// the innermost open Span on this thread unless given explicitly.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t request = -1,
       int parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  /// Elapsed ms so far (final once the scope ends).
  double ms() const;

  static constexpr int kInheritParent = -2;

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t request_;
  int id_ = -1;
  int parent_ = -1;
  std::int64_t start_ns_;
  Span* outer_;
};

struct SpanStat {
  std::string name;
  long count = 0;
  double total_ms = 0;
  /// Duration minus the part of it covered by the span's own children.
  double self_ms = 0;
};

/// Per-name totals, in first-seen order.
std::vector<SpanStat> span_stats(const std::vector<SpanRecord>& spans);

std::string to_chrome_trace(const std::vector<SpanRecord>& spans);
/// Writes `text` to `path`; false (with nothing thrown) on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace perfbench
