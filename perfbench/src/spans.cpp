#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Innermost open Span on this thread (the default parent of a new one).
thread_local Span* t_innermost = nullptr;

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return (steady_now_ns() - start_ns) / 1e9;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_ns_(steady_now_ns()) {}

int Tracer::reserve_id() {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(Tracer* tracer, const char* name, std::int64_t request,
           int parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      request_(request),
      start_ns_(steady_now_ns()),
      outer_(t_innermost) {
  if (tracer_ != nullptr) {
    id_ = tracer_->reserve_id();
    parent_ = parent != kInheritParent
                  ? parent
                  : (outer_ != nullptr ? outer_->id_ : -1);
  }
  t_innermost = this;
}

Span::~Span() {
  t_innermost = outer_;
  if (tracer_ == nullptr) return;
  const std::int64_t end = steady_now_ns();
  SpanRecord r;
  r.name = name_;
  r.start_ns = start_ns_ - tracer_->epoch_ns();
  r.end_ns = end - tracer_->epoch_ns();
  r.id = id_;
  r.parent = parent_;
  r.request = request_;
  r.thread = thread_index();
  tracer_->record(std::move(r));
}

double Span::ms() const { return (steady_now_ns() - start_ns_) / 1e6; }

std::vector<SpanStat> span_stats(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<SpanStat> out;
  std::map<std::string, std::size_t> index;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t run_lo = 0, run_hi = -1;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    const auto [pos, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(SpanStat{s.name, 0, 0, 0});
    SpanStat& st = out[pos->second];
    const double dur_ms = (s.end_ns - s.start_ns) / 1e6;
    ++st.count;
    st.total_ms += dur_ms;
    st.self_ms += dur_ms - covered / 1e6;
  }
  return out;
}

std::string to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) os << ",";
    first = false;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    os << "{\"name\":";
    append_json_string(os, s.name);
    os << ",\"cat\":";
    append_json_string(os, layer);
    os << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.thread
       << ",\"ts\":" << s.start_ns / 1e3
       << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  return os.str();
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
