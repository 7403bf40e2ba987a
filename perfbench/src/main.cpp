// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload train|train_zb|train_durable|plan_storm|plan_robust
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced and then traced for half the time each (the
// gap is trace.overhead_pct), then times every layer's public functions
// and prints the per-layer metrics; the spans go to DIR as a Chrome trace
// beside a per-layer table. Human-readable lines come first; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
// Exit codes: 0 ran (see "correct"), 1 runtime error, 2 usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "host.h"
#include "measure.h"
#include "model/ops.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|train_zb|train_durable|plan_storm|plan_robust --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               msg);
  return 2;
}

Outcome run(const RunArgs& args, Tracer* tracer, double seconds) {
  if (args.workload == "train" || args.workload == "train_zb") {
    return run_train(args, tracer, seconds);
  }
  if (args.workload == "train_durable") {
    return run_train_durable(args, tracer, seconds);
  }
  if (args.workload == "plan_storm") {
    return run_plan_storm(args, tracer, seconds);
  }
  return run_plan_robust(args, tracer, seconds);
}

/// The workload's own names for its end-to-end metrics, for the summary.
struct Names {
  const char* throughput;
  const char* p50;
  const char* tail;
};

Names names_of(const std::string& workload) {
  if (workload == "train" || workload == "train_zb") {
    return {"tokens_per_s", "step_ms_p50", "step_ms_p90"};
  }
  if (workload == "train_durable") {
    return {"tokens_per_s", "step_ms_p50", "step_ms_p75"};
  }
  if (workload == "plan_storm") {
    return {"plans_per_s", "plan_ms_p50", "plan_ms_p99"};
  }
  return {"robust_plans_per_s", "plan_ms_p50", "plan_ms_p75"};
}

void print_provenance(const RunArgs& args, const Outcome& o, double peak,
                      double steal) {
  std::printf(
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"git_sha\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"isa\":\"%s\",\"nproc\":%d,"
      "\"stage_threads\":%d,\"kernel_pool_threads\":%d,"
      "\"service_workers\":%d,\"client_threads\":%d,"
      "\"planner_threads\":%d,\"host_peak_gflops\":%.3f,"
      "\"steal_pct\":%.2f}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, PERFBENCH_GIT_SHA,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, detected_isa().c_str(),
      nproc(), o.threads.stage_threads, o.threads.kernel_pool_threads,
      o.threads.service_workers, o.threads.client_threads,
      o.threads.planner_threads, peak, steal);
}

void print_summary(const RunArgs& args, const Outcome& o) {
  const Names n = names_of(args.workload);
  std::printf("%-20s %14.4f %s\n", "setup_s", median(o.setup_s), "s");
  std::printf("%-20s %14.4f %s (median over windows; %.4f over the run)\n",
              n.throughput, o.ops.throughput_per_s(),
              o.throughput_unit.c_str(), o.ops.overall_per_s());
  std::printf("%-20s %14.4f ms (%s; windows of %zu of %zu samples)\n", n.p50,
              o.ops.p50_ms(), o.latency_unit.c_str(), o.ops.latency_window(),
              o.ops.count());
  std::printf("%-20s %14.4f ms (%zu samples beyond it per window)\n", n.tail,
              o.ops.tail_ms(),
              static_cast<std::size_t>(std::llround(
                  o.ops.latency_window() * (1.0 - o.ops.tail_q() / 100.0))));
  std::printf("%-20s %14.6f (%lld failed + %lld recovery actions over %lld "
              "attempted)\n",
              "failed_share", o.tally.failed_share(),
              static_cast<long long>(o.tally.failed),
              static_cast<long long>(o.tally.recovery_actions),
              static_cast<long long>(o.tally.attempted));
  std::printf("%-20s %14.4f MB\n", "peak_rss_mb", o.peak_rss_mb);
  for (const std::string& note : o.notes) {
    std::printf("note: %s\n", note.c_str());
  }
}

std::string layer_table(const MetricSet& metrics,
                        const std::vector<SpanRecord>& spans) {
  std::string out = "# per-layer metrics\n";
  char buf[256];
  for (const Metric& m : metrics.all()) {
    std::snprintf(buf, sizeof(buf), "%-40s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  out += "\n# spans: name, count, total ms, self ms\n";
  for (const SpanStat& s : span_stats(spans)) {
    std::snprintf(buf, sizeof(buf), "%-40s %8ld %14.3f %14.3f\n",
                  s.name.c_str(), s.count, s.total_ms, s.self_ms);
    out += buf;
  }
  return out;
}

int run_main(const RunArgs& args) {
  // Kernels run inline on the calling (stage) thread. A panel pool hands
  // every GEMM panel to another thread, and on a shared host each handoff
  // can wait out CPU steal: over eight back-to-back 20-step samples the
  // `train` step median ranged 217-287 ms with 2 pool workers and
  // 251-284 ms inline.
  autopipe::model::set_ops_threads(1);
  const CpuTimes cpu_start = cpu_times();
  const double peak = peak_gflops();
  MetricSet metrics;
  Outcome o;
  if (!args.trace) {
    o = run(args, nullptr, args.seconds);
    if (!tail_supported(o.ops.latency_window(), o.ops.tail_q())) {
      std::fprintf(stderr, "perfbench: %zu samples cannot support p%g\n",
                   o.ops.latency_window(), o.ops.tail_q());
      o.correct = false;
    }
    metrics.add("setup_s", median(o.setup_s), "s");
    metrics.add("throughput_per_s", o.ops.throughput_per_s(), "1/s");
    metrics.add("latency_ms_p50", o.ops.p50_ms(), "ms");
    metrics.add("latency_ms_tail", o.ops.tail_ms(), "ms");
    metrics.add("peak_rss_mb", o.peak_rss_mb, "MB");
  } else {
    o = run(args, nullptr, args.seconds / 2);
    Tracer tracer(true);
    Outcome traced = run(args, &tracer, args.seconds / 2);
    const double overhead_pct =
        100.0 * (o.ops.throughput_per_s() / traced.ops.throughput_per_s() -
                 1.0);
    o.tally += traced.tally;
    o.correct = o.correct && traced.correct;
    probe_training_layers(args, tracer, metrics);
    probe_planning_layers(args, tracer, metrics);
    metrics.add("host.peak_gflops", peak, "GFLOP/s");
    metrics.add("failed_share", o.tally.failed_share(), "share");
    metrics.add("trace.overhead_pct", overhead_pct, "%");

    const std::vector<SpanRecord> spans = tracer.spans();
    const std::string stem = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed);
    if (!write_text_file(stem + ".json", to_chrome_trace(spans)) ||
        !write_text_file(stem + ".layers.txt", layer_table(metrics, spans))) {
      std::fprintf(stderr, "perfbench: cannot write %s.*\n", stem.c_str());
      return 1;
    }
    std::printf("trace: %s.json (%zu spans), table: %s.layers.txt\n",
                stem.c_str(), spans.size(), stem.c_str());
  }
  print_provenance(args, o, peak, steal_pct(cpu_start, cpu_times()));
  print_summary(args, o);
  std::printf("%s\n", result_line(o.correct, o.tally.attempted,
                                  o.tally.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 60) {
        return usage("--seconds must be in (0, 60]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
      have_out = true;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload || !have_out) {
    return usage("--workload and --out-dir are required");
  }
  if (args.workload != "train" && args.workload != "train_zb" &&
      args.workload != "train_durable" && args.workload != "plan_storm" &&
      args.workload != "plan_robust") {
    return usage(("unknown workload " + args.workload).c_str());
  }
  try {
    std::filesystem::create_directories(args.out_dir);
    return run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
