// Chaos lab: the self-healing supervisor under a seeded fault barrage
// (DESIGN.md §10).
//
//   chaos_lab soak    --dir PATH [flags]  seeded mixed-fault soak: crashes,
//                     hard hangs, stragglers, transient storms and torn
//                     checkpoint writes, all on one supervisor run. The run
//                     must COMPLETE and end bit-identical to an unfaulted
//                     run of the same step count (Replace-mode recoveries
//                     are state-exact).
//   chaos_lab hang    --dir PATH [flags]  one hard hang: a worker wedges
//                     silently mid-iteration; the plan-aware watchdog must
//                     cancel it, the incident must classify as Hang, and
//                     the finished run must still be bit-identical.
//   chaos_lab degrade --dir PATH [flags]  device loss without a spare: the
//                     supervisor reshards the newest checkpoint (or, before
//                     the first one, the live state) onto N-1 survivors
//                     (Degrade mode) and finishes within 1e-4 of the
//                     unfaulted run (same math, different gradient
//                     accumulation order).
//   chaos_lab corrupt --dir PATH [flags]  seeded silent-data-corruption
//                     soak: every scripted incident is a single bit flip
//                     (activation in flight, gradient in flight, weight or
//                     optimizer state between steps) that no fail-stop
//                     detector sees. With the guard layer on, EVERY flip
//                     must be detected, classified Corruption, recovered
//                     (retry in place for in-flight flips, verified-clean
//                     restore for state flips) and the finished run must be
//                     bit-identical to the unfaulted reference.
//                     Flags: --norm-window N adds the gradient-norm guard.
//
// Common flags: --steps N, --seed N,
// --schedule 1f1b|gpipe|sliced|interleaved|zero-bubble (--kind is an alias),
// --interval K (checkpoint every K steps), --grace-ms MS (watchdog floor),
// --budget N (restart budget). Soak: --incidents N, --straggler-ms MS.
// Degrade: --at STEP (when the device dies; 0 = before any checkpoint),
// --oracle "c0,c1" (explicit partition override, the plan-oracle hook),
// --plan-socket PATH [--timeout-ms MS] (consult a running plan_serve daemon;
// the daemon plans zoo models, so for this toy model its answer is rejected
// by shape and the supervisor demonstrably falls back to the local
// replanner instead of dying or blocking).
//
// Every verb exits 0 only when its acceptance property held; failures
// print `error: ...` on stderr and exit 1.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "costmodel/analytic.h"
#include "costmodel/memory.h"
#include "runtime/train_session.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace autopipe;

/// The CPU-scale transformer every verb trains: 3 layers -> 8 blocks,
/// enough for a 3-stage pipeline with headroom to degrade to 2.
model::TinySpec tiny_spec() {
  model::TinySpec s;
  s.layers = 3;
  s.hidden = 16;
  s.heads = 2;
  s.vocab = 32;
  s.seq = 4;
  return s;
}

/// The analytic ModelConfig describing the same block array as tiny_spec()
/// -- what restores and degraded replans re-partition.
costmodel::ModelConfig tiny_config() {
  const model::TinySpec t = tiny_spec();
  costmodel::ModelSpec spec;
  spec.name = "tiny";
  spec.num_layers = t.layers;
  spec.hidden = t.hidden;
  spec.heads = t.heads;
  spec.vocab = t.vocab;
  spec.default_seq = t.seq;
  spec.causal = t.causal;
  return costmodel::build_model_config(spec, {4, 0, true});
}

/// Largest |a - b| across two captured states' parameters, or 1e30 on any
/// structural mismatch (the degraded path compares with a tolerance because
/// a different partition accumulates gradients in another order).
double max_param_diff(const ckpt::TrainState& a, const ckpt::TrainState& b) {
  double worst = 0;
  if (a.blocks.size() != b.blocks.size()) return 1e30;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].params.size() != b.blocks[i].params.size()) return 1e30;
    for (std::size_t p = 0; p < a.blocks[i].params.size(); ++p) {
      const auto& pa = a.blocks[i].params[p];
      const auto& pb = b.blocks[i].params[p];
      if (pa.value.size() != pb.value.size()) return 1e30;
      for (std::size_t k = 0; k < pa.value.size(); ++k) {
        worst = std::max(worst, std::fabs(static_cast<double>(pa.value[k]) -
                                          static_cast<double>(pb.value[k])));
      }
    }
  }
  return worst;
}

/// Shared session shape: the supervised run and the unfaulted reference use
/// identical options except for checkpointing and fault hooks.
runtime::TrainSessionOptions base_session(const util::Cli& cli) {
  runtime::TrainSessionOptions opts;
  opts.spec = tiny_spec();
  opts.counts = {2, 3, 3};
  // --schedule is the canonical spelling (shared parse_schedule_kind
  // grammar: 1f1b|gpipe|interleaved|sliced|zero-bubble); --kind stays as a
  // compatible alias.
  opts.kind = costmodel::parse_schedule_kind(
      cli.get("schedule", cli.get("kind", "1f1b")));
  opts.sliced =
      opts.kind == costmodel::ScheduleKind::AutoPipeSliced ? 1 : 0;
  opts.micro_batch = 2;
  opts.num_micro_batches = 6;
  return opts;
}

supervisor::SupervisorOptions base_supervisor(const util::Cli& cli,
                                              const std::string& dir,
                                              int steps) {
  supervisor::SupervisorOptions o;
  o.session = base_session(cli);
  o.session.ckpt_dir = dir;
  o.session.ckpt_interval = cli.checked_int("interval", 2, 1, 1 << 20);
  o.session.ckpt_keep = 3;
  o.config = tiny_config();
  o.target_steps = steps;
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 1500.0, 50.0, 1e6);
  return o;
}

struct Reference {
  ckpt::TrainState state;
  std::vector<double> losses;
};

/// Unfaulted reference run to the same step count (no checkpointing -- the
/// verification leg must not disturb the soak's checkpoint directory).
Reference reference_run(const util::Cli& cli, int steps) {
  runtime::TrainSession ref(base_session(cli));
  for (int i = 0; i < steps; ++i) ref.step();
  return {ref.capture(), ref.losses()};
}

void print_report(const supervisor::SupervisorReport& report) {
  util::Table t({"step", "class", "action", "device", "detect (ms)",
                 "downtime (ms)"});
  for (const supervisor::Incident& inc : report.incidents) {
    t.add_row({std::to_string(inc.step), supervisor::to_string(inc.cls),
               supervisor::to_string(inc.action),
               inc.device >= 0 ? std::to_string(inc.device) : "-",
               util::Table::fmt(inc.detect_ms),
               util::Table::fmt(inc.downtime_ms)});
  }
  std::printf("%s", t.to_ascii().c_str());
  std::map<std::string, int> per_class;
  for (const supervisor::Incident& inc : report.incidents) {
    ++per_class[supervisor::to_string(inc.cls)];
  }
  std::string classes;
  for (const auto& [name, n] : per_class) {
    if (!classes.empty()) classes += ", ";
    classes += name + " x" + std::to_string(n);
  }
  std::printf("%zu incident(s) (%s), %d recovery action(s), "
              "total downtime %.1f ms\n",
              report.incidents.size(),
              classes.empty() ? "none" : classes.c_str(),
              report.recovery_actions, report.total_downtime_ms);
}

/// Asserts the supervised run ended bit-identical to `ref` -- the Replace-
/// mode acceptance property: every recovery was state-exact.
int check_bit_identical(const supervisor::Supervisor& sup,
                        const supervisor::SupervisorReport& report,
                        const Reference& ref) {
  const ckpt::TrainState got = sup.session().capture();
  const ckpt::TrainState& want = ref.state;
  if (got.blocks != want.blocks || got.data_rng != want.data_rng ||
      got.adam_t != want.adam_t) {
    std::fprintf(stderr, "error: final state diverged from the unfaulted "
                         "run (recoveries were not state-exact)\n");
    return 1;
  }
  for (std::size_t i = 0; i < report.losses.size(); ++i) {
    if (report.losses[i] != ref.losses[i]) {
      std::fprintf(stderr,
                   "error: loss at step %zu diverged (%.17g vs %.17g)\n",
                   i + 1, report.losses[i], ref.losses[i]);
      return 1;
    }
  }
  std::printf("final state and all %zu per-step losses bit-identical to "
              "the unfaulted run\n", report.losses.size());
  return 0;
}

int do_soak(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 12, 1, 1 << 20);
  const int incidents = cli.checked_int("incidents", 6, 0, 1 << 20);
  const auto seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));

  supervisor::ChaosScriptOptions copts;
  copts.steps = steps;
  copts.devices = 3;
  copts.ops_per_device = 12;  // 2 * num_micro_batches ops per device
  copts.incidents = incidents;
  copts.straggler_delay_ms =
      cli.checked_double("straggler-ms", 40.0, 0.0, 1e6);
  const supervisor::ChaosScript script =
      supervisor::ChaosScript::sample(copts, seed);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  o.chaos = &script;
  o.restart_budget =
      cli.checked_int("budget", 2 * incidents + 6, 1, 1 << 20);

  std::printf("soak: %d step(s), %zu scripted event(s), seed %llu\n", steps,
              script.events.size(),
              static_cast<unsigned long long>(seed));
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: soak aborted at step %d: %s\n",
                 report.steps_done, report.abort_reason.c_str());
    return 1;
  }
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

int do_hang(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 4, 2, 1 << 20);

  supervisor::ChaosScript script;
  supervisor::ChaosEvent ev;
  ev.step = cli.checked_int("at", 1, 0, steps - 1);
  ev.kind = supervisor::ChaosKind::Hang;
  ev.device = cli.checked_int("device", 1, 0, 2);
  ev.op_index = 2;
  script.events.push_back(ev);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  o.chaos = &script;
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 800.0, 50.0, 1e6);

  std::printf("hang: device %d wedges silently at step %d; watchdog grace "
              "%.0f ms\n", ev.device, ev.step + 1, o.watchdog.grace_ms);
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: run aborted: %s\n",
                 report.abort_reason.c_str());
    return 1;
  }
  const auto hangs = report.of_class(supervisor::IncidentClass::Hang);
  if (hangs.empty()) {
    std::fprintf(stderr, "error: the hang was never classified as Hang\n");
    return 1;
  }
  std::printf("watchdog detected the hang in %.1f ms (device %d)\n",
              hangs.front()->detect_ms, hangs.front()->device);
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

/// Parses "c0,c1,..." into counts; throws on junk.
std::vector<int> parse_counts(const std::string& text) {
  std::vector<int> counts;
  std::string token;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ',') {
      token.push_back(text[i]);
      continue;
    }
    counts.push_back(std::stoi(token));
    token.clear();
  }
  return counts;
}

/// Deadline-bounded plan query against a running plan_serve daemon: connect,
/// send one request, poll for the response, extract its counts= token.
/// Throws on timeout or a malformed answer -- the supervisor treats a
/// throwing oracle as "consult failed, fall back to the local planner".
std::vector<int> query_plan_daemon(const std::string& socket_path,
                                   double timeout_ms, int num_gpus) {
  using clock_t_ = std::chrono::steady_clock;
  const clock_t_::time_point deadline =
      clock_t_::now() + std::chrono::duration_cast<clock_t_::duration>(
                            std::chrono::duration<double, std::milli>(
                                timeout_ms));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("could not connect to " + socket_path);
  }
  const std::string request = "plan id=chaos model=gpt2-345m gpus=" +
                              std::to_string(num_gpus) + " gbs=64\n";
  std::size_t done = 0;
  while (done < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + done, request.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("write to daemon failed");
    }
    done += static_cast<std::size_t>(n);
  }
  std::string response;
  char c;
  while (true) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - clock_t_::now());
    if (remaining.count() <= 0) {
      ::close(fd);
      throw std::runtime_error("plan daemon did not answer within " +
                               std::to_string(timeout_ms) + " ms");
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno != EINTR) {
      ::close(fd);
      throw std::runtime_error("poll on daemon connection failed");
    }
    if (ready <= 0) continue;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("read from daemon failed");
    }
    if (n == 0) {
      ::close(fd);
      throw std::runtime_error("daemon closed the connection");
    }
    if (c == '\n') break;
    response.push_back(c);
  }
  ::close(fd);
  const std::size_t at = response.find("counts=");
  if (response.rfind("ok ", 0) != 0 || at == std::string::npos) {
    throw std::runtime_error("daemon answered '" + response + "'");
  }
  const std::size_t end = response.find(' ', at);
  return parse_counts(response.substr(
      at + 7, end == std::string::npos ? std::string::npos : end - at - 7));
}

int do_degrade(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 6, 2, 1 << 20);

  supervisor::ChaosScript script;
  supervisor::ChaosEvent ev;
  ev.step = cli.checked_int("at", 3, 0, steps - 1);
  ev.kind = supervisor::ChaosKind::Crash;
  ev.device = cli.checked_int("device", 2, 0, 2);
  ev.op_index = 1;
  script.events.push_back(ev);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  o.chaos = &script;
  o.mode = supervisor::RecoveryMode::Degrade;

  if (cli.has("oracle")) {
    // Explicit partition override: what an external planner would answer.
    const std::vector<int> counts = parse_counts(cli.get("oracle", ""));
    o.plan_oracle = [counts](int) { return counts; };
  } else if (cli.has("plan-socket")) {
    const std::string socket_path = cli.get("plan-socket", "");
    const double timeout_ms =
        cli.checked_double("timeout-ms", 2000.0, 1.0, 3600000.0);
    o.plan_oracle = [socket_path, timeout_ms](int num_gpus) {
      return query_plan_daemon(socket_path, timeout_ms, num_gpus);
    };
  }

  std::printf("degrade: device %d dies at step %d; recovering onto 2 "
              "survivors\n", ev.device, ev.step + 1);
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: run aborted: %s\n",
                 report.abort_reason.c_str());
    return 1;
  }
  std::string counts;
  for (int c : report.final_counts) {
    if (!counts.empty()) counts += ' ';
    counts += std::to_string(c);
  }
  std::printf("finished on %zu device(s) (partition [%s])\n",
              report.final_counts.size(), counts.c_str());
  if (report.final_counts.size() != 2) {
    std::fprintf(stderr, "error: expected a 2-stage degraded partition\n");
    return 1;
  }
  const Reference ref = reference_run(cli, steps);
  const double diff = max_param_diff(sup.session().capture(), ref.state);
  std::printf("max param diff vs unfaulted 3-device run: %.3g\n", diff);
  if (diff > 1e-4) {
    std::fprintf(stderr, "error: degraded recovery diverged (%.3g > 1e-4)\n",
                 diff);
    return 1;
  }
  std::printf("degraded run matches the unfaulted run within 1e-4\n");
  return 0;
}

int do_corrupt(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 24, 1, 1 << 20);
  const int incidents = cli.checked_int("incidents", 8, 0, 1 << 20);
  const auto seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));
  const int norm_window = cli.checked_int("norm-window", 0, 0, 1 << 20);

  supervisor::ChaosScriptOptions copts;
  copts.steps = steps;
  copts.devices = 3;
  copts.ops_per_device = 12;
  copts.incidents = incidents;
  copts.classes = {supervisor::ChaosKind::CorruptActivation,
                   supervisor::ChaosKind::CorruptGradient,
                   supervisor::ChaosKind::CorruptWeight,
                   supervisor::ChaosKind::CorruptOptimizer};
  const supervisor::ChaosScript script =
      supervisor::ChaosScript::sample(copts, seed);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  // Checkpoint every step so a state flip always has a verified-clean
  // checkpoint at most one step old to restore from.
  o.session.ckpt_interval = cli.checked_int("interval", 1, 1, 1 << 20);
  // The full guard stack: handoff CRCs catch in-flight flips, the weight
  // sentinel catches state flips, the non-finite scan backstops both. The
  // norm guard stays opt-in (--norm-window): a flipped exponent usually
  // also trips it, which would double-count detections in the 1:1 ledger.
  o.session.guard.handoff_crc = true;
  o.session.guard.nonfinite_checks = true;
  o.session.guard.weight_interval = 1;
  o.session.guard.norm_window = norm_window;
  o.chaos = &script;
  o.restart_budget =
      cli.checked_int("budget", 2 * incidents + 6, 1, 1 << 20);
  // No hangs are scripted here and every detection is a CRC/sentinel check,
  // not a silence deadline -- so give the watchdog a long leash to keep
  // slow sanitizer builds from false-firing mid-detection.
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 10000.0, 50.0, 1e6);

  std::printf("corrupt: %d step(s), %zu scripted bit flip(s), seed %llu\n",
              steps, script.events.size(),
              static_cast<unsigned long long>(seed));
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: corruption soak aborted at step %d: %s\n",
                 report.steps_done, report.abort_reason.c_str());
    return 1;
  }
  const auto caught = report.of_class(supervisor::IncidentClass::Corruption);
  if (caught.size() != script.events.size()) {
    std::fprintf(stderr,
                 "error: %zu bit flip(s) injected but only %zu incident(s) "
                 "classified corruption (an escape or a double-count)\n",
                 script.events.size(), caught.size());
    return 1;
  }
  std::printf("all %zu injected corruption(s) detected and classified "
              "Corruption\n", caught.size());
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s soak|hang|degrade|corrupt --dir PATH [flags]\n",
                 argv[0]);
    return 2;
  }
  const std::string verb = cli.positional()[0];
  try {
    const std::string dir = cli.get("dir", "");
    if (dir.empty()) {
      throw std::invalid_argument(verb + " needs --dir PATH");
    }
    // Each run owns its checkpoint directory: stale checkpoints from a past
    // soak would otherwise change what a restore finds.
    std::filesystem::remove_all(dir);
    if (verb == "soak") return do_soak(cli, dir);
    if (verb == "hang") return do_hang(cli, dir);
    if (verb == "degrade") return do_degrade(cli, dir);
    if (verb == "corrupt") return do_corrupt(cli, dir);
    throw std::invalid_argument("unknown verb '" + verb + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
