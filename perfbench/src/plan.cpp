// Planning workloads (`plan_storm`, `plan_robust`) and the planning-side
// layer probes: service, core search, schedule evaluators, Monte-Carlo
// robustness.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/autopipe.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/slicer.h"
#include "costmodel/model_zoo.h"
#include "faults/robustness.h"
#include "host.h"
#include "service/plan_service.h"
#include "service/protocol.h"
#include "sim/executor.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace autopipe;

namespace {

// ---------------------------------------------------------- plan_storm

/// Three closed-loop clients keep the one planner worker saturated, so
/// plans/s measures service capacity and not thread wake-up latency, which
/// swings by a third on a shared host (2 clients + 2 workers measured a
/// 0.35 IQR share of plans/s over ten seeds; 3 + 1, under 0.1). History
/// hits are served on the client threads. Clients + workers = nproc (4).
constexpr int kStormClients = 3;
constexpr int kStormWorkers = 1;

/// Request `i` of the seeded bench_plan_service mix: a zoo model on 2-8
/// GPUs, half the requests drifted by up to +-5% in one block, most with
/// warm=auto. Drawn per index, so the stream never runs dry and any request
/// can be regenerated for the offline check.
std::string storm_request(std::uint64_t seed, std::size_t i) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
  const char* models[] = {"gpt2-345m", "gpt2-762m", "bert-large"};
  const char* warms[] = {"off", "auto", "auto", "auto"};
  const int gpus = 1 << (1 + rng.next_below(3));
  std::string line = "plan id=r" + std::to_string(i) +
                     " model=" + models[rng.next_below(3)] +
                     " gpus=" + std::to_string(gpus) +
                     " gbs=" + std::to_string(64L << rng.next_below(2)) +
                     " stages=" + std::to_string(gpus) +
                     " warm=" + warms[rng.next_below(4)];
  if (rng.next_below(2) == 0) {
    char buf[64];
    const double f = rng.uniform(0.95, 1.05);
    std::snprintf(buf, sizeof(buf), " perturb=%d:%.4f:%.4f",
                  static_cast<int>(rng.next_below(10)), f, f);
    line += buf;
  }
  return line;
}

service::ServiceOptions storm_service_options() {
  service::ServiceOptions o;
  o.workers = kStormWorkers;
  o.planner_threads = 1;
  return o;
}

struct StormResult {
  std::vector<std::pair<std::size_t, std::string>> sampled;  ///< (line, reply)
  long ok = 0, busy = 0, errors = 0;
};

/// Closed loop: each client sends its next request only after the previous
/// reply, over a static round-robin shard of request indices [first, last),
/// until `seconds` pass or the indices run out. Every reply goes into
/// `stats` (one unit of work per ok reply); every `sample_every`-th ok
/// reply, up to `max_sampled`, is kept for the offline byte-equality check.
StormResult fire_storm(service::PlanService& svc, std::uint64_t seed,
                       std::size_t first, std::size_t last, double seconds,
                       Tracer* tracer, OpStats& stats,
                       std::size_t sample_every, std::size_t max_sampled) {
  StormResult res;
  std::mutex stats_mu;
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::vector<StormResult> per(kStormClients);
  Span storm(tracer, "service.storm");
  const int storm_id = storm.id();
  const std::int64_t t0 = steady_now_ns();
  std::vector<std::thread> clients;
  for (int t = 0; t < kStormClients; ++t) {
    clients.emplace_back([&, t] {
      StormResult& mine = per[static_cast<std::size_t>(t)];
      for (std::size_t i = first + static_cast<std::size_t>(t);
           i < last && !stop.load(std::memory_order_relaxed);
           i += kStormClients) {
        const std::string line = storm_request(seed, i);
        std::string reply;
        double ms = 0;
        {
          Span span(tracer, "service.PlanService.handle_line",
                    static_cast<std::int64_t>(i), storm_id);
          reply = svc.handle_line(line);
          ms = span.ms();
        }
        const bool ok = reply.rfind("ok ", 0) == 0;
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          stats.add(seconds_since(t0), ms, ok ? 1.0 : 0.0);
        }
        if (ok) {
          if (mine.ok++ % static_cast<long>(sample_every) == 0 &&
              mine.sampled.size() < max_sampled / kStormClients) {
            mine.sampled.emplace_back(i, std::move(reply));
          }
        } else if (reply.rfind("busy ", 0) == 0) {
          ++mine.busy;
        } else {
          ++mine.errors;
        }
      }
      finished.fetch_add(1);
    });
  }
  while (seconds_since(t0) < seconds && finished.load() < kStormClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (std::thread& c : clients) c.join();
  for (StormResult& p : per) {
    for (auto& s : p.sampled) res.sampled.push_back(std::move(s));
    res.ok += p.ok;
    res.busy += p.busy;
    res.errors += p.errors;
  }
  return res;
}

/// Number of sampled replies whose canonical part differs from what
/// service::offline_response computes for the same request and warm hint.
int offline_mismatches(std::uint64_t seed, const StormResult& res) {
  int bad = 0;
  for (const auto& [index, reply] : res.sampled) {
    const service::ParsedLine parsed =
        service::parse_line(storm_request(seed, index));
    const std::string offline = service::offline_response(
        parsed.request, service::parse_warm_hint(reply));
    if (service::canonical_part(offline) != service::canonical_part(reply)) {
      ++bad;
    }
  }
  return bad;
}

// --------------------------------------------------------- plan_robust

struct RobustCase {
  const char* model;
  int stages;
  int micro_batches;
};

/// The fixed case list, at the fault_lab `robust` micro-batch size.
constexpr RobustCase kRobustCases[] = {
    {"gpt2-345m", 4, 16},  {"gpt2-762m", 8, 32}, {"gpt2-1.3b", 8, 32},
    {"bert-large", 8, 32}, {"gpt2-1.3b", 16, 64},
};
constexpr int kRobustMbs = 32;

costmodel::ModelConfig robust_config(const RobustCase& c) {
  return costmodel::build_model_config(costmodel::model_by_name(c.model),
                                       {kRobustMbs, 0, true});
}

/// fault_lab `robust` defaults: 200 trials ranked at p95 over the top-4
/// nominal schemes, its straggler distribution, planner threads 1.
core::PlannerOptions robust_options(std::uint64_t seed) {
  core::PlannerOptions o;
  o.threads = 1;
  o.robustness.trials = 200;
  o.robustness.seed = seed;
  o.robustness.quantile = 95.0;
  o.robustness.candidates = 4;
  o.robustness.dist.straggler_prob = 0.3;
  o.robustness.dist.slowdown_max = 2.0;
  o.robustness.dist.spike_prob = 0.1;
  o.robustness.dist.outage_prob = 0.05;
  return o;
}

/// The 1F1B schedule robustness re-ranking simulates for a partition.
core::Schedule one_f_one_b(const costmodel::ModelConfig& cfg,
                           const core::Partition& p, int micro_batches) {
  const std::vector<core::StageCost> costs = core::stage_costs(cfg, p);
  return core::build_schedule(costmodel::ScheduleKind::OneFOneB, costs,
                              micro_batches, core::CommModel(cfg.comm_ms));
}

}  // namespace

// ============================================================ plan_storm

Outcome run_plan_storm(const RunArgs& args, Tracer* tracer, double seconds) {
  Outcome out;
  out.throughput_unit = "plans/s";
  out.latency_unit = "ms per handle_line call";
  // Windows of 1000 replies: p99 keeps ten samples beyond it in each.
  out.ops = OpStats(1000, 1000, 99);
  out.threads.service_workers = kStormWorkers;
  out.threads.client_threads = kStormClients;
  out.threads.planner_threads = 1;

  // Set-up: start the service and warm its plan history and memo pool with
  // the first requests of the mix.
  const std::size_t warmup = 500;
  std::unique_ptr<service::PlanService> svc;
  for (int k = 0; k < 7; ++k) {
    Span span(tracer, "workload.setup");
    svc.reset();
    svc = std::make_unique<service::PlanService>(storm_service_options());
    for (std::size_t i = 0; i < warmup; ++i) {
      svc->handle_line(storm_request(args.seed, i));
    }
    out.setup_s.push_back(span.ms() / 1e3);
  }

  const StormResult res = fire_storm(*svc, args.seed, warmup, SIZE_MAX,
                                     seconds, tracer, out.ops, 101, 300);
  out.peak_rss_mb = peak_rss_mb();
  out.tally.attempted = res.ok + res.busy + res.errors;
  out.tally.failed = res.busy + res.errors;
  const int bad = offline_mismatches(args.seed, res);
  out.tally.failed += bad;
  out.correct = out.tally.failed == 0;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%ld ok, %ld busy, %ld error replies; %d of %zu sampled "
                "replies differ from offline_response",
                res.ok, res.busy, res.errors, bad, res.sampled.size());
  out.notes.push_back(buf);
  const service::ServiceStats st = svc->stats();
  std::snprintf(buf, sizeof(buf),
                "service: %ld planned, %ld history hits, %ld warm-planned, "
                "%ld memo lookups, %ld memo misses",
                st.planned, st.history_hits, st.warm_planned, st.memo_lookups,
                st.memo_misses);
  out.notes.push_back(buf);
  return out;
}

// =========================================================== plan_robust

Outcome run_plan_robust(const RunArgs& args, Tracer* tracer, double seconds) {
  Outcome out;
  out.throughput_unit = "plans/s";
  out.latency_unit = "ms per robust core::plan";
  out.ops = OpStats(std::size(kRobustCases), 0, 75);  // rates per cycle
  out.threads.planner_threads = 1;

  const core::PlannerOptions opts = robust_options(args.seed);
  constexpr std::size_t n_cases = std::size(kRobustCases);
  // Case order is drawn from the seed; a run always plans whole cycles.
  std::vector<std::size_t> order(n_cases);
  for (std::size_t i = 0; i < n_cases; ++i) order[i] = i;
  util::Rng rng(args.seed);
  for (std::size_t i = n_cases - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(static_cast<int>(i + 1))]);
  }

  // Set-up: build every case's model config and plan the cheapest case
  // once (first-touch allocations, code paths).
  std::vector<costmodel::ModelConfig> configs;
  for (int k = 0; k < 15; ++k) {
    Span span(tracer, "workload.setup");
    configs.clear();
    for (const RobustCase& c : kRobustCases) {
      configs.push_back(robust_config(c));
    }
    core::plan(configs[0], kRobustCases[0].stages,
               kRobustCases[0].micro_batches, opts);
    out.setup_s.push_back(span.ms() / 1e3);
  }

  std::vector<std::vector<int>> winners(n_cases);
  const std::size_t min_plans = min_samples_for_tail(out.ops.tail_q());
  const std::int64_t t0 = steady_now_ns();
  std::int64_t request = 0;
  while ((seconds_since(t0) < seconds || out.ops.count() < min_plans) &&
         seconds_since(t0) < hard_cap_s(seconds)) {
    for (const std::size_t c : order) {
      const RobustCase& rc = kRobustCases[c];
      ++out.tally.attempted;
      Span span(tracer, "core.plan", request++);
      const core::PlannerResult r =
          core::plan(configs[c], rc.stages, rc.micro_batches, opts);
      out.ops.add(seconds_since(t0), span.ms(), 1.0);
      // Every search of a case must return the same winner.
      if (!r.robust_ranked) {
        ++out.tally.failed;
      } else if (winners[c].empty()) {
        winners[c] = r.partition.counts;
      } else if (winners[c] != r.partition.counts) {
        ++out.tally.failed;
      }
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  out.correct = out.tally.failed == 0;
  std::string w = "winners:";
  for (std::size_t c = 0; c < n_cases; ++c) {
    w += std::string(" ") + kRobustCases[c].model + "/d" +
         std::to_string(kRobustCases[c].stages) + "=";
    for (std::size_t i = 0; i < winners[c].size(); ++i) {
      w += (i ? "," : "") + std::to_string(winners[c][i]);
    }
  }
  out.notes.push_back(w);
  return out;
}

// ========================================================= planning probes

void probe_planning_layers(const RunArgs& args, Tracer& tracer,
                           MetricSet& out) {
  // ---- service: a short storm on a fresh service.
  const std::size_t n_lines = 3000;
  {
    service::PlanService svc(storm_service_options());
    OpStats unused(1, 1, 50);
    fire_storm(svc, args.seed, 0, n_lines, 1e9, &tracer, unused, 1, 0);
    const service::ServiceStats st = svc.stats();
    out.add("service.history_hit_ratio",
            st.requests > 0 ? static_cast<double>(st.history_hits) /
                                  static_cast<double>(st.requests)
                            : 0,
            "share");
    out.add("service.memo_hit_ratio",
            st.memo_lookups > 0
                ? 1.0 - static_cast<double>(st.memo_misses) /
                            static_cast<double>(st.memo_lookups)
                : 0,
            "share");
    out.add("service.warm_planned", static_cast<double>(st.warm_planned),
            "count");
    out.add("service.busy_rejected", static_cast<double>(st.busy_rejected),
            "count");
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n_lines; ++i) {
    lines.push_back(storm_request(args.seed, i));
  }
  {
    std::vector<double> parse_us;
    for (int rep = 0; rep < 5; ++rep) {
      Span span(&tracer, "service.parse_line");
      std::size_t ok = 0;
      for (const std::string& line : lines) {
        ok += service::parse_line(line).error.empty() ? 1 : 0;
      }
      parse_us.push_back(span.ms() * 1e3 / static_cast<double>(n_lines));
      if (ok != n_lines) throw std::runtime_error("storm line rejected");
    }
    out.add("service.parse_us", median(parse_us), "us");
  }
  {
    // Replayed sample: distinct drifted requests, cold, one at a time, on a
    // fresh service and straight through solve_plan.
    service::PlanService svc(storm_service_options());
    double handle_ms = 0, solve_ms = 0;
    int replayed = 0;
    for (std::size_t i = 0; i < lines.size() && replayed < 40; ++i) {
      if (lines[i].find("perturb=") == std::string::npos) continue;
      std::string line = lines[i];
      line.replace(line.find("warm="), line.find(' ', line.find("warm=")) -
                                           line.find("warm="),
                   "warm=off");
      ++replayed;
      {
        Span span(&tracer, "service.PlanService.handle_line", replayed);
        svc.handle_line(line);
        handle_ms += span.ms();
      }
      const service::PlanRequest req = service::parse_line(line).request;
      const costmodel::ModelConfig cfg = service::request_config(req);
      Span span(&tracer, "service.solve_plan", replayed);
      service::solve_plan(req, cfg, {});
      solve_ms += span.ms();
    }
    out.add("service.overhead_share",
            handle_ms > 0 ? 1.0 - solve_ms / handle_ms : 0, "share");
  }

  // ---- core: cold auto_plan searches of storm requests, and the paper
  // recurrences and slicer on each chosen partition.
  {
    std::vector<double> search_ms, sim_us, slicer_us;
    double evaluations = 0, unique_sims = 0;
    int n = 0;
    for (std::size_t i = 0; i < lines.size() && n < 60; i += 7, ++n) {
      const service::PlanRequest req = service::parse_line(lines[i]).request;
      const costmodel::ModelConfig cfg = service::request_config(req);
      core::AutoPipeOptions o;
      o.num_gpus = req.gpus;
      o.global_batch = req.global_batch;
      o.forced_stages = req.stages;
      o.enable_slicer = req.slicer;
      core::AutoPipeResult r;
      {
        Span span(&tracer, "core.auto_plan", n);
        r = core::auto_plan(cfg, o);
      }
      search_ms.push_back(r.plan.planning_ms);
      evaluations += r.evaluations;
      unique_sims += r.unique_simulations;
      const int m = r.schedule.num_micro_batches;
      for (int rep = 0; rep < 5; ++rep) {
        {
          Span span(&tracer, "core.simulate_pipeline", n);
          core::simulate_pipeline(cfg, r.plan.partition, m);
          sim_us.push_back(span.ms() * 1e3);
        }
        Span span(&tracer, "core.solve_slicing", n);
        core::solve_slicing(cfg, r.plan.partition, m);
        slicer_us.push_back(span.ms() * 1e3);
      }
    }
    out.add("core.search_ms", median(search_ms), "ms");
    out.add("core.evaluations", evaluations / n, "count");
    out.add("core.unique_simulations", unique_sims / n, "count");
    out.add("core.simulate_us", median(sim_us), "us");
    out.add("core.slicer_us", median(slicer_us), "us");
  }

  // ---- sim / core evaluators and Monte-Carlo robustness on the
  // plan_robust cases (mean over cases of each case's median).
  {
    const core::PlannerOptions ropts = robust_options(args.seed);
    double exec_us = 0, eval_us = 0, rob_ms = 0;
    double nominal_search = 0, robust_search = 0;
    for (const RobustCase& rc : kRobustCases) {
      const costmodel::ModelConfig cfg = robust_config(rc);
      core::PlannerOptions nopts;
      nopts.threads = 1;
      const core::PlannerResult nominal =
          core::plan(cfg, rc.stages, rc.micro_batches, nopts);
      const core::Schedule sched =
          one_f_one_b(cfg, nominal.partition, rc.micro_batches);
      std::vector<double> e1, e2, e3;
      for (int rep = 0; rep < 7; ++rep) {
        {
          Span span(&tracer, "sim.execute");
          sim::execute(sched);
          e1.push_back(span.ms() * 1e3);
        }
        Span span(&tracer, "core.evaluate_schedule");
        core::evaluate_schedule(sched);
        e2.push_back(span.ms() * 1e3);
      }
      for (int rep = 0; rep < 2; ++rep) {
        Span span(&tracer, "faults.evaluate_robustness");
        faults::evaluate_robustness(sched, {}, ropts.robustness);
        e3.push_back(span.ms());
      }
      exec_us += median(e1);
      eval_us += median(e2);
      rob_ms += median(e3);
      Span span(&tracer, "core.plan");
      const core::PlannerResult robust =
          core::plan(cfg, rc.stages, rc.micro_batches, ropts);
      nominal_search += nominal.search_ms;
      robust_search += robust.search_ms;
    }
    const double n = static_cast<double>(std::size(kRobustCases));
    out.add("sim.execute_us", exec_us / n, "us");
    out.add("core.evaluate_schedule_us", eval_us / n, "us");
    out.add("faults.robustness_ms", rob_ms / n, "ms");
    out.add("faults.robustness_share",
            robust_search > 0 ? 1.0 - nominal_search / robust_search : 0,
            "share");
  }
}

}  // namespace perfbench
