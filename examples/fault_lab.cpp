// Fault lab: inject failures into both execution substrates and watch the
// system degrade gracefully (DESIGN.md §6).
//
//   fault_lab sim       [flags]  crash/straggle the discrete-event executor
//   fault_lab robust    [flags]  planner re-ranking under straggler noise
//   fault_lab transient [flags]  in-place retry of a flaky op, grads checked
//   fault_lab kill      [flags]  kill a stage mid-iteration; assert the
//                                runtime surfaces StageFailure (no hang)
//   fault_lab ckpt      [flags]  checkpointed training; --kill-at J raises
//                                SIGKILL during the J-th checkpoint commit,
//                                --resume restarts from the newest valid
//                                checkpoint and verifies the resumed loss
//                                trajectory matches an uninterrupted run
//
// Device loss with re-planning onto the N-1 survivors is supervised
// recovery: see `chaos_lab degrade` (DESIGN.md §10).
//
// Common flags: --model <zoo-name> (sim/robust), --gpus N, --mbs N, --gbs N,
// --threads N. Fault knobs: --seed N, --trials N, --quantile Q,
// --straggler-prob P, --slowdown X, --spike-prob P, --outage-prob P,
// --crash-device D, --crash-at MS (sim), --after-ops K (runtime),
// --failures N (transient count). Ckpt knobs: --dir PATH, --iters N,
// --interval K, --kill-at J, --resume, --gpus N (elastic resume).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/autopipe.h"
#include "core/planner.h"
#include "core/resume.h"
#include "faults/fault_plan.h"
#include "faults/robustness.h"
#include "runtime/train_session.h"
#include "model/data.h"
#include "model/transformer.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_failure.h"
#include "sim/executor.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace autopipe;

faults::FaultDistribution dist_from(const util::Cli& cli) {
  faults::FaultDistribution dist;
  dist.straggler_prob = cli.checked_double("straggler-prob", 0.3, 0.0, 1.0);
  dist.slowdown_max = cli.checked_double("slowdown", 2.0, 1.0, 1e6);
  dist.spike_prob = cli.checked_double("spike-prob", 0.1, 0.0, 1.0);
  dist.outage_prob = cli.checked_double("outage-prob", 0.05, 0.0, 1.0);
  return dist;
}

/// The CPU-scale transformer the runtime verbs train: 3 layers -> 8 blocks,
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

/// The analytic ModelConfig describing the same block array as tiny_spec(),
/// i.e. what the planner re-partitions on an elastic `ckpt --resume --gpus`.
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

int do_sim(const util::Cli& cli) {
  const std::string model = cli.get("model", "gpt2-345m");
  const int gpus = cli.checked_int("gpus", 4, 1, 1 << 20);
  const int mbs = cli.checked_int("mbs", 32, 1, 1 << 20);
  const long gbs = cli.checked_int("gbs", 512, 1, 1 << 30);
  const int threads = cli.checked_int("threads", 1, 0, 4096);
  const auto seed = static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0,
                                                               1 << 30));

  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name(model), {mbs, 0, true});
  const auto planned = core::auto_plan(cfg, {gpus, gbs, 0, true, threads});
  const core::Schedule& schedule = planned.schedule;
  const int devices = schedule.num_stages;
  const sim::ExecResult nominal = sim::execute(schedule);
  std::printf("%s on %d GPUs: %d stage(s), fault-free iteration %.2f ms\n",
              cfg.spec.name.c_str(), gpus, devices, nominal.iteration_ms);

  // One sampled scenario, replayed in full detail.
  faults::FaultPlan plan = faults::sample_fault_plan(
      dist_from(cli), devices, devices - 1, nominal.iteration_ms, seed);
  if (cli.has("crash-at")) {
    faults::DeviceCrash crash;
    crash.device = cli.checked_int("crash-device", devices / 2, 0, devices - 1);
    crash.at_ms = cli.checked_double("crash-at", nominal.iteration_ms / 2,
                                     0.0, 1e9);
    plan.crashes.push_back(crash);
  }
  sim::ExecOptions exec;
  exec.faults = &plan;
  const sim::ExecResult faulted = sim::execute(schedule, exec);
  std::printf("seed %llu scenario: %zu straggler(s), %zu spike(s), "
              "%zu outage(s), %zu crash(es)\n",
              static_cast<unsigned long long>(seed), plan.stragglers.size(),
              plan.spikes.size(), plan.outages.size(), plan.crashes.size());
  if (faulted.failure.crashed) {
    std::printf("  device %d crashed at %.2f ms: %d op(s) completed, %d "
                "lost, iteration cut at %.2f ms\n",
                faulted.failure.device, faulted.failure.at_ms,
                faulted.failure.completed_ops, faulted.failure.lost_ops,
                faulted.iteration_ms);
  } else {
    std::printf("  iteration %.2f ms (+%.1f%% vs fault-free), %d link "
                "retry(ies)\n",
                faulted.iteration_ms,
                100.0 * (faulted.iteration_ms / nominal.iteration_ms - 1.0),
                faulted.link_retries);
  }

  // Monte-Carlo the straggler distribution over the same schedule.
  faults::RobustnessOptions rob;
  rob.trials = cli.checked_int("trials", 200, 1, 1 << 20);
  rob.seed = seed;
  rob.quantile = cli.checked_double("quantile", 95.0, 0.0, 100.0);
  rob.dist = dist_from(cli);
  const auto report = faults::evaluate_robustness(schedule, {}, rob);
  util::Table t({"trials", "nominal", "mean", "p50", "p95", "p99", "worst"});
  t.add_row({std::to_string(report.trials),
             util::Table::fmt(report.nominal_ms, 2),
             util::Table::fmt(report.mean_ms, 2),
             util::Table::fmt(report.p50_ms, 2),
             util::Table::fmt(report.p95_ms, 2),
             util::Table::fmt(report.p99_ms, 2),
             util::Table::fmt(report.worst_ms, 2)});
  std::printf("%s", t.to_ascii().c_str());
  return 0;
}

int do_robust(const util::Cli& cli) {
  const std::string model = cli.get("model", "gpt2-345m");
  const int stages = cli.checked_int("gpus", 4, 2, 1 << 10);
  const int mbs = cli.checked_int("mbs", 32, 1, 1 << 20);
  const int micro = cli.checked_int(
      "micro-batches", 16, stages, 1 << 20);
  const int threads = cli.checked_int("threads", 1, 0, 4096);

  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name(model), {mbs, 0, true});
  core::PlannerOptions nominal_opts;
  nominal_opts.threads = threads;
  const auto nominal = core::plan(cfg, stages, micro, nominal_opts);

  core::PlannerOptions robust_opts = nominal_opts;
  robust_opts.robustness.trials = cli.checked_int("trials", 200, 1, 1 << 20);
  robust_opts.robustness.seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));
  robust_opts.robustness.quantile =
      cli.checked_double("quantile", 95.0, 0.0, 100.0);
  robust_opts.robustness.candidates = cli.checked_int("candidates", 4, 1, 64);
  robust_opts.robustness.dist = dist_from(cli);
  const auto robust = core::plan(cfg, stages, micro, robust_opts);

  std::printf("nominal planner: %s\n",
              core::describe(cfg, nominal.partition).c_str());
  std::printf("robust  planner: %s\n",
              core::describe(cfg, robust.partition).c_str());
  std::printf("robust winner under p%.0f ranking: nominal %.2f ms, p50 %.2f, "
              "p95 %.2f, p99 %.2f (over %d trials)\n",
              robust_opts.robustness.quantile, robust.robustness.nominal_ms,
              robust.robustness.p50_ms, robust.robustness.p95_ms,
              robust.robustness.p99_ms, robust.robustness.trials);
  if (robust.partition == nominal.partition) {
    std::printf("same scheme wins with and without noise -- the nominal "
                "optimum is already robust here\n");
  }
  return 0;
}

/// Shared setup for the runtime verbs: twin tiny models, one mini-batch cut
/// into micro-batches, and the single-process reference gradients.
struct RuntimeLab {
  model::TinySpec spec = tiny_spec();
  model::TransformerModel ref{spec};
  model::TransformerModel piped{spec};
  std::vector<model::Batch> micro;
  double scale = 0;
  double ref_loss = 0;

  RuntimeLab() {
    model::SyntheticCorpus corpus(spec.vocab);
    const int B = 4, m = 6;
    const auto batch = corpus.next_batch(B * m, spec.seq);
    micro = model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
    scale = 1.0 / (B * m * spec.seq);
    ref.zero_grads();
    ref_loss = ref.reference_step(batch.ids, batch.targets, scale);
    piped.zero_grads();
  }

  int check_grads(double loss) {
    const double diff = ref.max_grad_diff(piped);
    std::printf("loss %.6f (reference %.6f), max grad diff vs single-process "
                "reference %.3g\n",
                loss, ref_loss, diff);
    if (diff > 1e-4) {
      std::fprintf(stderr, "error: gradients diverged from the reference\n");
      return 1;
    }
    std::printf("gradients match the single-process reference\n");
    return 0;
  }
};

int do_transient(const util::Cli& cli) {
  RuntimeLab lab;
  faults::FaultPlan plan;
  faults::TransientOpFault fault;
  fault.device = cli.checked_int("crash-device", 1, 0, 2);
  fault.op_index = 2;
  fault.failures = cli.checked_int("failures", 2, 1, 100);
  plan.transients.push_back(fault);

  runtime::PipelineRuntime rt(lab.piped, {2, 3, 3});
  const auto schedule = rt.make_schedule(
      costmodel::ScheduleKind::OneFOneB,
      static_cast<int>(lab.micro.size()));
  runtime::RunOptions run;
  run.faults = &plan;
  const auto result = rt.run_iteration(schedule, lab.micro, lab.scale, run);
  std::printf("transient fault on device %d absorbed by %d in-place "
              "retry(ies)\n",
              fault.device, result.transient_retries);
  return lab.check_grads(result.loss);
}

int do_kill(const util::Cli& cli) {
  // The CI smoke: kill a stage mid-iteration with *no* recovery layer and
  // require a prompt, typed StageFailure -- never a hang, never a silent
  // wrong answer.
  RuntimeLab lab;
  faults::FaultPlan plan;
  faults::DeviceCrash crash;
  crash.device = cli.checked_int("crash-device", 1, 0, 2);
  crash.after_ops = cli.checked_int("after-ops", 3, 0, 1 << 20);
  plan.crashes.push_back(crash);

  runtime::PipelineRuntime rt(lab.piped, {2, 3, 3});
  const auto schedule = rt.make_schedule(
      costmodel::ScheduleKind::OneFOneB,
      static_cast<int>(lab.micro.size()));
  runtime::RunOptions run;
  run.faults = &plan;
  run.recv_deadline_ms = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rt.run_iteration(schedule, lab.micro, lab.scale, run);
  } catch (const runtime::StageFailure& e) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("clean StageFailure propagation: kind %s, device %d, "
                "surfaced in %.1f ms (%s)\n",
                runtime::to_string(e.kind()), e.device(), ms, e.what());
    return 0;
  }
  std::fprintf(stderr, "error: crash did not surface as StageFailure\n");
  return 1;
}

// ------------------------------------------------------------------- ckpt

/// PosixStorage wrapper that raises SIGKILL the moment the J-th MANIFEST
/// commit-rename is requested: records are on disk, the manifest is not,
/// so the process dies genuinely mid-checkpoint (the crash-consistency
/// protocol's worst moment). The CI smoke runs this, then `--resume`.
class KillAtManifestStorage : public ckpt::Storage {
 public:
  KillAtManifestStorage(ckpt::Storage& inner, int kill_at)
      : inner_(inner), kill_at_(kill_at) {}

  void create_dirs(const std::string& path) override {
    inner_.create_dirs(path);
  }
  void write_file(const std::string& path, std::string_view bytes) override {
    inner_.write_file(path, bytes);
  }
  void rename_file(const std::string& from, const std::string& to) override {
    const bool manifest = to.size() >= 8 &&
                          to.compare(to.size() - 8, 8, "MANIFEST") == 0;
    if (manifest && ++manifest_renames_ == kill_at_) {
      std::fprintf(stderr, "killing process during checkpoint commit #%d\n",
                   kill_at_);
      std::fflush(nullptr);
      raise(SIGKILL);
    }
    inner_.rename_file(from, to);
  }
  std::string read_file(const std::string& path) override {
    return inner_.read_file(path);
  }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  std::vector<std::string> list_dir(const std::string& path) override {
    return inner_.list_dir(path);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }
  void remove_dir(const std::string& path) override {
    inner_.remove_dir(path);
  }

 private:
  ckpt::Storage& inner_;
  int kill_at_ = 0;
  int manifest_renames_ = 0;
};

/// Largest |a - b| across two captured states' parameters (must be
/// structurally identical; the elastic path compares with a tolerance
/// because a different partition accumulates gradients in another order).
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

int do_ckpt(const util::Cli& cli) {
  const std::string dir = cli.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: ckpt needs --dir PATH\n");
    return 2;
  }
  const int iters = cli.checked_int("iters", 8, 1, 1 << 20);
  const int interval = cli.checked_int("interval", 2, 1, 1 << 20);

  runtime::TrainSessionOptions opts;
  opts.spec = tiny_spec();
  opts.counts = {2, 3, 3};
  opts.ckpt_dir = dir;
  opts.ckpt_interval = interval;

  if (cli.has("resume")) {
    // Restart from the newest valid checkpoint (the kill above may have
    // left an uncommitted step directory behind -- the reader must skip it),
    // finish the run, then verify against an uninterrupted golden run.
    ckpt::PosixStorage storage;
    core::ResumeOptions ropt;
    ropt.num_gpus = cli.checked_int("gpus", 0, 0, 8);
    const auto resumed =
        core::resume_from_checkpoint(tiny_config(), storage, dir, ropt);
    for (const auto& c : resumed.candidates) {
      std::printf("candidate step %d: %s\n", c.step,
                  c.valid ? "valid" : c.reason.c_str());
    }
    std::string counts;
    for (int c : resumed.counts) {
      if (!counts.empty()) counts += " ";
      counts += std::to_string(c);
    }
    std::printf("resuming at step %d on %zu device(s) (partition [%s])%s\n",
                resumed.state.step, resumed.counts.size(), counts.c_str(),
                resumed.resharded ? " -- resharded" : "");

    runtime::TrainSessionOptions sopts = opts;
    sopts.counts = resumed.counts;
    sopts.ckpt_dir.clear();  // the verification leg does not checkpoint
    sopts.ckpt_interval = 0;
    runtime::TrainSession session(sopts, resumed.state);
    const int resume_step = session.iteration();
    while (session.iteration() < iters) session.step();

    runtime::TrainSessionOptions gopts = opts;
    gopts.ckpt_dir.clear();
    gopts.ckpt_interval = 0;
    runtime::TrainSession golden(gopts);
    for (int i = 0; i < iters; ++i) golden.step();

    const auto got = session.capture();
    const auto want = golden.capture();
    if (!resumed.resharded) {
      // Same partition: the continuation must be bit-identical.
      for (int i = resume_step; i < iters; ++i) {
        const double a = session.losses()[static_cast<std::size_t>(
            i - resume_step)];
        const double b = golden.losses()[static_cast<std::size_t>(i)];
        if (a != b) {
          std::fprintf(stderr,
                       "error: loss at step %d diverged (%.17g vs %.17g)\n",
                       i + 1, a, b);
          return 1;
        }
        std::printf("step %d loss %.6f == uninterrupted %.6f\n", i + 1, a, b);
      }
      if (got.blocks != want.blocks || got.data_rng != want.data_rng ||
          got.adam_t != want.adam_t) {
        std::fprintf(stderr, "error: final state diverged from the "
                             "uninterrupted run\n");
        return 1;
      }
    } else {
      // Elastic: same math, different accumulation order.
      const double diff = max_param_diff(got, want);
      std::printf("elastic resume: max param diff vs uninterrupted run "
                  "%.3g\n", diff);
      if (diff > 1e-4) {
        std::fprintf(stderr, "error: resharded resume diverged\n");
        return 1;
      }
    }
    std::printf("resumed trajectory matches uninterrupted run\n");
    return 0;
  }

  ckpt::PosixStorage posix;
  const int kill_at = cli.checked_int("kill-at", 0, 0, 1 << 20);
  KillAtManifestStorage killer(posix, kill_at);
  if (kill_at > 0) opts.storage = &killer;

  runtime::TrainSession session(opts);
  for (int i = 0; i < iters; ++i) session.step();
  std::printf("ran %d iteration(s), wrote %d checkpoint(s) under %s "
              "(%d failure(s)), final loss %.6f\n",
              session.iteration(), session.checkpoints_written(), dir.c_str(),
              session.checkpoint_failures(), session.losses().back());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s sim|robust|transient|kill|ckpt "
                 "[--model NAME] [--gpus N] [--trials N] [--seed N] "
                 "[--straggler-prob P] [--crash-device D] [--crash-at MS] "
                 "[--after-ops K] [--dir PATH] [--iters N] [--interval K] "
                 "[--kill-at J] [--resume]\n",
                 cli.program().c_str());
    return 2;
  }
  const std::string verb = cli.positional()[0];
  try {
    if (verb == "sim") return do_sim(cli);
    if (verb == "robust") return do_robust(cli);
    if (verb == "transient") return do_transient(cli);
    if (verb == "kill") return do_kill(cli);
    if (verb == "ckpt") return do_ckpt(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "unknown verb '%s' (expected "
               "sim|robust|transient|kill|ckpt)\n",
               verb.c_str());
  return 2;
}
