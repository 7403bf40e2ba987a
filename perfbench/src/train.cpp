// Training workloads (`train`, `train_durable`) and the training-side layer
// probes: model blocks, runtime, simulator-vs-real (paper Table II),
// guards, checkpoints and the supervisor.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "core/slicer.h"
#include "costmodel/analytic.h"
#include "guard/guard.h"
#include "model/arena.h"
#include "model/data.h"
#include "model/ops.h"
#include "model/transformer.h"
#include "runtime/optimizer.h"
#include "runtime/train_session.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "supervisor/supervisor.h"
#include "host.h"
#include "workloads.h"

namespace perfbench {

using namespace autopipe;

namespace {

// ------------------------------------------------------------- shapes

/// One training configuration: model and pipeline. Kernels run inline on
/// the stage threads (main() sets model::set_ops_threads(1)).
struct TrainShape {
  model::TinySpec spec;
  int stages = 2;
  costmodel::ScheduleKind kind = costmodel::ScheduleKind::AutoPipeSliced;
  int micro_batch = 4;
  int micro_batches = 8;
  bool durable = false;
};

/// `train`: the bench_runtime_hotpath default shape on 2 stages under
/// AutoPipe's sliced 1F1B. Kernel-bound.
TrainShape train_shape(std::uint64_t seed) {
  TrainShape s;
  s.spec.hidden = 128;
  s.spec.heads = 4;
  s.spec.seq = 16;
  s.spec.vocab = 256;
  s.spec.layers = 4;
  s.spec.seed = 42 + seed;
  return s;
}

/// `train_zb`: the `train` model and micro-batches on 2 stages under the
/// zero-bubble schedule: backward split into B and W ops, W deferred.
TrainShape zb_shape(std::uint64_t seed) {
  TrainShape s = train_shape(seed);
  s.kind = costmodel::ScheduleKind::ZeroBubble;
  return s;
}

/// `train_durable`: a narrow model with tiny per-op compute on 4 stages
/// under the zero-bubble schedule, one sample per micro-batch. Handoffs,
/// stage waits, guards and checkpoint writes dominate. The model and data
/// seeds stay fixed: the measured norm-guard false positive at step 33
/// depends on them, and it must show in every run.
TrainShape durable_shape() {
  TrainShape s;
  s.spec.hidden = 64;
  s.spec.heads = 2;
  s.spec.seq = 16;
  s.spec.vocab = 256;
  s.spec.layers = 6;
  s.stages = 4;
  s.kind = costmodel::ScheduleKind::ZeroBubble;
  s.micro_batch = 1;
  s.micro_batches = 32;
  s.durable = true;
  return s;
}

constexpr std::uint64_t kDurableDataSeed = 7;
constexpr int kDurableJobSteps = 40;  ///< covers the step-33 norm trip
constexpr int kCkptInterval = 5;

/// The analytic block model of the same transformer (what the planner and
/// the supervisor's restore path partition).
costmodel::ModelConfig analytic_config(const TrainShape& s) {
  costmodel::ModelSpec spec;
  spec.name = "perfbench";
  spec.num_layers = s.spec.layers;
  spec.hidden = s.spec.hidden;
  spec.heads = s.spec.heads;
  spec.vocab = s.spec.vocab;
  spec.default_seq = s.spec.seq;
  spec.causal = s.spec.causal;
  return costmodel::build_model_config(spec, {s.micro_batch, 0, true});
}

runtime::TrainSessionOptions session_options(const TrainShape& s,
                                             std::uint64_t data_seed) {
  const costmodel::ModelConfig cfg = analytic_config(s);
  const core::PlannerResult planned =
      core::plan(cfg, s.stages, s.micro_batches);
  runtime::TrainSessionOptions o;
  o.spec = s.spec;
  o.counts = planned.partition.counts;
  o.kind = s.kind;
  if (s.kind == costmodel::ScheduleKind::AutoPipeSliced) {
    o.sliced = core::solve_slicing(cfg, planned.partition, s.micro_batches)
                   .sliced_micro_batches;
  }
  o.micro_batch = s.micro_batch;
  o.num_micro_batches = s.micro_batches;
  o.data_seed = data_seed;
  if (s.durable) {
    o.guard.handoff_crc = true;
    o.guard.nonfinite_checks = true;
    o.guard.weight_interval = 1;
    o.guard.norm_window = 8;
  }
  return o;
}

double tokens_per_step(const runtime::TrainSessionOptions& o) {
  return static_cast<double>(o.micro_batch) * o.num_micro_batches *
         o.spec.seq;
}

// ------------------------------------------------------ reference check

/// Plain single-process training of the same steps
/// (TransformerModel::reference_step + Adam): the ground truth the
/// pipelined losses must match, and the single-worker baseline.
std::vector<double> reference_losses(const runtime::TrainSessionOptions& o,
                                     int steps, std::vector<double>* step_ms) {
  model::TransformerModel net(o.spec);
  runtime::Adam adam(o.lr);
  model::SyntheticCorpus corpus(o.spec.vocab, o.data_seed);
  const double scale = 1.0 / tokens_per_step(o);
  std::vector<double> losses;
  for (int k = 0; k < steps; ++k) {
    const std::int64_t t0 = steady_now_ns();
    const model::Batch batch =
        corpus.next_batch(o.micro_batch * o.num_micro_batches, o.spec.seq);
    net.zero_grads();
    losses.push_back(net.reference_step(batch.ids, batch.targets, scale));
    adam.step(net);
    if (step_ms != nullptr) step_ms->push_back(seconds_since(t0) * 1e3);
  }
  return losses;
}

/// Losses agree "to rounding": micro-batch accumulation reorders float
/// additions and Adam carries the difference forward. Clean training of the
/// durable shape has a gradient spike at step 33 (the step the norm guard
/// trips on) that amplifies the difference to 2e-4 relative by step 37; a
/// state-exact restore matches an unsupervised run bit for bit.
bool losses_match(double pipelined, double reference) {
  return std::abs(pipelined - reference) <=
         1e-3 * std::max(1.0, std::abs(reference));
}

/// Counts mismatches of `got` against the single-process reference and
/// notes each one.
int count_mismatches(const std::vector<double>& got,
                     const std::vector<double>& want,
                     std::vector<std::string>& notes) {
  int bad = 0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (k < got.size() && losses_match(got[k], want[k])) continue;
    ++bad;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "step %zu loss %.9g, reference %.9g", k,
                  k < got.size() ? got[k] : 0.0, want[k]);
    notes.push_back(buf);
  }
  return bad;
}

// ------------------------------------------------------ checkpoint storage

/// Posix storage that counts written bytes and notes when each checkpoint
/// commits (its MANIFEST is renamed into place). Passed to the session as
/// its checkpoint storage, which the supervisor wraps and uses as is.
class TimedStorage final : public ckpt::Storage {
 public:
  struct Commit {
    std::int64_t at_ns = 0;
    int step = 0;
  };

  void create_dirs(const std::string& path) override {
    inner_.create_dirs(path);
  }
  void write_file(const std::string& path, std::string_view bytes) override {
    inner_.write_file(path, bytes);
    bytes_written_ += static_cast<std::int64_t>(bytes.size());
  }
  void rename_file(const std::string& from, const std::string& to) override {
    inner_.rename_file(from, to);
    const std::string manifest = "/MANIFEST";
    if (to.size() > manifest.size() &&
        to.compare(to.size() - manifest.size(), manifest.size(), manifest) ==
            0) {
      const std::size_t pos = to.rfind("step-");
      const int step =
          pos == std::string::npos ? -1 : std::atoi(to.c_str() + pos + 5);
      commits_.push_back({steady_now_ns(), step});
    }
  }
  std::string read_file(const std::string& path) override {
    return inner_.read_file(path);
  }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return inner_.list_dir(dir);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }
  void remove_dir(const std::string& path) override { inner_.remove_dir(path); }

  std::int64_t bytes_written() const { return bytes_written_; }
  const std::vector<Commit>& commits() const { return commits_; }
  void clear() {
    commits_.clear();
    bytes_written_ = 0;
  }

 private:
  ckpt::PosixStorage inner_;
  std::int64_t bytes_written_ = 0;
  std::vector<Commit> commits_;
};

std::string fresh_dir(const RunArgs& args, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(args.out_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

supervisor::SupervisorOptions durable_job(const RunArgs& args,
                                          TimedStorage& storage,
                                          const std::string& dir, int steps) {
  const TrainShape shape = durable_shape();
  supervisor::SupervisorOptions so;
  so.session = session_options(shape, kDurableDataSeed);
  so.session.ckpt_dir = fresh_dir(args, dir);
  so.session.ckpt_interval = kCkptInterval;
  so.session.storage = &storage;
  so.config = analytic_config(shape);
  so.target_steps = steps;
  return so;
}

/// Per-step ms over each checkpoint interval of one job: the wall time
/// between successive checkpoint commits (the first from the job's start)
/// over the steps it advanced. Restores and replays inside an interval
/// count toward it, as a user of the job sees them.
void add_intervals(const std::vector<TimedStorage::Commit>& commits,
                   std::int64_t loop_start_ns, std::int64_t job_start_ns,
                   double tokens_per_step, OpStats& out) {
  std::int64_t prev_ns = job_start_ns;
  int prev_step = 0;
  for (const TimedStorage::Commit& c : commits) {
    if (c.step <= prev_step) continue;  // a replayed, already-counted step
    const int steps = c.step - prev_step;
    out.add((c.at_ns - loop_start_ns) / 1e9,
            (c.at_ns - prev_ns) / 1e6 / steps, steps * tokens_per_step);
    prev_ns = c.at_ns;
    prev_step = c.step;
  }
}

}  // namespace

// =================================================================== train

Outcome run_train(const RunArgs& args, Tracer* tracer, double seconds) {
  const TrainShape shape = args.workload == "train_zb" ? zb_shape(args.seed)
                                                       : train_shape(args.seed);
  const runtime::TrainSessionOptions opts =
      session_options(shape, args.seed);

  Outcome out;
  out.throughput_unit = "tokens/s";
  out.latency_unit = "ms per training step";
  out.ops = OpStats(10, 0, 90);  // rates over 10-step windows
  out.threads.stage_threads = shape.stages;
  out.threads.kernel_pool_threads = model::ops_threads();

  // Set-up: build the session (model init, plan, arena reserve, runtime)
  // and run the first step, which grows the arena to steady state. Only
  // the first set-up precedes the measured loop; the other four run after
  // the loop and the correctness check. A destroyed session leaves 0-4 MB
  // resident, which made peak_rss_mb bimodal when all five came first.
  std::unique_ptr<runtime::TrainSession> session;
  const auto set_up = [&] {
    Span span(tracer, "workload.setup");
    session.reset();
    session = std::make_unique<runtime::TrainSession>(opts);
    session->step();
    out.setup_s.push_back(span.ms() / 1e3);
  };
  set_up();

  const std::size_t min_steps = min_samples_for_tail(out.ops.tail_q());
  const std::int64_t t0 = steady_now_ns();
  int consecutive_failures = 0;
  while ((seconds_since(t0) < seconds || out.ops.count() < min_steps) &&
         seconds_since(t0) < hard_cap_s(seconds) && consecutive_failures < 3) {
    ++out.tally.attempted;
    Span span(tracer, "runtime.TrainSession.step", session->iteration());
    try {
      session->step();
      out.ops.add(seconds_since(t0), span.ms(), tokens_per_step(opts));
      consecutive_failures = 0;
    } catch (const std::exception& e) {
      ++out.tally.failed;
      ++consecutive_failures;
      out.notes.push_back(std::string("step failed: ") + e.what());
    }
  }
  out.peak_rss_mb = peak_rss_mb();

  // Correctness: the first steps against single-process training.
  std::vector<double> ref_ms;
  const std::vector<double> want = reference_losses(opts, 3, &ref_ms);
  const int bad = count_mismatches(session->losses(), want, out.notes);
  out.tally.failed += bad;
  out.correct = bad == 0 && consecutive_failures < 3;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "single-worker baseline (reference_step + Adam): %.2f ms/step "
                "median of %zu; %d of %zu reference losses mismatched",
                median(ref_ms), ref_ms.size(), bad, want.size());
  out.notes.push_back(buf);
  for (int k = 1; k < 5; ++k) set_up();
  return out;
}

// =========================================================== train_durable

Outcome run_train_durable(const RunArgs& args, Tracer* tracer,
                          double seconds) {
  const TrainShape shape = durable_shape();

  Outcome out;
  out.throughput_unit = "tokens/s";
  out.latency_unit = "ms per step over a checkpoint interval";
  // Rates over 8 intervals: one 40-step job's worth.
  out.ops = OpStats(kDurableJobSteps / kCkptInterval, 0, 75);
  out.threads.stage_threads = shape.stages;
  out.threads.kernel_pool_threads = model::ops_threads();

  TimedStorage storage;
  // Set-up: build a supervisor (session, plan pricing, checkpoint writer)
  // and drive one supervised step.
  for (int k = 0; k < 5; ++k) {
    Span span(tracer, "workload.setup");
    supervisor::Supervisor sup(durable_job(args, storage, "setup", 1));
    sup.run();
    out.setup_s.push_back(span.ms() / 1e3);
  }

  const std::size_t min_samples = min_samples_for_tail(out.ops.tail_q());
  std::vector<double> first_losses;
  const runtime::TrainSessionOptions opts =
      session_options(shape, kDurableDataSeed);
  long incidents = 0;
  double downtime_ms = 0;
  const std::int64_t t0 = steady_now_ns();
  int job = 0;
  while ((seconds_since(t0) < seconds || out.ops.count() < min_samples) &&
         seconds_since(t0) < hard_cap_s(seconds)) {
    storage.clear();
    const supervisor::SupervisorOptions so =
        durable_job(args, storage, "job", kDurableJobSteps);
    const std::int64_t job_start = steady_now_ns();
    Span span(tracer, "supervisor.Supervisor.run", job++);
    supervisor::Supervisor sup(so);
    const supervisor::SupervisorReport report = sup.run();
    add_intervals(storage.commits(), t0, job_start, tokens_per_step(opts),
                  out.ops);
    out.tally.attempted += so.target_steps;
    out.tally.failed += so.target_steps - report.steps_done;
    out.tally.recovery_actions += report.recovery_actions;
    incidents += static_cast<long>(report.incidents.size());
    downtime_ms += report.total_downtime_ms;
    if (!report.completed) out.notes.push_back("job aborted: " +
                                               report.abort_reason);
    // Every job trains the same steps from the same seeds: its losses must
    // repeat the first job's bit for bit.
    if (first_losses.empty()) {
      first_losses = report.losses;
    } else if (report.losses != first_losses) {
      ++out.tally.failed;
      out.notes.push_back("job losses differ from the first job's");
    }
  }
  out.peak_rss_mb = peak_rss_mb();

  const std::vector<double> want =
      reference_losses(opts, kDurableJobSteps, nullptr);
  const int bad = count_mismatches(first_losses, want, out.notes);
  out.tally.failed += bad;
  out.correct = bad == 0 && out.tally.failed == 0;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%d supervised jobs of %d steps: %ld incidents, %lld recovery "
                "actions, %.1f ms downtime; %d of %zu reference losses "
                "mismatched",
                job, kDurableJobSteps, incidents,
                static_cast<long long>(out.tally.recovery_actions),
                downtime_ms, bad, want.size());
  out.notes.push_back(buf);
  return out;
}

// ========================================================= training probes

namespace {

constexpr std::array<const char*, 4> kKinds = {"embedding", "attention",
                                               "ffn", "head"};
constexpr std::array<const char*, 4> kOps = {"fwd", "bwd", "bwd_input",
                                             "bwd_weight"};
/// Span names "model.<kind>.<op>", indexed [kind][op].
constexpr std::array<std::array<const char*, 4>, 4> kSpanNames = {{
    {"model.embedding.fwd", "model.embedding.bwd", "model.embedding.bwd_input",
     "model.embedding.bwd_weight"},
    {"model.attention.fwd", "model.attention.bwd", "model.attention.bwd_input",
     "model.attention.bwd_weight"},
    {"model.ffn.fwd", "model.ffn.bwd", "model.ffn.bwd_input",
     "model.ffn.bwd_weight"},
    {"model.head.fwd", "model.head.bwd", "model.head.bwd_input",
     "model.head.bwd_weight"},
}};

using OpTimes = std::array<double, 4>;  ///< ms per op, indexed like kOps

/// FLOPs of one micro-batch per block kind and op, from the
/// costmodel/analytic formulas (recompute on: backward = 2x forward work
/// for dX and dW plus one recomputed forward; the weight half is the dW
/// GEMMs). The analytic model prices the embedding as bandwidth-bound with
/// no FLOPs; it is counted here by its elementwise adds (position add
/// forward, scatter-add of token and position gradients).
OpTimes block_flops(int kind, const TrainShape& s) {
  const double B = s.micro_batch, S = s.spec.seq, h = s.spec.hidden,
               V = s.spec.vocab;
  double fwd = 0, weight = 0;
  switch (kind) {
    case 0: fwd = B * S * h; weight = 2.0 * B * S * h; break;
    case 1:
      fwd = 8.0 * B * S * h * h + 4.0 * B * S * S * h;
      weight = 8.0 * B * S * h * h;
      break;
    case 2: fwd = 16.0 * B * S * h * h; weight = fwd; break;
    default: fwd = 2.0 * B * S * h * V; weight = fwd; break;
  }
  const double bwd = kind == 0 ? fwd + weight : 3.0 * fwd;
  return {fwd, bwd, bwd - weight, weight};
}

/// Median ms of each op of one block per kind, on real activations of the
/// shape's micro-batch.
std::array<OpTimes, 4> probe_blocks(const TrainShape& s, Tracer& tracer,
                                    int reps) {
  model::TransformerModel net(s.spec);
  model::SyntheticCorpus corpus(s.spec.vocab, 11);
  const model::Batch batch = corpus.next_batch(s.micro_batch, s.spec.seq);
  std::vector<model::Tensor> inputs{batch.ids};
  for (int b = 0; b + 1 < net.num_blocks(); ++b) {
    inputs.push_back(net.block(b).forward(inputs.back()));
  }
  const std::array<int, 4> index = {0, 1, 2, net.num_blocks() - 1};
  util::Rng rng(5);
  std::array<OpTimes, 4> out{};
  for (int k = 0; k < 4; ++k) {
    model::Block& block = net.block(index[k]);
    const model::Tensor& x = inputs[static_cast<std::size_t>(index[k])];
    const model::Tensor y = block.forward(x);
    const model::Tensor dy = model::Tensor::randn(y.shape(), rng, 1e-3f);
    std::array<std::vector<double>, 4> samples;
    for (int r = 0; r < reps + 1; ++r) {  // first round warms caches
      std::array<double, 4> ms{};
      {
        Span span(&tracer, kSpanNames[k][0]);
        model::Tensor out_y = block.forward(x);
        ms[0] = span.ms();
      }
      {
        Span span(&tracer, kSpanNames[k][1]);
        model::Tensor dx = block.backward(x, dy);
        ms[1] = span.ms();
      }
      std::unique_ptr<model::Block::BwState> state;
      {
        Span span(&tracer, kSpanNames[k][2]);
        model::Tensor dx = block.backward_input(x, dy, &state);
        ms[2] = span.ms();
      }
      {
        Span span(&tracer, kSpanNames[k][3]);
        if (state != nullptr) block.backward_weight(*state);
        ms[3] = span.ms();
      }
      if (r == 0) continue;
      for (int o = 0; o < 4; ++o) samples[o].push_back(ms[o]);
    }
    block.zero_grads();
    for (int o = 0; o < 4; ++o) out[k][o] = median(samples[o]);
  }
  return out;
}

int kind_of(const model::Block& block) {
  const std::string k = block.kind();
  if (k == "Embedding") return 0;
  if (k == "ResidualAttentionBlock") return 1;
  if (k == "ResidualFFNBlock") return 2;
  return 3;
}

/// Per-stage costs of one micro-batch priced with the measured block times.
std::vector<core::StageCost> measured_stage_costs(
    const model::TransformerModel& net, const std::vector<int>& counts,
    const std::array<OpTimes, 4>& t) {
  std::vector<core::StageCost> costs;
  int b = 0;
  for (const int c : counts) {
    core::StageCost sc;
    for (int i = 0; i < c; ++i, ++b) {
      const OpTimes& o = t[static_cast<std::size_t>(kind_of(net.block(b)))];
      sc.fwd_ms += o[0];
      sc.bwd_input_ms += o[2];
      sc.bwd_weight_ms += o[3];
    }
    sc.bwd_ms = sc.bwd_input_ms + sc.bwd_weight_ms;
    costs.push_back(sc);
  }
  return costs;
}

}  // namespace

void probe_training_layers(const RunArgs& args, Tracer& tracer,
                           MetricSet& out) {
  const bool durable = args.workload == "train_durable";
  const TrainShape shape = durable ? durable_shape()
                           : args.workload == "train_zb"
                               ? zb_shape(args.seed)
                               : train_shape(args.seed);

  // ---- model: every block kind x op on the workload's micro-batch.
  const std::array<OpTimes, 4> times = probe_blocks(shape, tracer, 15);
  for (int k = 0; k < 4; ++k) {
    const OpTimes flops = block_flops(k, shape);
    for (int o = 0; o < 4; ++o) {
      const std::string base =
          std::string("model.") + kKinds[k] + "." + kOps[o];
      out.add(base + "_ms", times[k][o], "ms");
      out.add(base + "_gflops",
              times[k][o] > 0 ? flops[o] / (times[k][o] * 1e6) : 0, "GFLOP/s");
    }
  }

  // ---- runtime: steps of the workload's session (guards on for the
  // durable shape; no checkpoints, so the runtime alone is timed).
  runtime::TrainSessionOptions opts = session_options(
      shape, durable ? kDurableDataSeed : args.seed);
  runtime::TrainSession session(opts);
  session.step();
  std::vector<double> step_ms;
  for (int k = 0; k < (durable ? 20 : 10); ++k) {
    Span span(&tracer, "runtime.TrainSession.step", k);
    session.step();
    step_ms.push_back(span.ms());
  }
  const double iteration_ms = median(step_ms);
  std::vector<double> adam_ms;
  {
    model::TransformerModel net(shape.spec);
    runtime::Adam adam(opts.lr);
    for (int k = 0; k < 10; ++k) {
      Span span(&tracer, "runtime.Adam.step");
      adam.step(net);
      adam_ms.push_back(span.ms());
    }
  }
  const std::vector<core::StageCost> costs =
      measured_stage_costs(session.model(), opts.counts, times);
  double critical = 0;
  for (const core::StageCost& c : costs) {
    critical = std::max(critical, c.load() * shape.micro_batches);
  }
  out.add("runtime.iteration_ms", iteration_ms, "ms");
  out.add("runtime.adam_ms", median(adam_ms), "ms");
  out.add("runtime.critical_compute_ms", critical, "ms");
  out.add("runtime.wait_share", 1.0 - critical / iteration_ms, "share");

  // ---- sim: the session's schedule priced with the measured block times
  // (no link cost: in-process handoff moves the tensor), plus the serial
  // Adam step, against the measured iteration.
  {
    const core::Schedule priced = core::build_schedule(
        opts.kind, costs, shape.micro_batches, core::CommModel(0.0),
        {opts.sliced, 1});
    sim::ExecResult exec;
    {
      Span span(&tracer, "sim.execute");
      exec = sim::execute(priced);
    }
    const double predicted = exec.iteration_ms + median(adam_ms);
    out.add("sim.predicted_iteration_ms", predicted, "ms");
    out.add("sim.prediction_error_pct",
            100.0 * std::abs(predicted - iteration_ms) / iteration_ms, "%");
    out.add("sim.bubble_share", sim::analyze(exec).bubble_fraction, "share");
  }

  // ---- guard: checks per session of durable-shape steps.
  std::unique_ptr<runtime::TrainSession> guarded;
  runtime::TrainSession* gs = &session;
  if (!durable) {
    guarded = std::make_unique<runtime::TrainSession>(
        session_options(durable_shape(), kDurableDataSeed));
    for (int k = 0; k < 21; ++k) {  // as many steps as the durable probe
      Span span(&tracer, "runtime.TrainSession.step", k);
      guarded->step();
    }
    gs = guarded.get();
  }
  const guard::GuardCounters& gc = gs->guard_counters();
  out.add("guard.handoff_checks", static_cast<double>(gc.handoff_checks),
          "count");
  out.add("guard.weight_checks", static_cast<double>(gc.weight_checks),
          "count");
  out.add("guard.norm_checks", static_cast<double>(gc.norm_checks), "count");
  std::vector<double> crc_ms;
  for (int k = 0; k < 10; ++k) {
    Span span(&tracer, "guard.weight_crc");
    guard::weight_crc(gs->model(), gs->optimizer().m(), gs->optimizer().v());
    crc_ms.push_back(span.ms());
  }
  out.add("guard.weight_crc_ms", median(crc_ms), "ms");

  // ---- ckpt: write and restore the guarded session's state.
  {
    TimedStorage storage;
    const std::string dir = fresh_dir(args, "probe-ckpt");
    ckpt::CheckpointWriter writer(storage, dir);
    ckpt::TrainState state = gs->capture();
    std::vector<double> write_ms, restore_ms;
    for (int k = 0; k < 6; ++k) {
      state.step = k + 1;
      storage.clear();
      Span span(&tracer, "ckpt.CheckpointWriter.write");
      writer.write(state);
      write_ms.push_back(span.ms());
    }
    const double bytes = static_cast<double>(storage.bytes_written());
    ckpt::CheckpointReader reader(storage, dir);
    for (int k = 0; k < 6; ++k) {
      Span span(&tracer, "ckpt.CheckpointReader.restore");
      const ckpt::RestoreResult r = reader.restore();
      restore_ms.push_back(span.ms());
      if (!(r.state == state)) {
        throw std::runtime_error("checkpoint restore does not round-trip");
      }
    }
    out.add("ckpt.write_ms", median(write_ms), "ms");
    out.add("ckpt.restore_ms", median(restore_ms), "ms");
    out.add("ckpt.bytes", bytes, "bytes");
  }

  // ---- supervisor: one unfaulted durable job.
  {
    TimedStorage storage;
    supervisor::Supervisor sup(
        durable_job(args, storage, "probe-job", kDurableJobSteps));
    Span span(&tracer, "supervisor.Supervisor.run");
    const supervisor::SupervisorReport report = sup.run();
    long trips = 0;
    for (const supervisor::Incident& i : report.incidents) {
      if (i.cls == supervisor::IncidentClass::Corruption) ++trips;
    }
    out.add("guard.trips", static_cast<double>(trips), "count");
    out.add("supervisor.incidents",
            static_cast<double>(report.incidents.size()), "count");
    out.add("supervisor.recovery_actions",
            static_cast<double>(report.recovery_actions), "count");
    out.add("supervisor.downtime_ms", report.total_downtime_ms, "ms");
  }

  const model::ArenaStats arena = model::Arena::global().stats();
  out.add("model.arena_hits", static_cast<double>(arena.hits), "count");
  out.add("model.arena_misses", static_cast<double>(arena.misses), "count");
  out.add("model.arena_high_water_mb",
          arena.high_water_bytes / (1024.0 * 1024.0), "MB");
  out.add("model.tensor_copies",
          static_cast<double>(model::ArenaBuffer::copy_count()), "count");
}

}  // namespace perfbench
