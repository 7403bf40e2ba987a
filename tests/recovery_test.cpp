// Recovery suite (ctest label `faults`): StageFailure propagation in the
// thread runtime, in-place transient retry and escalation, the atomicity of
// a failed TrainSession::step() that the supervisor's recovery ladder
// (supervisor/supervisor.h) rests on, and that ladder's crash re-plan and
// escalated-transient retry on a step-0 fault.
#include <gtest/gtest.h>

#include <limits>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "faults/fault_plan.h"
#include "model/data.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_failure.h"
#include "runtime/train_session.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"

namespace autopipe::runtime {
namespace {

/// Twin tiny models + one mini-batch; the single fixture every test shares.
struct Lab {
  model::TinySpec spec;
  model::TransformerModel ref, piped;
  model::Batch whole;
  std::vector<model::Batch> micro;
  double scale;
  double ref_loss;

  Lab()
      : spec(make_spec()),
        ref(spec),
        piped(spec),
        scale(1.0 / (4 * 6 * spec.seq)) {
    model::SyntheticCorpus corpus(spec.vocab);
    whole = corpus.next_batch(4 * 6, spec.seq);
    micro = model::SyntheticCorpus::split_micro_batches(whole, spec.seq, 4);
    ref.zero_grads();
    ref_loss = ref.reference_step(whole.ids, whole.targets, scale);
    piped.zero_grads();
  }

  static model::TinySpec make_spec() {
    model::TinySpec s;
    s.layers = 3;  // 8 blocks
    s.hidden = 16;
    s.heads = 2;
    s.vocab = 32;
    s.seq = 4;
    return s;
  }

  IterationResult run(const std::vector<int>& counts, const RunOptions& run) {
    PipelineRuntime rt(piped, counts);
    const auto schedule = rt.make_schedule(
        costmodel::ScheduleKind::OneFOneB, static_cast<int>(micro.size()));
    return rt.run_iteration(schedule, micro, scale, run);
  }
};

// ------------------------------------------------------ typed propagation

TEST(Recovery, EmptyFaultPlanMatchesLegacyPathBitIdentically) {
  Lab legacy, faulted;
  const auto a = legacy.run({2, 3, 3}, RunOptions{});
  faults::FaultPlan empty;
  RunOptions run;
  run.faults = &empty;
  const auto b = faulted.run({2, 3, 3}, run);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(b.transient_retries, 0);
  EXPECT_DOUBLE_EQ(legacy.piped.max_grad_diff(faulted.piped), 0.0);
}

TEST(Recovery, CrashSurfacesAsTypedFailureWithOriginDevice) {
  Lab lab;
  faults::FaultPlan plan;
  plan.crashes.push_back({2, std::numeric_limits<double>::infinity(), 1});
  RunOptions run;
  run.faults = &plan;
  try {
    lab.run({2, 3, 3}, run);
    FAIL() << "crashed iteration reported success";
  } catch (const StageFailure& e) {
    // The origin failure, not a PeerClosed echo from a neighbour.
    EXPECT_EQ(e.kind(), FailureKind::Crash);
    EXPECT_EQ(e.device(), 2);
  }
}

TEST(Recovery, TransientWithinBudgetIsAbsorbedInPlace) {
  Lab lab;
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 2});  // fails twice, budget is 3
  RunOptions run;
  run.faults = &plan;
  run.backoff_base_ms = 0.01;
  const auto result = lab.run({2, 3, 3}, run);
  EXPECT_EQ(result.transient_retries, 2);
  EXPECT_NEAR(result.loss, lab.ref_loss, 1e-5);
  // The retried op re-runs the identical arithmetic: gradients are not
  // merely close to a fault-free run's, they are the same bits.
  Lab clean;
  clean.run({2, 3, 3}, RunOptions{});
  EXPECT_DOUBLE_EQ(clean.piped.max_grad_diff(lab.piped), 0.0);
}

TEST(Recovery, TransientBeyondBudgetEscalates) {
  Lab lab;
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 9});  // budget is 3
  RunOptions run;
  run.faults = &plan;
  try {
    lab.run({2, 3, 3}, run);
    FAIL() << "over-budget transient did not escalate";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Transient);
    EXPECT_EQ(e.device(), 1);
  }
}

// ------------------------------------------------------- step atomicity

TrainSessionOptions session_options() {
  TrainSessionOptions opts;
  opts.spec = Lab::make_spec();
  opts.counts = {2, 3, 3};
  return opts;
}

TEST(Recovery, SnapshotRestoreRoundTrips) {
  // capture() is the snapshot the supervisor restores from (a checkpoint or,
  // in Degrade mode before the first one, the live state); adopting it
  // continues the run bit-identically.
  TrainSession session(session_options()), uninterrupted(session_options());
  session.step();
  uninterrupted.step();
  TrainSession restored(session_options(), session.capture());
  EXPECT_TRUE(restored.capture() == session.capture());
  EXPECT_EQ(restored.step(), uninterrupted.step());
  EXPECT_TRUE(restored.capture() == uninterrupted.capture());

  TrainSessionOptions other = session_options();
  other.spec.layers = 2;  // different shape
  other.counts = {2, 2};
  EXPECT_THROW(TrainSession(other, session.capture()), ckpt::CkptError);
}

TEST(Recovery, ExhaustedAttemptsRethrowWithGradientsRestored) {
  // The supervisor's in-place retry and its live-state Degrade reshard both
  // rest on this: a step() that throws changes nothing a checkpoint would
  // capture, and the partial gradients of the failed attempt cannot leak
  // into the next one (step() zeroes them on entry).
  TrainSession session(session_options()), clean(session_options());
  session.step();  // Adam moments and a mid-sequence data stream exist
  clean.step();
  const ckpt::TrainState before = session.capture();

  faults::FaultPlan exhausted, crashed;
  exhausted.transients.push_back({1, 2, 9});  // beyond the in-place budget
  crashed.crashes.push_back({1, std::numeric_limits<double>::infinity(), 5});
  for (faults::FaultPlan* plan : {&exhausted, &crashed}) {
    session.run_options().faults = plan;
    try {
      session.step();
      FAIL() << "faulted step reported success";
    } catch (const StageFailure& e) {
      EXPECT_EQ(e.kind(), plan == &exhausted ? FailureKind::Transient
                                             : FailureKind::Crash);
      EXPECT_EQ(e.device(), 1);
    }
    const ckpt::TrainState after = session.capture();
    EXPECT_TRUE(after.blocks == before.blocks);
    EXPECT_TRUE(after.data_rng == before.data_rng);
    EXPECT_EQ(after.adam_t, before.adam_t);
    EXPECT_EQ(after.step, before.step);
  }

  session.run_options().faults = nullptr;
  EXPECT_EQ(session.step(), clean.step());
  EXPECT_DOUBLE_EQ(clean.model().max_grad_diff(session.model()), 0.0);
  EXPECT_TRUE(session.capture() == clean.capture());
}

// ------------------------------------------------ supervisor-driven recovery

/// One fault on device 1 at step 0, before any checkpoint could exist.
supervisor::ChaosScript step0_fault(supervisor::ChaosKind kind, int failures) {
  supervisor::ChaosEvent ev;
  ev.kind = kind;
  ev.device = 1;
  ev.op_index = 3;
  ev.failures = failures;
  supervisor::ChaosScript script;
  script.events.push_back(ev);
  return script;
}

/// A one-step Degrade-mode supervisor over the session_options() run.
supervisor::SupervisorOptions degrade_supervisor(
    ckpt::Storage* storage, const supervisor::ChaosScript* chaos) {
  const model::TinySpec t = Lab::make_spec();
  costmodel::ModelSpec spec;
  spec.name = "tiny";
  spec.num_layers = t.layers;
  spec.hidden = t.hidden;
  spec.heads = t.heads;
  spec.vocab = t.vocab;
  spec.default_seq = t.seq;
  spec.causal = t.causal;

  supervisor::SupervisorOptions o;
  o.session = session_options();
  o.session.ckpt_dir = "recovery/degrade";
  o.session.storage = storage;
  o.session.run.backoff_base_ms = 0.01;
  o.config = costmodel::build_model_config(spec, {4, 0, true});
  o.target_steps = 1;
  o.mode = supervisor::RecoveryMode::Degrade;
  o.watchdog.grace_ms = 500;
  o.chaos = chaos;
  return o;
}

TEST(Recovery, CrashReplansOntoSurvivorsWithExactGradients) {
  ckpt::MemStorage mem;
  const supervisor::ChaosScript crash =
      step0_fault(supervisor::ChaosKind::Crash, 1);
  supervisor::Supervisor sup(degrade_supervisor(&mem, &crash));
  const supervisor::SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].cls, supervisor::IncidentClass::Crash);
  EXPECT_EQ(report.incidents[0].action, supervisor::Action::Replan);
  EXPECT_EQ(report.incidents[0].device, 1);
  EXPECT_GT(report.incidents[0].downtime_ms, 0.0);
  EXPECT_LT(report.incidents[0].downtime_ms, 5000.0)
      << "recovery took implausibly long";
  ASSERT_EQ(report.final_counts.size(), 2u);
  EXPECT_EQ(report.final_counts[0] + report.final_counts[1], 8);

  // Degraded operation trades throughput, never correctness: the gradients
  // are bit-identical to a fresh fault-free run on the partition the
  // replanner chose (the crashed attempt's partial sums are gone)...
  TrainSessionOptions fresh_opts = session_options();
  fresh_opts.counts = report.final_counts;
  TrainSession fresh(fresh_opts);
  EXPECT_EQ(report.losses, std::vector<double>{fresh.step()});
  EXPECT_DOUBLE_EQ(fresh.model().max_grad_diff(sup.session().model()), 0.0);
  EXPECT_TRUE(sup.session().capture() == fresh.capture());
  // ...and match the undegraded 3-device run to accumulation-order noise.
  TrainSession undegraded(session_options());
  undegraded.step();
  EXPECT_LT(undegraded.model().max_grad_diff(sup.session().model()), 1e-4);
}

TEST(Recovery, EscalatedTransientRetriesOnSameDevices) {
  // A transient that outlives the worker's in-place budget escalates, but
  // even in Degrade mode it costs no device: the fault is consumed, so the
  // step is retried on the same partition and stays bit-identical.
  ckpt::MemStorage mem;
  const supervisor::ChaosScript transient =
      step0_fault(supervisor::ChaosKind::Transient, 9);
  supervisor::Supervisor sup(degrade_supervisor(&mem, &transient));
  const supervisor::SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].cls, supervisor::IncidentClass::Transient);
  EXPECT_EQ(report.incidents[0].action, supervisor::Action::RetryInPlace);
  EXPECT_EQ(report.final_counts, (std::vector<int>{2, 3, 3}));
  TrainSession clean(session_options());
  EXPECT_EQ(report.losses, std::vector<double>{clean.step()});
  EXPECT_DOUBLE_EQ(clean.model().max_grad_diff(sup.session().model()), 0.0);
  EXPECT_TRUE(sup.session().capture() == clean.capture());
}

}  // namespace
}  // namespace autopipe::runtime
