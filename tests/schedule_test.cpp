#include <gtest/gtest.h>

#include "core/schedule.h"
#include "planners/megatron.h"
#include "sim/executor.h"

namespace autopipe::core {
namespace {

std::vector<StageCost> uniform_stages(int n, double f = 1.0, double b = 2.0) {
  return std::vector<StageCost>(n, StageCost{f, b});
}

// Every builder must satisfy the structural invariants for a sweep of
// shapes -- validate() throws on violation.
struct ShapeCase {
  int stages, micro_batches, sliced;
};

class OneFOneBShapes : public testing::TestWithParam<ShapeCase> {};

TEST_P(OneFOneBShapes, BuildsValidSchedules) {
  const auto [n, m, sliced] = GetParam();
  const auto plain = build_1f1b(uniform_stages(n), m, 0.1);
  EXPECT_NO_THROW(validate(plain));
  EXPECT_EQ(plain.kind, ScheduleKind::OneFOneB);
  const auto gp = build_gpipe(uniform_stages(n), m, 0.1);
  EXPECT_NO_THROW(validate(gp));
  const auto sl = build_sliced_1f1b(uniform_stages(n), m, 0.1, sliced);
  EXPECT_NO_THROW(validate(sl));
  if (sliced > 0) {
    EXPECT_EQ(sl.kind, ScheduleKind::AutoPipeSliced);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OneFOneBShapes,
    testing::Values(ShapeCase{1, 4, 0}, ShapeCase{2, 4, 1},
                    ShapeCase{4, 8, 0}, ShapeCase{4, 8, 1},
                    ShapeCase{4, 8, 3}, ShapeCase{8, 16, 2},
                    ShapeCase{3, 3, 1}, ShapeCase{12, 24, 4},
                    ShapeCase{5, 20, 4}));

TEST(Schedule, OneFOneBWarmupDepth) {
  const auto s = build_1f1b(uniform_stages(4), 8, 0.1);
  // Stage 0 runs 3 warmup forwards before its first backward.
  int leading_forwards = 0;
  for (const auto& op : s.order[0]) {
    if (op.type == OpType::Forward) {
      ++leading_forwards;
    } else {
      break;
    }
  }
  EXPECT_EQ(leading_forwards, 4);  // 3 warmup + the first 1F1B block forward
  // The last stage alternates from the start.
  EXPECT_EQ(s.order[3][0].type, OpType::Forward);
  EXPECT_EQ(s.order[3][1].type, OpType::Backward);
}

TEST(Schedule, GPipeRunsAllForwardsFirst) {
  const auto s = build_gpipe(uniform_stages(3), 5, 0.1);
  for (int dev = 0; dev < 3; ++dev) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(s.order[dev][i].type, OpType::Forward);
      EXPECT_EQ(s.order[dev][i + 5].type, OpType::Backward);
    }
    // Backwards run in reverse micro-batch order.
    EXPECT_EQ(s.order[dev][5].micro_batch, 4);
    EXPECT_EQ(s.order[dev][9].micro_batch, 0);
  }
}

TEST(Schedule, SlicedOpsAreHalvedAndPaired) {
  const auto s = build_sliced_1f1b(uniform_stages(4), 8, 0.1, 2);
  for (int dev = 0; dev < 4; ++dev) {
    int halves = 0;
    for (std::size_t i = 0; i < s.order[dev].size(); ++i) {
      const auto& op = s.order[dev][i];
      if (op.micro_batch < 2) {
        EXPECT_TRUE(op.is_half());
        ++halves;
        if (op.half == 0) {
          // The sibling half follows immediately.
          ASSERT_LT(i + 1, s.order[dev].size());
          EXPECT_EQ(s.order[dev][i + 1].half, 1);
          EXPECT_EQ(s.order[dev][i + 1].micro_batch, op.micro_batch);
        }
      } else {
        EXPECT_FALSE(op.is_half());
      }
    }
    EXPECT_EQ(halves, 2 * 2 * 2);  // 2 micro-batches x F/B x 2 halves
  }
}

TEST(Schedule, HalfOpsHaveHalfDuration) {
  const auto s = build_sliced_1f1b(uniform_stages(2, 3.0, 5.0), 4, 0.1, 1);
  for (const auto& op : s.order[0]) {
    const double d = s.op_duration_ms(0, op);
    const double whole = op.type == OpType::Forward ? 3.0 : 5.0;
    EXPECT_DOUBLE_EQ(d, op.is_half() ? whole / 2 : whole);
  }
}

TEST(Schedule, AggregatedCommMarksLaterSlicedHalvesOnly) {
  const auto s = build_sliced_1f1b(uniform_stages(4), 8, 0.1, 3);
  for (int dev = 0; dev < 4; ++dev) {
    for (const auto& op : s.order[dev]) {
      if (!op.aggregated_comm) continue;
      EXPECT_EQ(op.type, OpType::Forward);
      EXPECT_EQ(op.half, 0);
      EXPECT_GE(op.micro_batch, 1);  // micro-batch 0 carries the startup win
      EXPECT_LT(op.micro_batch, 3);
      EXPECT_LT(dev, 3);  // the last stage sends nothing forward
    }
  }
}

TEST(Schedule, RejectsBadArguments) {
  EXPECT_THROW(build_1f1b(uniform_stages(4), 3, 0.1), std::invalid_argument);
  EXPECT_THROW(build_sliced_1f1b(uniform_stages(4), 8, 0.1, 9),
               std::invalid_argument);
  EXPECT_THROW(build_gpipe({}, 4, 0.1), std::invalid_argument);
}

TEST(Schedule, InterleavedRequiresDivisibility) {
  const std::vector<std::vector<StageCost>> chunks(
      4, std::vector<StageCost>(2, StageCost{1, 2}));
  EXPECT_THROW(build_interleaved(chunks, 6, 0.1), std::invalid_argument);
  EXPECT_NO_THROW(build_interleaved(chunks, 8, 0.1));
}

TEST(Schedule, InterleavedCoversEveryChunk) {
  const std::vector<std::vector<StageCost>> chunks(
      2, std::vector<StageCost>(3, StageCost{1, 2}));
  const auto s = build_interleaved(chunks, 4, 0.1);
  EXPECT_NO_THROW(validate(s));
  EXPECT_EQ(s.chunks, 3);
  // Each device executes m forwards and m backwards per chunk.
  for (int dev = 0; dev < 2; ++dev) {
    EXPECT_EQ(s.order[dev].size(), 2u * 4 * 3);
  }
}

TEST(Schedule, InterleavedWarmupIsDeeperThanPlain) {
  const std::vector<std::vector<StageCost>> chunks(
      4, std::vector<StageCost>(2, StageCost{1, 2}));
  const auto inter = build_interleaved(chunks, 8, 0.1);
  // Device 0 warmup: (4-0-1)*2 + (2-1)*4 = 10 leading forwards.
  int leading = 0;
  for (const auto& op : inter.order[0]) {
    if (op.type != OpType::Forward) break;
    ++leading;
  }
  EXPECT_EQ(leading, 11);  // 10 warmup + first steady forward
}

TEST(Schedule, MegatronInterleavedCostsSplitLayers) {
  const auto cfg =
      costmodel::build_model_config(costmodel::gpt2_345m(), {4, 0, true});
  ASSERT_TRUE(planners::megatron_interleaved_supports(cfg, 4, 2));
  const auto costs = planners::megatron_interleaved_costs(cfg, 4, 2);
  ASSERT_EQ(costs.size(), 4u);
  ASSERT_EQ(costs[0].size(), 2u);
  // Total forward time across all chunks equals the model total.
  double total = 0;
  for (const auto& dev : costs) {
    for (const auto& c : dev) total += c.fwd_ms;
  }
  EXPECT_NEAR(total, cfg.total_fwd_ms(), 1e-9);
  // 24 layers over 8 global stages -> 3 layers per chunk; the last global
  // stage also holds the expensive head.
  EXPECT_GT(costs[3][1].fwd_ms, costs[1][0].fwd_ms * 1.3);
  EXPECT_FALSE(planners::megatron_interleaved_supports(cfg, 4, 5));
}

TEST(Schedule, ValidateCatchesCorruption) {
  auto s = build_1f1b(uniform_stages(2), 4, 0.1);
  auto broken = s;
  broken.order[0].pop_back();  // drop an op
  EXPECT_THROW(validate(broken), std::logic_error);
  broken = s;
  broken.order[1][0].micro_batch = 99;
  EXPECT_THROW(validate(broken), std::logic_error);
}

TEST(Schedule, CarriesPerBoundaryCommCosts) {
  const auto uniform = build_1f1b(uniform_stages(4), 8, 0.25);
  EXPECT_EQ(uniform.boundary_comm_ms, (std::vector<double>{0.25, 0.25, 0.25}));
  EXPECT_DOUBLE_EQ(uniform.hop_ms(1), 0.25);

  const auto hetero = build_1f1b(
      uniform_stages(4), 8, CommModel::from_costs({0.1, 0.9, 0.2}));
  EXPECT_EQ(hetero.boundary_comm_ms, (std::vector<double>{0.1, 0.9, 0.2}));

  // Interleaved: chunks*stages-1 global boundaries, including the wrap hop.
  const std::vector<std::vector<StageCost>> chunks(
      2, std::vector<StageCost>(2, StageCost{1, 2}));
  const auto inter = build_interleaved(chunks, 4, 0.5);
  EXPECT_EQ(inter.boundary_comm_ms.size(), 3u);

  // An explicit vector of the wrong size is rejected at build time.
  EXPECT_THROW(
      build_1f1b(uniform_stages(4), 8, CommModel::from_costs({0.1, 0.9})),
      std::invalid_argument);
}

TEST(Schedule, UniformCommModelIsBitIdenticalToScalar) {
  // Contract (a) of the refactor: a uniform CommModel must reproduce the
  // historical scalar-comm executor results bit-for-bit, and so must an
  // explicit per-boundary vector whose entries all equal the scalar (every
  // consumer adds hops one at a time, never as a closed-form multiply).
  const auto costs = uniform_stages(5, 1.7, 3.9);
  const double c = 0.37;
  const auto scalar = sim::execute(build_sliced_1f1b(costs, 11, c, 3));
  const auto vector = sim::execute(build_sliced_1f1b(
      costs, 11, CommModel::from_costs({c, c, c, c}), 3));
  EXPECT_EQ(scalar.iteration_ms, vector.iteration_ms);
  EXPECT_EQ(scalar.startup_ms, vector.startup_ms);
  ASSERT_EQ(scalar.trace.size(), vector.trace.size());
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i].start_ms, vector.trace[i].start_ms);
    EXPECT_EQ(scalar.trace[i].end_ms, vector.trace[i].end_ms);
  }
}

TEST(ScheduleEval, MatchesExecutorOnKnownShapes) {
  const auto costs = uniform_stages(4, 2.0, 4.0);
  for (const auto& schedule :
       {build_1f1b(costs, 8, 0.3), build_gpipe(costs, 8, 0.3),
        build_sliced_1f1b(costs, 8, 0.3, 2)}) {
    const auto eval = evaluate_schedule(schedule);
    const auto exec = sim::execute(schedule);
    EXPECT_EQ(eval.iteration_ms, exec.iteration_ms);
    EXPECT_EQ(eval.startup_ms, exec.startup_ms);
  }
}

TEST(ScheduleEval, HeterogeneousBoundaryShiftsStartup) {
  // Pricing one boundary 5 ms slower delays the last device's first forward
  // by exactly that lag on an otherwise free interconnect.
  const auto costs = uniform_stages(4, 2.0, 4.0);
  const auto base = evaluate_schedule(build_1f1b(costs, 8, 0.0));
  const auto skewed = evaluate_schedule(
      build_1f1b(costs, 8, CommModel::from_costs({0.0, 5.0, 0.0})));
  EXPECT_NEAR(skewed.startup_ms, base.startup_ms + 5.0, 1e-12);
}

TEST(ScheduleEval, CriticalPathRidesTheBottleneckDevice) {
  // One device twice as slow as the rest: the steady-phase critical path
  // must ride it.
  std::vector<StageCost> costs = uniform_stages(4, 2.0, 4.0);
  costs[2] = StageCost{4.0, 8.0};
  const auto eval = evaluate_schedule(build_1f1b(costs, 8, 0.1));
  ASSERT_FALSE(eval.critical_path.empty());
  int bottleneck_hits = 0;
  for (int id : eval.critical_path) {
    EXPECT_TRUE(eval.ops[id].on_critical_path);
    if (eval.ops[id].device == 2) ++bottleneck_hits;
  }
  EXPECT_GT(bottleneck_hits,
            static_cast<int>(eval.critical_path.size()) / 2);
  // The path is causally ordered.
  for (std::size_t i = 1; i < eval.critical_path.size(); ++i) {
    EXPECT_LE(eval.ops[eval.critical_path[i - 1]].end_ms,
              eval.ops[eval.critical_path[i]].start_ms + 1e-12);
  }
}

TEST(ScheduleEval, RejectsMalformedSchedules) {
  auto schedule = build_1f1b(uniform_stages(3), 6, 0.1);
  schedule.boundary_comm_ms = {0.1};  // wrong size
  EXPECT_THROW(evaluate_schedule(schedule), std::logic_error);
  // An empty schedule has no stages to time.
  EXPECT_THROW(evaluate_schedule(Schedule{}), std::logic_error);
  EXPECT_THROW(sim::execute(Schedule{}), std::logic_error);
  // A half index other than -1/0/1 names no op.
  auto bad_half = build_1f1b(uniform_stages(2), 2, 0.1);
  bad_half.order[0][0].half = 2;
  EXPECT_THROW(validate(bad_half), std::logic_error);
}

TEST(ScheduleEval, CyclicDeviceOrdersThrowFromBothEvaluators) {
  // Structurally valid orders that deadlock: device 0 waits for B0's dx
  // before it sends F1, while device 1 runs F1 before B0. validate() cannot
  // see the cycle; both evaluators must reject it.
  auto schedule = build_1f1b(uniform_stages(2), 2, 0.1);
  const ScheduleOp f0{OpType::Forward, 0}, f1{OpType::Forward, 1};
  const ScheduleOp b0{OpType::Backward, 0}, b1{OpType::Backward, 1};
  schedule.order = {{f0, b0, f1, b1}, {f0, f1, b0, b1}};
  ASSERT_NO_THROW(validate(schedule));
  EXPECT_THROW(evaluate_schedule(schedule), std::logic_error);
  EXPECT_THROW(sim::execute(schedule), std::logic_error);
}

}  // namespace
}  // namespace autopipe::core
