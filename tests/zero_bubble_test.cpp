// Zero-bubble (split-backward) schedules, end to end: the builder's
// structure and in-flight caps, analytic evaluation vs the discrete-event
// executor (bitwise), the validator's B/W rules, and -- the contract the
// whole feature rests on -- pinned backward bits per block and through the
// real thread runtime, where zero-bubble's deferred W ops reproduce fused
// 1F1B's gradients bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/autopipe.h"
#include "core/schedule.h"
#include "costmodel/analytic.h"
#include "costmodel/model_zoo.h"
#include "model/blocks.h"
#include "model/data.h"
#include "model/transformer.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/train_session.h"
#include "sim/executor.h"
#include "util/rng.h"

namespace autopipe::core {
namespace {

std::vector<StageCost> split_stages(int n, double f = 1.0, double bi = 1.2,
                                    double bw = 0.8) {
  std::vector<StageCost> v(n);
  for (auto& s : v) {
    s.fwd_ms = f;
    s.bwd_ms = bi + bw;
    s.bwd_input_ms = bi;
    s.bwd_weight_ms = bw;
  }
  return v;
}

int count_ops(const std::vector<ScheduleOp>& order, OpType type) {
  int n = 0;
  for (const auto& op : order) n += op.type == type ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------- builder

TEST(ZeroBubble, BuilderEmitsFullSplitOpSetPerDevice) {
  const int n = 4, m = 8;
  const auto s = make_zero_bubble(split_stages(n), m, 0.1);
  EXPECT_EQ(s.kind, costmodel::ScheduleKind::ZeroBubble);
  EXPECT_EQ(s.num_stages, n);
  EXPECT_EQ(s.num_micro_batches, m);
  validate(s);
  for (int d = 0; d < n; ++d) {
    SCOPED_TRACE(testing::Message() << "device " << d);
    EXPECT_EQ(count_ops(s.order[d], OpType::Forward), m);
    EXPECT_EQ(count_ops(s.order[d], OpType::BackwardInput), m);
    EXPECT_EQ(count_ops(s.order[d], OpType::BackwardWeight), m);
    EXPECT_EQ(count_ops(s.order[d], OpType::Backward), 0);
  }
}

TEST(ZeroBubble, InFlightCapsHoldAtEveryPointOfEveryDevice) {
  // Scanning each device's order in sequence: forwards minus grad-input
  // retirements never exceeds n - device (activation stashes), and
  // grad-input minus grad-weight retirements never exceeds n - device
  // (deferred W states) -- the bounds the memory model charges for.
  for (const int m : {4, 7, 12}) {
    const int n = 4;
    if (m < n) continue;
    const auto s = make_zero_bubble(split_stages(n), m, 0.2);
    for (int d = 0; d < n; ++d) {
      int fwd = 0, binput = 0, bweight = 0;
      for (const auto& op : s.order[d]) {
        fwd += op.type == OpType::Forward ? 1 : 0;
        binput += op.type == OpType::BackwardInput ? 1 : 0;
        bweight += op.type == OpType::BackwardWeight ? 1 : 0;
        EXPECT_LE(fwd - binput, n - d)
            << "activation stash cap, device " << d << ", m=" << m;
        EXPECT_LE(binput - bweight, n - d)
            << "deferred-W cap, device " << d << ", m=" << m;
      }
    }
  }
}

TEST(ZeroBubble, PerMicroBatchOrderIsFThenBThenW) {
  const auto s = make_zero_bubble(split_stages(3), 6, 0.1);
  for (int d = 0; d < 3; ++d) {
    std::vector<int> f_at(6, -1), b_at(6, -1), w_at(6, -1);
    for (int i = 0; i < static_cast<int>(s.order[d].size()); ++i) {
      const auto& op = s.order[d][i];
      if (op.type == OpType::Forward) f_at[op.micro_batch] = i;
      if (op.type == OpType::BackwardInput) b_at[op.micro_batch] = i;
      if (op.type == OpType::BackwardWeight) w_at[op.micro_batch] = i;
    }
    for (int mb = 0; mb < 6; ++mb) {
      EXPECT_LT(f_at[mb], b_at[mb]) << "device " << d << " mb " << mb;
      EXPECT_LT(b_at[mb], w_at[mb]) << "device " << d << " mb " << mb;
    }
  }
}

TEST(ZeroBubble, NeutralCostsFallBackToTwoThirdsSplit)
{
  // StageCost{1.0, 2.0} carries no B/W split; the builder assumes
  // 2/3 : 1/3 of bwd_ms, and op_duration_ms prices the halves that way.
  std::vector<StageCost> neutral(3);
  for (auto& s : neutral) {
    s.fwd_ms = 1.0;
    s.bwd_ms = 2.0;
  }
  const auto s = make_zero_bubble(neutral, 6, 0.1);
  validate(s);
  ScheduleOp bi{OpType::BackwardInput, 0, -1, 0};
  ScheduleOp bw{OpType::BackwardWeight, 0, -1, 0};
  EXPECT_DOUBLE_EQ(s.op_duration_ms(0, bi), 2.0 * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.op_duration_ms(0, bw), 2.0 / 3.0);
}

TEST(ZeroBubble, RequiresEnoughMicroBatches) {
  EXPECT_THROW(make_zero_bubble(split_stages(4), 3, 0.1),
               std::invalid_argument);
}

TEST(ZeroBubble, BuildScheduleDispatchesEveryKind) {
  const auto costs = split_stages(2);
  EXPECT_EQ(build_schedule(ScheduleKind::OneFOneB, costs, 4, 0.1).kind,
            ScheduleKind::OneFOneB);
  EXPECT_EQ(build_schedule(ScheduleKind::GPipe, costs, 4, 0.1).kind,
            ScheduleKind::GPipe);
  EXPECT_EQ(build_schedule(ScheduleKind::AutoPipeSliced, costs, 4, 0.1,
                           {/*sliced=*/1, /*chunks=*/1})
                .kind,
            ScheduleKind::AutoPipeSliced);
  EXPECT_EQ(build_schedule(ScheduleKind::Interleaved, costs, 4, 0.1,
                           {/*sliced=*/0, /*chunks=*/2})
                .kind,
            ScheduleKind::Interleaved);
  EXPECT_EQ(build_schedule(ScheduleKind::ZeroBubble, costs, 4, 0.1).kind,
            ScheduleKind::ZeroBubble);
  EXPECT_THROW(build_schedule(static_cast<ScheduleKind>(99), costs, 4, 0.1),
               std::invalid_argument);
}

// ------------------------------------------------------------- validation

TEST(ZeroBubble, ValidateCatchesWeightBeforeInput) {
  auto s = make_zero_bubble(split_stages(2), 4, 0.1);
  // Swap the first BackwardInput on device 1 with the matching
  // BackwardWeight: W now retires before its own B.
  auto& order = s.order[1];
  int bi = -1, bw = -1;
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    if (order[i].type == OpType::BackwardInput && order[i].micro_batch == 0)
      bi = i;
    if (order[i].type == OpType::BackwardWeight && order[i].micro_batch == 0)
      bw = i;
  }
  ASSERT_GE(bi, 0);
  ASSERT_GE(bw, 0);
  std::swap(order[bi], order[bw]);
  EXPECT_THROW(validate(s), std::logic_error);
}

TEST(ZeroBubble, ValidateCatchesMissingWeightOp) {
  auto s = make_zero_bubble(split_stages(2), 4, 0.1);
  auto& order = s.order[0];
  for (auto it = order.begin(); it != order.end(); ++it) {
    if (it->type == OpType::BackwardWeight && it->micro_batch == 2) {
      order.erase(it);
      break;
    }
  }
  EXPECT_THROW(validate(s), std::logic_error);
}

TEST(ZeroBubble, ValidateRejectsMixingFusedAndSplitForOneMicroBatch) {
  auto s = make_zero_bubble(split_stages(2), 4, 0.1);
  // Replace micro-batch 1's B/W pair on device 0 with B plus a fused
  // Backward: the micro-batch now has both a split half and a fused op.
  for (auto& op : s.order[0]) {
    if (op.type == OpType::BackwardWeight && op.micro_batch == 1) {
      op.type = OpType::Backward;
    }
  }
  EXPECT_THROW(validate(s), std::logic_error);
}

// -------------------------------------------------- analytic eval vs exec

TEST(ZeroBubble, EvalMatchesExecutorBitwiseAcrossShapes) {
  for (const auto& [n, m] : std::vector<std::pair<int, int>>{
           {2, 2}, {2, 5}, {3, 7}, {4, 8}, {5, 11}, {8, 16}}) {
    SCOPED_TRACE(testing::Message() << n << " stages x " << m << " mb");
    auto costs = split_stages(n);
    // Perturb per-stage so the critical path is not degenerate.
    for (int d = 0; d < n; ++d) {
      costs[d].fwd_ms = 1.0 + 0.13 * d;
      costs[d].bwd_input_ms = 1.1 + 0.07 * ((d * 3) % n);
      costs[d].bwd_weight_ms = 0.6 + 0.05 * d;
      costs[d].bwd_ms = costs[d].bwd_input_ms + costs[d].bwd_weight_ms;
    }
    const auto schedule = make_zero_bubble(costs, m, 0.3);
    const auto eval = evaluate_schedule(schedule);
    const auto exec = sim::execute(schedule);
    EXPECT_EQ(eval.iteration_ms, exec.iteration_ms);
    EXPECT_EQ(eval.startup_ms, exec.startup_ms);
  }
}

TEST(ZeroBubble, EvalMatchesExecutorWithNonUniformComm) {
  const auto costs = split_stages(4, 1.5, 1.3, 0.9);
  const auto schedule = make_zero_bubble(
      costs, 9, CommModel::from_costs({0.1, 0.8, 0.25}));
  const auto eval = evaluate_schedule(schedule);
  const auto exec = sim::execute(schedule);
  EXPECT_EQ(eval.iteration_ms, exec.iteration_ms);
  EXPECT_EQ(eval.startup_ms, exec.startup_ms);
}

TEST(ZeroBubble, BeatsOneFOneBOnDeepPipeline) {
  // The zero-bubble premise: W ops fill the 1F1B bubbles, so the deeper
  // the pipeline the bigger the win. Same fused bwd totals on both sides.
  const auto costs = split_stages(8, 1.0, 1.4, 0.6);
  const int m = 16;
  const double zb = evaluate_schedule(make_zero_bubble(costs, m, 0.1))
                        .iteration_ms;
  const double fused =
      evaluate_schedule(build_1f1b(costs, m, 0.1)).iteration_ms;
  EXPECT_LT(zb, fused);
}

// ------------------------------------------------------------- co-search

TEST(ZeroBubble, PlannerCoSearchAdoptsZeroBubbleOnlyWhenItWins) {
  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name("gpt2-1.3b"), {4, 0, true});

  // Deep pipeline, few micro-batches: big warmup bubble, zero-bubble wins.
  AutoPipeOptions deep{8, 64, 8, true, 1};
  deep.enable_zero_bubble = true;
  const auto zb = auto_plan(cfg, deep);
  EXPECT_EQ(zb.schedule.kind, costmodel::ScheduleKind::ZeroBubble);
  AutoPipeOptions off = deep;
  off.enable_zero_bubble = false;
  const auto base = auto_plan(cfg, off);
  EXPECT_EQ(base.plan.partition.counts, zb.plan.partition.counts)
      << "co-search must not change the partition, only the schedule";
  EXPECT_LT(evaluate_schedule(zb.schedule).iteration_ms,
            evaluate_schedule(base.schedule).iteration_ms);

  // Many micro-batches amortize the bubble: sliced 1F1B stays the winner
  // even with the co-search enabled.
  AutoPipeOptions amortized{8, 512, 8, true, 1};
  amortized.enable_zero_bubble = true;
  const auto keep = auto_plan(cfg, amortized);
  EXPECT_NE(keep.schedule.kind, costmodel::ScheduleKind::ZeroBubble);

  // Off by default: the flag itself defaults to false.
  EXPECT_FALSE(AutoPipeOptions{}.enable_zero_bubble);
}

}  // namespace
}  // namespace autopipe::core

// ---------------------------------------------------------------- runtime

namespace autopipe::runtime {
namespace {

model::TinySpec tiny_spec() {
  model::TinySpec s;
  s.layers = 3;  // 8 blocks
  s.hidden = 16;
  s.heads = 2;
  s.vocab = 32;
  s.seq = 4;
  return s;
}

TEST(ZeroBubbleRuntime, SplitBackwardGradsBitIdenticalToFused) {
  // The acceptance contract: a zero-bubble iteration produces the SAME
  // bits as fused 1F1B on every parameter gradient -- the W deferral only
  // reorders ops across micro-batches, never the additions into any one
  // parameter's grad tensor.
  const auto spec = tiny_spec();
  for (const auto& [counts, m] : std::vector<std::pair<std::vector<int>, int>>{
           {{2, 3, 3}, 6}, {{4, 4}, 4}, {{1, 2, 2, 3}, 8}}) {
    SCOPED_TRACE(testing::Message() << counts.size() << " stages, m=" << m);
    model::TransformerModel fused(spec), split(spec);
    model::SyntheticCorpus corpus(spec.vocab);
    const int B = 4;
    const auto batch = corpus.next_batch(B * m, spec.seq);
    const auto micro =
        model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
    const double scale = 1.0 / (B * m * spec.seq);

    PipelineRuntime rt_fused(fused, counts), rt_split(split, counts);
    fused.zero_grads();
    split.zero_grads();
    const auto fused_result = rt_fused.run_iteration(
        rt_fused.make_schedule(costmodel::ScheduleKind::OneFOneB, m, 0),
        micro, scale);
    const auto split_result = rt_split.run_iteration(
        rt_split.make_schedule(costmodel::ScheduleKind::ZeroBubble, m, 0),
        micro, scale);

    EXPECT_EQ(fused_result.loss, split_result.loss);
    EXPECT_EQ(fused.max_grad_diff(split), 0.0);
  }
}

TEST(ZeroBubbleRuntime, MatchesSingleMachineReference) {
  // And the usual §II-B consistency property against the single-process
  // reference (tolerance, not bits: micro-batching itself reorders adds).
  const auto spec = tiny_spec();
  model::TransformerModel ref(spec), piped(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, m = 6;
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);

  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);

  PipelineRuntime rt(piped, {2, 3, 3});
  piped.zero_grads();
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::ZeroBubble, m, 0);
  const auto result = rt.run_iteration(schedule, micro, scale);

  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

TEST(ZeroBubbleRuntime, RejectsNoRecomputeMode) {
  // The split backward re-derives intermediates from the stashed block
  // input; without recompute there is nothing to re-derive from.
  const auto spec = tiny_spec();
  model::TransformerModel m(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const auto batch = corpus.next_batch(4 * 4, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, 4);
  PipelineRuntime rt(m, {4, 4});
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::ZeroBubble, 4, 0);
  EXPECT_THROW(
      rt.run_iteration(schedule, micro, 1.0 / 64, /*recompute=*/false),
      std::invalid_argument);
}

// ------------------------------------------------------- per-block split

/// FNV-1a over raw bytes: folds exact bit patterns into one number.
struct BitHash {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add(const model::Tensor& t) { add(t.data(), t.numel() * sizeof(float)); }
  void add(const std::vector<float>& v) { add(v.data(), v.size() * sizeof(float)); }
  void add(double x) { add(&x, sizeof x); }
};

/// Bits of one block backward: dx, then every parameter gradient.
std::uint64_t backward_bits(const model::Block& block, const model::Tensor& dx) {
  BitHash hash;
  hash.add(dx);
  for (const auto& p : block.params()) hash.add(p.grad);
  return hash.h;
}

/// The split backward from zeroed grads. The input half must leave every
/// parameter gradient untouched; the weight half then accumulates them.
std::uint64_t split_bits(model::Block& block, const model::Tensor& x,
                         const model::Tensor& dy) {
  block.zero_grads();
  std::unique_ptr<model::Block::BwState> state;
  const model::Tensor dx = block.backward_input(x, dy, &state);
  EXPECT_NE(state, nullptr) << block.kind() << ": no weight-half state";
  for (const auto& p : block.params()) {
    for (std::size_t i = 0; i < p.grad.numel(); ++i) {
      EXPECT_EQ(p.grad.at(i), 0.0f)
          << block.kind() << ": backward_input touched " << p.name;
      if (p.grad.at(i) != 0.0f) break;
    }
  }
  if (state != nullptr) block.backward_weight(*state);
  return backward_bits(block, dx);
}

std::uint64_t whole_bits(model::Block& block, const model::Tensor& x,
                         const model::Tensor& dy) {
  block.zero_grads();
  const model::Tensor dx = block.backward(x, dy);
  return backward_bits(block, dx);
}

struct BlockShape {
  int hidden, heads, vocab, seq, batch;
  std::uint64_t seed;
  /// Pinned backward bits per block kind: embedding, attention, FFN, head.
  std::array<std::uint64_t, 4> bits;
};

TEST(ZeroBubbleBlocks, EveryBlockTypeSplitsBitIdentically) {
  // Golden bits of every block kind's backward (dx and every gradient),
  // through both Block::backward and the split backward_input /
  // backward_weight pair. The second shape is the perfbench `train` block
  // (64 tokens, hidden 128, 4 heads). On a mismatch the observed value is
  // printed for the table.
  const std::vector<BlockShape> shapes = {
      {16, 2, 32, 4, 3, 77,
       {0x9a45fdca1c1b0b68ull, 0x3e7fa6f1be51a8a7ull, 0x7fb265ce768cf3e1ull,
        0x3e3c12d139f88781ull}},
      {128, 4, 256, 16, 4, 78,
       {0x46091c616eaae6dbull, 0xb27fdeb42504a744ull, 0xe108566f6e14acceull,
        0x2dd5b89522ed1ff1ull}},
  };
  for (const BlockShape& s : shapes) {
    SCOPED_TRACE(testing::Message() << "hidden " << s.hidden);
    util::Rng rng(s.seed);
    const int tokens = s.batch * s.seq;
    std::vector<std::unique_ptr<model::Block>> blocks;
    std::vector<std::pair<model::Tensor, model::Tensor>> io;  // (x, dy)
    // x before dy, in separate statements: argument evaluation order is
    // unspecified and the rng draws must not depend on the compiler.
    const auto add_io = [&](model::Tensor x, int dy_cols) {
      model::Tensor dy = model::Tensor::randn({tokens, dy_cols}, rng);
      io.emplace_back(std::move(x), std::move(dy));
    };

    blocks.push_back(
        std::make_unique<model::EmbeddingBlock>(s.vocab, s.hidden, s.seq, rng));
    model::Tensor ids({tokens, 1});
    for (int i = 0; i < tokens; ++i) {
      ids.data()[i] = static_cast<float>(rng.next_below(s.vocab));
    }
    add_io(std::move(ids), s.hidden);

    blocks.push_back(std::make_unique<model::ResidualAttentionBlock>(
        s.hidden, s.heads, s.seq, true, rng));
    add_io(model::Tensor::randn({tokens, s.hidden}, rng), s.hidden);

    blocks.push_back(std::make_unique<model::ResidualFFNBlock>(s.hidden, rng));
    add_io(model::Tensor::randn({tokens, s.hidden}, rng), s.hidden);

    blocks.push_back(std::make_unique<model::HeadBlock>(s.hidden, s.vocab, rng));
    add_io(model::Tensor::randn({tokens, s.hidden}, rng), s.vocab);

    for (std::size_t k = 0; k < blocks.size(); ++k) {
      model::Block& block = *blocks[k];
      const auto& [x, dy] = io[k];
      const std::uint64_t split = split_bits(block, x, dy);
      const std::uint64_t whole = whole_bits(block, x, dy);
      EXPECT_EQ(split, s.bits[k])
          << block.kind() << " split observed 0x" << std::hex << split;
      EXPECT_EQ(whole, s.bits[k])
          << block.kind() << " backward observed 0x" << std::hex << whole;
    }
  }
}

TEST(ZeroBubbleBlocks, NullStateSlotIsAnError) {
  // The weight half lives in the state: an input half with nowhere to put
  // it must refuse rather than drop every parameter gradient.
  util::Rng rng(5);
  const int hidden = 8, seq = 3, tokens = 6;
  model::Tensor ids({tokens, 1});
  const model::Tensor x = model::Tensor::randn({tokens, hidden}, rng);
  const model::Tensor dy = model::Tensor::randn({tokens, hidden}, rng);
  model::EmbeddingBlock embed(hidden, hidden, seq, rng);
  model::ResidualAttentionBlock attn(hidden, 2, seq, true, rng);
  model::ResidualFFNBlock ffn(hidden, rng);
  model::HeadBlock head(hidden, hidden, rng);
  for (model::Block* block : {static_cast<model::Block*>(&embed),
                              static_cast<model::Block*>(&attn),
                              static_cast<model::Block*>(&ffn),
                              static_cast<model::Block*>(&head)}) {
    SCOPED_TRACE(block->kind());
    const model::Tensor& in = block == &embed ? ids : x;
    EXPECT_THROW(block->backward_input(in, dy, nullptr), std::invalid_argument);
  }
}

// -------------------------------------------------- trained-state pin

TEST(ZeroBubbleRuntime, TrainedStateBitsArePinned) {
  // Golden bits of four TrainSession steps -- parameters, Adam moments and
  // losses -- on 3 stages {3, 2, 3} with 6 micro-batches, for every
  // schedule family the runtime executes, with and without recompute.
  // Recompute never changes the bits, and zero-bubble's deferred W ops
  // retire each parameter's additions in 1F1B's order, so those rows share
  // a value. On a mismatch the observed value is printed for the table.
  struct Case {
    costmodel::ScheduleKind kind;
    bool recompute;
    std::uint64_t bits;
  };
  using costmodel::ScheduleKind;
  const std::vector<Case> cases = {
      {ScheduleKind::OneFOneB, true, 0x23d53009381d67dfull},
      {ScheduleKind::OneFOneB, false, 0x23d53009381d67dfull},
      {ScheduleKind::GPipe, true, 0x8c64cfc927c2ed61ull},
      {ScheduleKind::GPipe, false, 0x8c64cfc927c2ed61ull},
      {ScheduleKind::AutoPipeSliced, true, 0x5e892321aa35b8e0ull},
      {ScheduleKind::AutoPipeSliced, false, 0x5e892321aa35b8e0ull},
      {ScheduleKind::ZeroBubble, true, 0x23d53009381d67dfull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << costmodel::to_string(c.kind)
                                    << (c.recompute ? " recompute" : " cached"));
    TrainSessionOptions opts;
    opts.spec = tiny_spec();
    opts.counts = {3, 2, 3};
    opts.kind = c.kind;
    opts.sliced = c.kind == ScheduleKind::AutoPipeSliced ? 2 : 0;
    opts.num_micro_batches = 6;
    opts.run.recompute = c.recompute;
    TrainSession session(opts);
    for (int i = 0; i < 4; ++i) session.step();

    BitHash hash;
    const ckpt::TrainState state = session.capture();
    for (const auto& block : state.blocks) {
      for (const auto& p : block.params) {
        hash.add(p.value);
        hash.add(p.adam_m);
        hash.add(p.adam_v);
      }
    }
    for (double loss : session.losses()) hash.add(loss);
    EXPECT_EQ(hash.h, c.bits) << "observed 0x" << std::hex << hash.h;
  }
}

}  // namespace
}  // namespace autopipe::runtime
