// Op-level golden-gradient suite: every primitive's fast kernel must be
// BIT-identical to the retained naive reference (model::ref::) -- same
// additions in the same order per output element -- across ragged shapes
// (dimensions that are not multiples of the panel/tile sizes) and across
// thread counts. This is the contract that makes the blocked/ILP/threaded
// hot path freely substitutable for the reference everywhere: schedules,
// checkpoint resume and the consistency property all stay exact.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "model/ops.h"
#include "model/ops_detail.h"
#include "util/rng.h"

namespace autopipe::model {
namespace {

/// Bitwise tensor equality with a useful failure message.
void expect_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch";
  if (std::memcmp(got.data(), want.data(),
                  got.numel() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      FAIL() << what << ": first bit difference at flat index " << i << ": "
             << got.at(i) << " vs " << want.at(i);
    }
  }
}

Tensor randn(std::vector<int> shape, util::Rng& rng) {
  return Tensor::randn(std::move(shape), rng, 0.5f);
}

/// (m, k, n) GEMM shapes straddling the panel (32) and tile (4x8 SSE2,
/// 4x16 AVX) edges: exact multiples, one-off raggedness in every dimension,
/// degenerate single-row/column cases, n on both sides of 16 and 32, and
/// the train benchmark's own layer shapes with their 32-row sliced halves.
const std::vector<std::array<int, 3>>& gemm_shapes() {
  static const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},     {3, 5, 7},      {32, 32, 32},   {33, 17, 41},
      {31, 8, 9},    {64, 63, 65},   {7, 129, 5},    {65, 24, 16},
      {2, 16, 130},  {40, 128, 96},  {9, 20, 15},    {9, 20, 16},
      {9, 20, 17},   {6, 33, 31},    {6, 33, 33},    {64, 128, 384},
      {64, 128, 512}, {64, 512, 128}, {64, 128, 256}, {16, 128, 128},
      {32, 128, 384}, {32, 128, 512}, {32, 512, 128}, {32, 128, 256},
  };
  return shapes;
}

class OpsGoldenThreads : public testing::TestWithParam<int> {
 protected:
  void SetUp() override { set_ops_threads(GetParam()); }
  void TearDown() override { set_ops_threads(1); }
};

TEST_P(OpsGoldenThreads, MatmulFamilyBitIdenticalOnRaggedShapes) {
  util::Rng rng(7 + GetParam());
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor a = randn({m, k}, rng);
    const Tensor b = randn({k, n}, rng);
    const Tensor dc = randn({m, n}, rng);
    expect_bits(matmul(a, b), ref::matmul(a, b), "matmul");
    expect_bits(matmul_grad_a(dc, b), ref::matmul_grad_a(dc, b),
                "matmul_grad_a");
    expect_bits(matmul_grad_b(a, dc), ref::matmul_grad_b(a, dc),
                "matmul_grad_b");

    const Tensor bias = randn({n}, rng);
    expect_bits(linear(a, b, bias), ref::linear(a, b, bias), "linear");
    const LinearGrads fast = linear_backward(a, b, dc);
    const LinearGrads naive = ref::linear_backward(a, b, dc);
    expect_bits(fast.dx, naive.dx, "linear_backward.dx");
    expect_bits(fast.dw, naive.dw, "linear_backward.dw");
    expect_bits(fast.dbias, naive.dbias, "linear_backward.dbias");
  }
}

TEST_P(OpsGoldenThreads, ElementwiseAndRowOpsBitIdentical) {
  util::Rng rng(11 + GetParam());
  for (const auto& [rows, d] : std::vector<std::array<int, 2>>{
           {1, 1}, {3, 19}, {32, 64}, {33, 65}, {257, 3}, {96, 48}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << d);
    const Tensor x = randn({rows, d}, rng);
    const Tensor dy = randn({rows, d}, rng);
    expect_bits(gelu(x), ref::gelu(x), "gelu");
    expect_bits(gelu_backward(x, dy), ref::gelu_backward(x, dy),
                "gelu_backward");

    const Tensor gamma = randn({d}, rng);
    const Tensor beta = randn({d}, rng);
    LayerNormCache fast_cache, naive_cache;
    expect_bits(layernorm(x, gamma, beta, &fast_cache),
                ref::layernorm(x, gamma, beta, &naive_cache), "layernorm");
    expect_bits(fast_cache.normalized, naive_cache.normalized,
                "layernorm.normalized");
    ASSERT_EQ(fast_cache.inv_std.size(), naive_cache.inv_std.size());
    for (std::size_t i = 0; i < fast_cache.inv_std.size(); ++i) {
      ASSERT_EQ(std::memcmp(&fast_cache.inv_std[i], &naive_cache.inv_std[i],
                            sizeof(float)),
                0)
          << "inv_std row " << i;
    }
    const LayerNormGrads fast_g = layernorm_backward(fast_cache, gamma, dy);
    const LayerNormGrads naive_g =
        ref::layernorm_backward(naive_cache, gamma, dy);
    expect_bits(fast_g.dx, naive_g.dx, "layernorm_backward.dx");
    expect_bits(fast_g.dgamma, naive_g.dgamma, "layernorm_backward.dgamma");
    expect_bits(fast_g.dbeta, naive_g.dbeta, "layernorm_backward.dbeta");

    const Tensor probs = ref::softmax_rows(x);
    expect_bits(softmax_rows(x), probs, "softmax_rows");
    expect_bits(softmax_backward(probs, dy),
                ref::softmax_backward(probs, dy), "softmax_backward");
  }
}

TEST_P(OpsGoldenThreads, SplitBackwardPrimitivesBitIdentical) {
  // The zero-bubble B/W split's op-level contract: each split half is
  // bit-identical to its naive reference, and the two halves together
  // reproduce the naive one-piece backward's outputs exactly.
  util::Rng rng(17 + GetParam());
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor x = randn({m, k}, rng);
    const Tensor w = randn({k, n}, rng);
    const Tensor dy = randn({m, n}, rng);
    expect_bits(linear_backward_input(w, dy), ref::linear_backward_input(w, dy),
                "linear_backward_input");
    const LinearWeightGrads fast = linear_backward_weight(x, dy);
    const LinearWeightGrads naive = ref::linear_backward_weight(x, dy);
    expect_bits(fast.dw, naive.dw, "linear_backward_weight.dw");
    expect_bits(fast.dbias, naive.dbias, "linear_backward_weight.dbias");

    // Halves == the one-piece oracle, bitwise.
    const LinearGrads whole = ref::linear_backward(x, w, dy);
    expect_bits(linear_backward_input(w, dy), whole.dx, "split dx vs whole");
    expect_bits(fast.dw, whole.dw, "split dw vs whole");
    expect_bits(fast.dbias, whole.dbias, "split dbias vs whole");
  }
  for (const auto& [rows, d] : std::vector<std::array<int, 2>>{
           {1, 1}, {3, 19}, {32, 64}, {33, 65}, {257, 3}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << d);
    const Tensor x = randn({rows, d}, rng);
    const Tensor dy = randn({rows, d}, rng);
    const Tensor gamma = randn({d}, rng);
    const Tensor beta = randn({d}, rng);
    LayerNormCache cache;
    layernorm(x, gamma, beta, &cache);
    expect_bits(layernorm_backward_input(cache, gamma, dy),
                ref::layernorm_backward_input(cache, gamma, dy),
                "layernorm_backward_input");
    const LayerNormWeightGrads fast = layernorm_backward_weight(cache, dy);
    const LayerNormWeightGrads naive =
        ref::layernorm_backward_weight(cache, dy);
    expect_bits(fast.dgamma, naive.dgamma, "layernorm_backward_weight.dgamma");
    expect_bits(fast.dbeta, naive.dbeta, "layernorm_backward_weight.dbeta");

    const LayerNormGrads whole = ref::layernorm_backward(cache, gamma, dy);
    expect_bits(layernorm_backward_input(cache, gamma, dy), whole.dx,
                "split ln dx vs whole");
    expect_bits(fast.dgamma, whole.dgamma, "split dgamma vs whole");
    expect_bits(fast.dbeta, whole.dbeta, "split dbeta vs whole");
  }
}

TEST_P(OpsGoldenThreads, GeluForwardBackwardMatchesSeparateOps) {
  // One tanh per element must still give exactly gelu's and
  // gelu_backward's bits.
  util::Rng rng(19 + GetParam());
  for (const auto& [rows, d] : std::vector<std::array<int, 2>>{
           {1, 1}, {3, 19}, {33, 65}, {257, 3}, {64, 512}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << d);
    const Tensor x = randn({rows, d}, rng);
    const Tensor dy = randn({rows, d}, rng);
    const Tensor want_y = ref::gelu(x);
    const Tensor want_dx = ref::gelu_backward(x, dy);
    const GeluGrads fast = gelu_forward_backward(x, dy);
    expect_bits(fast.y, want_y, "gelu_forward_backward.y");
    expect_bits(fast.dx, want_dx, "gelu_forward_backward.dx");
    const GeluGrads naive = ref::gelu_forward_backward(x, dy);
    expect_bits(naive.y, want_y, "ref::gelu_forward_backward.y");
    expect_bits(naive.dx, want_dx, "ref::gelu_forward_backward.dx");
  }
}

TEST_P(OpsGoldenThreads, CrossEntropyBitIdenticalIncludingLossSum) {
  util::Rng rng(13 + GetParam());
  for (const int rows : {1, 5, 33, 64, 100}) {
    const int v = 37;
    SCOPED_TRACE(testing::Message() << rows << "x" << v);
    const Tensor logits = randn({rows, v}, rng);
    std::vector<int> targets(rows);
    for (int i = 0; i < rows; ++i) {
      targets[i] = static_cast<int>(rng.next_below(v));
    }
    const double scale = 1.0 / rows;
    Tensor fast_d, naive_d;
    const double fast_loss = cross_entropy(logits, targets, scale, &fast_d);
    const double naive_loss =
        ref::cross_entropy(logits, targets, scale, &naive_d);
    // The loss is a double accumulated in row order on both sides.
    EXPECT_EQ(fast_loss, naive_loss);
    expect_bits(fast_d, naive_d, "cross_entropy.dlogits");
  }
}

// 1 = inline, 2 = smallest real fan-out, 0 = auto (hardware concurrency).
// Bit-identity must hold for every choice because panels are fixed-size
// and never derived from the worker count.
INSTANTIATE_TEST_SUITE_P(Threads, OpsGoldenThreads, testing::Values(1, 2, 0));

// Each GEMM tile, called directly rather than through the process-wide
// dispatch, so the SSE2 fallback stays pinned on hosts that pick AVX.
struct TileCase {
  const char* name;
  detail::GemmTile tile;
  int threads;
};

void PrintTo(const TileCase& c, std::ostream* os) {
  *os << c.name << " threads " << c.threads;
}

class OpsGoldenTile : public testing::TestWithParam<TileCase> {
 protected:
  void SetUp() override {
    if (GetParam().tile == detail::gemm_tile_avx && !detail::cpu_has_avx()) {
      GTEST_SKIP() << "CPU lacks AVX";
    }
    set_ops_threads(GetParam().threads);
  }
  void TearDown() override { set_ops_threads(1); }
};

TEST_P(OpsGoldenTile, GemmFamilyBitIdenticalToReference) {
  const detail::GemmTile tile = GetParam().tile;
  util::Rng rng(23 + GetParam().threads);
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor a = randn({m, k}, rng);
    const Tensor b = randn({k, n}, rng);
    const Tensor dc = randn({m, n}, rng);
    expect_bits(detail::matmul(tile, a, b), ref::matmul(a, b), "matmul");
    expect_bits(detail::matmul_grad_a(tile, dc, b), ref::matmul_grad_a(dc, b),
                "matmul_grad_a");
    expect_bits(detail::matmul_grad_b(tile, a, dc), ref::matmul_grad_b(a, dc),
                "matmul_grad_b");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, OpsGoldenTile,
    testing::Values(TileCase{"sse2", detail::gemm_tile_sse2, 1},
                    TileCase{"sse2", detail::gemm_tile_sse2, 2},
                    TileCase{"sse2", detail::gemm_tile_sse2, 0},
                    TileCase{"avx", detail::gemm_tile_avx, 1},
                    TileCase{"avx", detail::gemm_tile_avx, 2},
                    TileCase{"avx", detail::gemm_tile_avx, 0}),
    [](const testing::TestParamInfo<TileCase>& info) {
      return std::string(info.param.name) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(OpsGolden, KernelIsaNamesTheDispatchedTile) {
  const std::string isa = kernel_isa();
  EXPECT_EQ(isa, detail::cpu_has_avx() ? "avx" : "sse2");
}

TEST(OpsGolden, DisablingFastOpsRoutesThroughReference) {
  util::Rng rng(3);
  const Tensor a = randn({9, 10}, rng);
  const Tensor b = randn({10, 11}, rng);
  set_fast_ops(false);
  const Tensor off = matmul(a, b);
  set_fast_ops(true);
  expect_bits(off, ref::matmul(a, b), "matmul with fast ops off");
  EXPECT_TRUE(fast_ops_enabled());
}

TEST(OpsGolden, EmbeddingOpsAreSingleImplementation) {
  // embedding_lookup/backward have one implementation (gather/scatter has
  // no blocking to diverge); this pins their semantics: lookup copies rows,
  // backward accumulates in ascending id-slot order.
  util::Rng rng(5);
  const Tensor table = randn({6, 4}, rng);
  const std::vector<int> ids = {3, 0, 5, 3};
  const Tensor out = embedding_lookup(table, ids);
  ASSERT_EQ(out.dim(0), 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(out.at(i * 4 + j), table.at(ids[i] * 4 + j));
    }
  }
  const Tensor dy = randn({4, 4}, rng);
  Tensor dtable({6, 4});
  embedding_backward(ids, dy, &dtable);
  // Row 3 was hit twice: the sum must be the two contributions in order.
  for (int j = 0; j < 4; ++j) {
    float want = 0;
    want += dy.at(0 * 4 + j);
    want += dy.at(3 * 4 + j);
    EXPECT_EQ(dtable.at(3 * 4 + j), want);
  }
}

}  // namespace
}  // namespace autopipe::model
