#include "model/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "model/ops_detail.h"
#include "util/thread_pool.h"

// The tiles are x86 SIMD; the AVX one is compiled for AVX by attribute and
// only ever called after a CPU check, so the rest of the library keeps the
// baseline ISA. Elsewhere the scalar column loop is the whole kernel.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define AUTOPIPE_X86 1
#define AUTOPIPE_AVX __attribute__((target("avx")))
#include <immintrin.h>
#endif

// The tiles' row and vector loops must unroll completely so each
// accumulator gets its own register; GCC at -O2 keeps them in memory
// otherwise.
#if defined(__clang__)
#define AUTOPIPE_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define AUTOPIPE_UNROLL _Pragma("GCC unroll 16")
#else
#define AUTOPIPE_UNROLL
#endif

// The GELU lane bodies are templates without a target attribute; they must
// inline into their target("avx") caller to run as AVX code there.
#if defined(__GNUC__) || defined(__clang__)
#define AUTOPIPE_INLINE __attribute__((always_inline)) inline
#else
#define AUTOPIPE_INLINE inline
#endif

namespace autopipe::model {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// ------------------------------------------------------- hot-path config
//
// The fast kernels share one process-wide pool, created lazily so programs
// that never touch the tensor hot path pay nothing. threads == 1 keeps the
// pool null and every kernel inline -- the bitwise result is the same
// either way, because panel boundaries never change any per-element
// summation order.

std::atomic<bool> g_fast{true};
std::mutex g_pool_mu;
std::atomic<util::ThreadPool*> g_pool{nullptr};
std::atomic<int> g_resolved{0};  // 0 = pool not yet resolved
int g_requested = 0;             // guarded by g_pool_mu

util::ThreadPool* ops_pool() {
  if (g_resolved.load(std::memory_order_acquire) != 0) {
    return g_pool.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_resolved.load(std::memory_order_acquire) == 0) {
    const int n = util::resolve_threads(g_requested);
    if (n > 1) {
      g_pool.store(new util::ThreadPool(n), std::memory_order_release);
    }
    g_resolved.store(n, std::memory_order_release);
  }
  return g_pool.load(std::memory_order_acquire);
}

/// Rows per parallel task. Fixed -- never derived from the worker count --
/// so the panel grid (and thus which task owns which output row) is
/// identical for every thread count.
constexpr int kPanelRows = 32;
/// Below this many flops a kernel runs inline: pool handoff costs more
/// than the loop (attention's per-head [s,s] matmuls live here).
constexpr double kMinParallelFlops = 1 << 18;

/// Runs fn(r0, r1) over [0, rows) split into kPanelRows panels, fanned out
/// over the shared pool when the work is worth it. fn must touch only rows
/// in its panel.
void panel_for(int rows, double flops,
               const std::function<void(int, int)>& fn) {
  util::ThreadPool* pool = ops_pool();
  const int panels = (rows + kPanelRows - 1) / kPanelRows;
  if (pool == nullptr || panels <= 1 || flops < kMinParallelFlops) {
    fn(0, rows);
    return;
  }
  util::parallel_for(pool, panels, [&](int p) {
    const int r0 = p * kPanelRows;
    fn(r0, std::min(rows, r0 + kPanelRows));
  });
}

// ------------------------------------------------------------------ GELU
//
// GELU's tanh is a fixed rational function: the odd degree-13 over even
// degree-6 minimax form (Eigen's float tanh) of the input clamped to
// +-kTanhClamp, where it reaches +-1. It is built from IEEE + - * / and
// compare-selects alone, and one templated body evaluates it with GELU's
// expressions around it on a lane group of W::kLanes independent
// elements: a float for ref:: and the vector tails, four floats on SSE2,
// eight on AVX. Each lane op rounds exactly as the scalar op does (never
// FMA: the library builds with -ffp-contract=off), so every width gives
// every element ref::'s bits -- on any libm.
//
// Lane groups pass by reference: a 256-bit vector passed by value through
// a function not compiled for AVX changes the ABI, and the bodies only
// ever run inlined into their target("avx") caller.

/// Lane-group widths: V holds kLanes independent elements.
struct Lanes1 {
  using V = float;
  static constexpr int kLanes = 1;
};
#if defined(AUTOPIPE_X86)
struct Lanes4 {  // SSE2
  using V = float __attribute__((vector_size(16)));
  static constexpr int kLanes = 4;
};
struct Lanes8 {  // AVX
  using V = float __attribute__((vector_size(32)));
  static constexpr int kLanes = 8;
};
#endif

constexpr float kTanhClamp = 7.90531110763549805f;

/// x <- tanh(x) in every lane. NaN fails both clamp compares and stays NaN.
template <class V>
AUTOPIPE_INLINE void rational_tanh_lanes(V& x) {
  // Operand order as maxps(-c, x), then minps(c, x).
  x = x < -kTanhClamp ? -kTanhClamp : x;
  x = x > kTanhClamp ? kTanhClamp : x;
  const V x2 = x * x;
  V p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = x * p;
  V q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  x = p / q;
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

/// GELU on the W::kLanes elements at offset i of io: y = gelu(x) when kY,
/// dx = dy * gelu'(x) when kDx. Both come from one tanh of
/// u = c * (x + a x^3), so gelu_forward_backward runs exactly the
/// expressions gelu and gelu_backward run.
template <class W, bool kY, bool kDx>
AUTOPIPE_INLINE void gelu_lanes(const detail::GeluIo& io, std::size_t i) {
  using V = typename W::V;
  V v;
  std::memcpy(&v, io.x + i, sizeof v);
  V t = kGeluC * (v + kGeluA * v * v * v);
  rational_tanh_lanes(t);
  if constexpr (kY) {
    const V y = 0.5f * v * (1.0f + t);
    std::memcpy(io.y + i, &y, sizeof y);
  }
  if constexpr (kDx) {
    V dy;
    std::memcpy(&dy, io.dy + i, sizeof dy);
    const V du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    const V dx = dy * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du);
    std::memcpy(io.dx + i, &dx, sizeof dx);
  }
}

/// Elements [i0, i1) of io: whole W lane groups, then a scalar tail.
template <class W, bool kY, bool kDx>
AUTOPIPE_INLINE void gelu_run(const detail::GeluIo& io, std::size_t i0,
                              std::size_t i1) {
  std::size_t i = i0;
  for (; i + W::kLanes <= i1; i += W::kLanes) gelu_lanes<W, kY, kDx>(io, i);
  for (; i < i1; ++i) gelu_lanes<Lanes1, kY, kDx>(io, i);
}

template <class W>
AUTOPIPE_INLINE void gelu_span(const detail::GeluIo& io, std::size_t i0,
                               std::size_t i1) {
  if (io.y != nullptr && io.dx != nullptr) {
    gelu_run<W, true, true>(io, i0, i1);
  } else if (io.y != nullptr) {
    gelu_run<W, true, false>(io, i0, i1);
  } else {
    gelu_run<W, false, true>(io, i0, i1);
  }
}

void layernorm_row(const float* row, const float* gamma, const float* beta,
                   int d, float* norm_out, float* y_out, float* inv_out) {
  constexpr float kEps = 1e-5f;
  float mean = 0;
  for (int j = 0; j < d; ++j) mean += row[j];
  mean /= d;
  float var = 0;
  for (int j = 0; j < d; ++j) var += (row[j] - mean) * (row[j] - mean);
  var /= d;
  const float inv = 1.0f / std::sqrt(var + kEps);
  for (int j = 0; j < d; ++j) {
    const float norm = (row[j] - mean) * inv;
    if (norm_out) norm_out[j] = norm;
    y_out[j] = norm * gamma[j] + beta[j];
  }
  if (inv_out) *inv_out = inv;
}

void softmax_row(const float* row, int n, float* out) {
  float mx = row[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float denom = 0;
  for (int j = 0; j < n; ++j) {
    const float e = std::exp(row[j] - mx);
    out[j] = e;
    denom += e;
  }
  for (int j = 0; j < n; ++j) out[j] /= denom;
}

/// Per-row cross entropy: returns the row's scaled loss term and fills
/// dlogits (when non-null) -- the shared body of ref:: and the fast path.
double cross_entropy_row(const float* row, int v, int target, double scale,
                         float* dlogits_row) {
  float mx = row[0];
  for (int j = 1; j < v; ++j) mx = std::max(mx, row[j]);
  double denom = 0;
  for (int j = 0; j < v; ++j) {
    denom += std::exp(static_cast<double>(row[j]) - mx);
  }
  const double log_denom = std::log(denom) + mx;
  if (dlogits_row) {
    for (int j = 0; j < v; ++j) {
      const double p = std::exp(static_cast<double>(row[j]) - log_denom);
      dlogits_row[j] =
          static_cast<float>((p - (j == target ? 1.0 : 0.0)) * scale);
    }
  }
  return (log_denom - row[target]) * scale;
}

void check_matmul(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
          "matmul: shape mismatch");
}

void check_grad_a(const Tensor& dc, const Tensor& b) {
  require(dc.rank() == 2 && b.rank() == 2 && dc.dim(1) == b.dim(1),
          "matmul_grad_a: shape mismatch");
}

void check_grad_b(const Tensor& a, const Tensor& dc) {
  require(a.rank() == 2 && dc.rank() == 2 && a.dim(0) == dc.dim(0),
          "matmul_grad_b: shape mismatch");
}

void check_cross_entropy(const Tensor& logits, std::span<const int> targets) {
  require(logits.rank() == 2 &&
              logits.dim(0) == static_cast<int>(targets.size()),
          "cross_entropy: shape");
  const int v = logits.dim(1);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    require(targets[i] >= 0 && targets[i] < v, "cross_entropy: target range");
  }
}

}  // namespace

void set_ops_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested = threads;
  util::ThreadPool* old = g_pool.exchange(nullptr, std::memory_order_acq_rel);
  g_resolved.store(0, std::memory_order_release);
  delete old;  // joins idle workers; callers must be quiescent
}

int ops_threads() {
  const int resolved = g_resolved.load(std::memory_order_acquire);
  if (resolved != 0) return resolved;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return util::resolve_threads(g_requested);
}

void set_fast_ops(bool enabled) {
  g_fast.store(enabled, std::memory_order_release);
}

bool fast_ops_enabled() { return g_fast.load(std::memory_order_acquire); }

// ------------------------------------------------------ naive references
//
// Plain loops, ascending-index summation, one accumulator per output
// element. The fast kernels below must reproduce these bit for bit.

namespace ref {

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matmul(a, b);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const float av = pa[i * k + l];
      const float* brow = pb + l * n;
      float* crow = pc + i * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor matmul_grad_a(const Tensor& dc, const Tensor& b) {
  check_grad_a(dc, b);
  const int m = dc.dim(0), n = dc.dim(1), k = b.dim(0);
  Tensor da({m, k});
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      float acc = 0;
      const float* dcrow = dc.data() + i * n;
      const float* brow = b.data() + l * n;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      da.data()[i * k + l] = acc;
    }
  }
  return da;
}

Tensor matmul_grad_b(const Tensor& a, const Tensor& dc) {
  check_grad_b(a, dc);
  const int m = a.dim(0), k = a.dim(1), n = dc.dim(1);
  Tensor db({k, n});
  for (int i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    const float* dcrow = dc.data() + i * n;
    for (int l = 0; l < k; ++l) {
      const float av = arow[l];
      float* dbrow = db.data() + l * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
  return db;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  Tensor y = ref::matmul(x, w);
  require(bias.rank() == 1 && bias.dim(0) == y.dim(1), "linear: bias shape");
  const int n = y.dim(1);
  for (int i = 0; i < y.dim(0); ++i) {
    float* row = y.data() + i * n;
    for (int j = 0; j < n; ++j) row[j] += bias.at(j);
  }
  return y;
}

LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  LinearGrads g;
  g.dx = ref::matmul_grad_a(dy, w);
  g.dw = ref::matmul_grad_b(x, dy);
  g.dbias = Tensor({dy.dim(1)});
  for (int i = 0; i < dy.dim(0); ++i) {
    const float* row = dy.data() + i * dy.dim(1);
    for (int j = 0; j < dy.dim(1); ++j) g.dbias.data()[j] += row[j];
  }
  return g;
}

Tensor linear_backward_input(const Tensor& w, const Tensor& dy) {
  return ref::matmul_grad_a(dy, w);
}

LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy) {
  LinearWeightGrads g;
  g.dw = ref::matmul_grad_b(x, dy);
  g.dbias = Tensor({dy.dim(1)});
  for (int i = 0; i < dy.dim(0); ++i) {
    const float* row = dy.data() + i * dy.dim(1);
    for (int j = 0; j < dy.dim(1); ++j) g.dbias.data()[j] += row[j];
  }
  return g;
}

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  const detail::GeluIo io{x.data(), nullptr, y.data(), nullptr};
  for (std::size_t i = 0; i < x.numel(); ++i) {
    gelu_lanes<Lanes1, true, false>(io, i);
  }
  return y;
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  require(x.same_shape(dy), "gelu_backward: shape mismatch");
  Tensor dx(x.shape());
  const detail::GeluIo io{x.data(), dy.data(), nullptr, dx.data()};
  for (std::size_t i = 0; i < x.numel(); ++i) {
    gelu_lanes<Lanes1, false, true>(io, i);
  }
  return dx;
}

GeluGrads gelu_forward_backward(const Tensor& x, const Tensor& dy) {
  require(x.same_shape(dy), "gelu_forward_backward: shape mismatch");
  GeluGrads g{Tensor(x.shape()), Tensor(x.shape())};
  const detail::GeluIo io{x.data(), dy.data(), g.y.data(), g.dx.data()};
  for (std::size_t i = 0; i < x.numel(); ++i) {
    gelu_lanes<Lanes1, true, true>(io, i);
  }
  return g;
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache) {
  require(x.rank() == 2, "layernorm: rank");
  const int rows = x.dim(0), d = x.dim(1);
  require(gamma.dim(0) == d && beta.dim(0) == d, "layernorm: params");
  Tensor y({rows, d});
  if (cache) {
    cache->normalized = Tensor({rows, d});
    cache->inv_std.assign(rows, 0.0f);
  }
  for (int i = 0; i < rows; ++i) {
    layernorm_row(x.data() + i * d, gamma.data(), beta.data(), d,
                  cache ? cache->normalized.data() + i * d : nullptr,
                  y.data() + i * d, cache ? &cache->inv_std[i] : nullptr);
  }
  return y;
}

LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormGrads g;
  g.dx = Tensor({rows, d});
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    float sum_dn = 0, sum_dnn = 0;
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      sum_dn += dnorm;
      sum_dnn += dnorm * nr[j];
      g.dgamma.data()[j] += dyr[j] * nr[j];
      g.dbeta.data()[j] += dyr[j];
    }
    const float inv = cache.inv_std[i];
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      g.dx.data()[i * d + j] =
          inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
    }
  }
  return g;
}

Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  Tensor dx({rows, d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    float sum_dn = 0, sum_dnn = 0;
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      sum_dn += dnorm;
      sum_dnn += dnorm * nr[j];
    }
    const float inv = cache.inv_std[i];
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      dx.data()[i * d + j] = inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
    }
  }
  return dx;
}

LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormWeightGrads g;
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    for (int j = 0; j < d; ++j) {
      g.dgamma.data()[j] += dyr[j] * nr[j];
      g.dbeta.data()[j] += dyr[j];
    }
  }
  return g;
}

Tensor softmax_rows(const Tensor& scores) {
  require(scores.rank() == 2, "softmax: rank");
  const int rows = scores.dim(0), n = scores.dim(1);
  Tensor probs({rows, n});
  for (int i = 0; i < rows; ++i) {
    softmax_row(scores.data() + i * n, n, probs.data() + i * n);
  }
  return probs;
}

Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs) {
  require(probs.same_shape(dprobs), "softmax_backward: shape");
  const int rows = probs.dim(0), n = probs.dim(1);
  Tensor ds({rows, n});
  for (int i = 0; i < rows; ++i) {
    const float* p = probs.data() + i * n;
    const float* dp = dprobs.data() + i * n;
    float dot = 0;
    for (int j = 0; j < n; ++j) dot += p[j] * dp[j];
    for (int j = 0; j < n; ++j) ds.data()[i * n + j] = p[j] * (dp[j] - dot);
  }
  return ds;
}

double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits) {
  check_cross_entropy(logits, targets);
  const int rows = logits.dim(0), v = logits.dim(1);
  if (dlogits) *dlogits = Tensor({rows, v});
  double loss = 0;
  for (int i = 0; i < rows; ++i) {
    loss += cross_entropy_row(logits.data() + i * v, v, targets[i], scale,
                              dlogits ? dlogits->data() + i * v : nullptr);
  }
  return loss;
}

}  // namespace ref

// ----------------------------------------------------------- fast kernels
//
// Bit-for-bit contract with ref:: -- for every output element the same
// multiplications and additions happen in the same (ascending-index)
// order; the kernels only (a) re-tile the loop nest so each B strip is
// reused across a whole row panel, (b) put *independent* output elements
// in the lanes of a vector and in separate registers, so one element's
// FP-add latency overlaps the others' (the naive loop is a serial
// dependency chain per element), and (c) hand disjoint row panels to pool
// workers.

namespace detail {
namespace {

/// Columns [j0, n) of rows [i0, i1), one scalar chain per element: the
/// tiles' ragged column tail, and the whole kernel off x86.
void scalar_cols(StridedA a, const float* b, int k, int n, float* c, int i0,
                 int i1, int j0) {
  for (int i = i0; i < i1; ++i) {
    const float* ar = a.p + i * a.row_stride;
    float* cr = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = j0; j < n; ++j) {
      const float* ap = ar;
      const float* bp = b + j;
      float s = 0;
      for (int l = 0; l < k; ++l, ap += a.col_stride, bp += n) s += *ap * *bp;
      cr[j] = s;
    }
  }
}

#if defined(AUTOPIPE_X86)
// An R-row x NV-vector block of C held in registers across the whole
// reduction. Each lane is ONE output element's accumulator, and packed
// mul/add round per lane exactly like mulss/addss, so per lane this is the
// scalar chain 0 + a0*b0 + a1*b1 + ... -- bitwise ref::. The SSE2 and AVX
// blocks differ only in vector width.
template <int R, int NV>
inline void sse_block(StridedA a, const float* b, int k, int n, float* c,
                      int i, int j) {
  __m128 s[R][NV];
  AUTOPIPE_UNROLL
  for (int r = 0; r < R; ++r) {
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) s[r][v] = _mm_setzero_ps();
  }
  const float* ap = a.p + i * a.row_stride;
  const float* bp = b + j;
  for (int l = 0; l < k; ++l, ap += a.col_stride, bp += n) {
    __m128 bv[NV];
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) bv[v] = _mm_loadu_ps(bp + 4 * v);
    AUTOPIPE_UNROLL
    for (int r = 0; r < R; ++r) {
      const __m128 w = _mm_set1_ps(ap[r * a.row_stride]);
      AUTOPIPE_UNROLL
      for (int v = 0; v < NV; ++v) {
        s[r][v] = _mm_add_ps(s[r][v], _mm_mul_ps(w, bv[v]));
      }
    }
  }
  AUTOPIPE_UNROLL
  for (int r = 0; r < R; ++r) {
    float* cr = c + static_cast<std::ptrdiff_t>(i + r) * n + j;
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) _mm_storeu_ps(cr + 4 * v, s[r][v]);
  }
}

template <int NV>
void sse_strip(StridedA a, const float* b, int k, int n, float* c, int i0,
               int i1, int j) {
  int i = i0;
  for (; i + 4 <= i1; i += 4) sse_block<4, NV>(a, b, k, n, c, i, j);
  for (; i < i1; ++i) sse_block<1, NV>(a, b, k, n, c, i, j);
}

template <int R, int NV>
AUTOPIPE_AVX inline void avx_block(StridedA a, const float* b, int k, int n,
                                   float* c, int i, int j) {
  __m256 s[R][NV];
  AUTOPIPE_UNROLL
  for (int r = 0; r < R; ++r) {
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) s[r][v] = _mm256_setzero_ps();
  }
  const float* ap = a.p + i * a.row_stride;
  const float* bp = b + j;
  for (int l = 0; l < k; ++l, ap += a.col_stride, bp += n) {
    __m256 bv[NV];
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
    AUTOPIPE_UNROLL
    for (int r = 0; r < R; ++r) {
      const __m256 w = _mm256_set1_ps(ap[r * a.row_stride]);
      AUTOPIPE_UNROLL
      for (int v = 0; v < NV; ++v) {
        s[r][v] = _mm256_add_ps(s[r][v], _mm256_mul_ps(w, bv[v]));
      }
    }
  }
  AUTOPIPE_UNROLL
  for (int r = 0; r < R; ++r) {
    float* cr = c + static_cast<std::ptrdiff_t>(i + r) * n + j;
    AUTOPIPE_UNROLL
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(cr + 8 * v, s[r][v]);
  }
}

template <int NV>
AUTOPIPE_AVX void avx_strip(StridedA a, const float* b, int k, int n,
                            float* c, int i0, int i1, int j) {
  int i = i0;
  for (; i + 4 <= i1; i += 4) avx_block<4, NV>(a, b, k, n, c, i, j);
  for (; i < i1; ++i) avx_block<1, NV>(a, b, k, n, c, i, j);
}
#endif

/// bt[j, l] = b[l, j] for b of shape [k, n], in 4x4 register blocks: four
/// rows of b are read contiguously and land in four columns of bt.
void transpose(const float* b, int k, int n, float* bt) {
  int l = 0;
#if defined(AUTOPIPE_X86)
  for (; l + 4 <= k; l += 4) {
    const float* b0 = b + static_cast<std::ptrdiff_t>(l) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      __m128 r0 = _mm_loadu_ps(b0 + j);
      __m128 r1 = _mm_loadu_ps(b0 + n + j);
      __m128 r2 = _mm_loadu_ps(b0 + 2 * n + j);
      __m128 r3 = _mm_loadu_ps(b0 + 3 * n + j);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      float* t = bt + static_cast<std::ptrdiff_t>(j) * k + l;
      _mm_storeu_ps(t, r0);
      _mm_storeu_ps(t + k, r1);
      _mm_storeu_ps(t + 2 * k, r2);
      _mm_storeu_ps(t + 3 * k, r3);
    }
    for (; j < n; ++j) {
      for (int r = 0; r < 4; ++r) {
        bt[static_cast<std::ptrdiff_t>(j) * k + l + r] = b0[r * n + j];
      }
    }
  }
#endif
  for (; l < k; ++l) {
    for (int j = 0; j < n; ++j) {
      bt[static_cast<std::ptrdiff_t>(j) * k + l] =
          b[static_cast<std::ptrdiff_t>(l) * n + j];
    }
  }
}

/// Runs `tile` over the m output rows in fixed panels.
void run_tile(GemmTile tile, StridedA a, const float* b, int m, int k, int n,
              float* c) {
  panel_for(m, 2.0 * m * k * n,
            [&](int i0, int i1) { tile(a, b, k, n, c, i0, i1); });
}

}  // namespace

// Column strips outermost, row blocks inside: one panel's row blocks reuse
// a B strip (k x tile-width floats) while it is still in L1.
void gemm_tile_sse2(StridedA a, const float* b, int k, int n, float* c,
                    int i0, int i1) {
  int j = 0;
#if defined(AUTOPIPE_X86)
  for (; j + 8 <= n; j += 8) sse_strip<2>(a, b, k, n, c, i0, i1, j);
  if (j + 4 <= n) {
    sse_strip<1>(a, b, k, n, c, i0, i1, j);
    j += 4;
  }
#endif
  scalar_cols(a, b, k, n, c, i0, i1, j);
}

#if defined(AUTOPIPE_X86)
AUTOPIPE_AVX void gemm_tile_avx(StridedA a, const float* b, int k, int n,
                                float* c, int i0, int i1) {
  int j = 0;
  for (; j + 16 <= n; j += 16) avx_strip<2>(a, b, k, n, c, i0, i1, j);
  if (j + 8 <= n) {
    avx_strip<1>(a, b, k, n, c, i0, i1, j);
    j += 8;
  }
  scalar_cols(a, b, k, n, c, i0, i1, j);
}

bool cpu_has_avx() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx");
}
#else
void gemm_tile_avx(StridedA a, const float* b, int k, int n, float* c,
                   int i0, int i1) {
  gemm_tile_sse2(a, b, k, n, c, i0, i1);
}

bool cpu_has_avx() { return false; }
#endif

float rational_tanh(float x) {
  rational_tanh_lanes(x);
  return x;
}

#if defined(AUTOPIPE_X86)
void gelu_span_sse2(const GeluIo& io, std::size_t i0, std::size_t i1) {
  gelu_span<Lanes4>(io, i0, i1);
}

AUTOPIPE_AVX void gelu_span_avx(const GeluIo& io, std::size_t i0,
                                std::size_t i1) {
  gelu_span<Lanes8>(io, i0, i1);
}
#else
void gelu_span_sse2(const GeluIo& io, std::size_t i0, std::size_t i1) {
  gelu_span<Lanes1>(io, i0, i1);
}

void gelu_span_avx(const GeluIo& io, std::size_t i0, std::size_t i1) {
  gelu_span_sse2(io, i0, i1);
}
#endif

Tensor matmul(GemmTile tile, const Tensor& a, const Tensor& b) {
  check_matmul(a, b);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c = Tensor::uninitialized({m, n});  // the tile stores every element
  run_tile(tile, {a.data(), k, 1}, b.data(), m, k, n, c.data());
  return c;
}

Tensor matmul_grad_a(GemmTile tile, const Tensor& dc, const Tensor& b) {
  check_grad_a(dc, b);
  const int m = dc.dim(0), n = dc.dim(1), k = b.dim(0);
  // dA[i, l] = sum_j dC[i, j] * B[l, j] = (dC * B^T)[i, l]: with B^T packed
  // the reduction over j runs down the tile's rows, and the lanes span
  // independent outputs l -- ascending j per element, as in ref::.
  Tensor bt = Tensor::uninitialized({n, k});
  transpose(b.data(), k, n, bt.data());
  Tensor da = Tensor::uninitialized({m, k});
  run_tile(tile, {dc.data(), n, 1}, bt.data(), m, n, k, da.data());
  return da;
}

Tensor matmul_grad_b(GemmTile tile, const Tensor& a, const Tensor& dc) {
  check_grad_b(a, dc);
  const int m = a.dim(0), k = a.dim(1), n = dc.dim(1);
  // dB = A^T * dC: A^T(l, i) = a[i * k + l], read through swapped strides;
  // panels run over dB's k rows and each element sums in ascending i.
  Tensor db = Tensor::uninitialized({k, n});
  run_tile(tile, {a.data(), 1, k}, dc.data(), k, m, n, db.data());
  return db;
}

namespace {

/// Runs span over all n elements of io in fixed 256-element chunks, fanned
/// out over the shared pool like the row kernels.
void run_gelu(GeluSpan span, const GeluIo& io, std::size_t n) {
  constexpr std::size_t kChunk = 256;
  const int chunks = static_cast<int>((n + kChunk - 1) / kChunk);
  // About 30 flops per element: the rational tanh's 11 multiply-adds and
  // its divide, plus GELU's arithmetic around it.
  panel_for(chunks, 32.0 * static_cast<double>(n), [&](int c0, int c1) {
    span(io, c0 * kChunk, std::min(n, c1 * kChunk));
  });
}

}  // namespace

Tensor gelu(GeluSpan span, const Tensor& x) {
  Tensor y = Tensor::uninitialized(x.shape());
  run_gelu(span, {x.data(), nullptr, y.data(), nullptr}, x.numel());
  return y;
}

Tensor gelu_backward(GeluSpan span, const Tensor& x, const Tensor& dy) {
  require(x.same_shape(dy), "gelu_backward: shape mismatch");
  Tensor dx = Tensor::uninitialized(x.shape());
  run_gelu(span, {x.data(), dy.data(), nullptr, dx.data()}, x.numel());
  return dx;
}

GeluGrads gelu_forward_backward(GeluSpan span, const Tensor& x,
                                const Tensor& dy) {
  require(x.same_shape(dy), "gelu_forward_backward: shape mismatch");
  GeluGrads g{Tensor::uninitialized(x.shape()),
              Tensor::uninitialized(x.shape())};
  run_gelu(span, {x.data(), dy.data(), g.y.data(), g.dx.data()}, x.numel());
  return g;
}

}  // namespace detail

namespace {

detail::GemmTile active_tile() {
  static const detail::GemmTile tile = detail::cpu_has_avx()
                                           ? detail::gemm_tile_avx
                                           : detail::gemm_tile_sse2;
  return tile;
}

detail::GeluSpan active_gelu() {
  static const detail::GeluSpan span = detail::cpu_has_avx()
                                           ? detail::gelu_span_avx
                                           : detail::gelu_span_sse2;
  return span;
}

}  // namespace

const char* kernel_isa() {
#if defined(AUTOPIPE_X86)
  return active_tile() == detail::gemm_tile_avx ? "avx" : "sse2";
#else
  return "scalar";
#endif
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (!fast_ops_enabled()) return ref::matmul(a, b);
  return detail::matmul(active_tile(), a, b);
}

Tensor matmul_grad_a(const Tensor& dc, const Tensor& b) {
  if (!fast_ops_enabled()) return ref::matmul_grad_a(dc, b);
  return detail::matmul_grad_a(active_tile(), dc, b);
}

Tensor matmul_grad_b(const Tensor& a, const Tensor& dc) {
  if (!fast_ops_enabled()) return ref::matmul_grad_b(a, dc);
  return detail::matmul_grad_b(active_tile(), a, dc);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  if (!fast_ops_enabled()) return ref::linear(x, w, bias);
  Tensor y = matmul(x, w);
  require(bias.rank() == 1 && bias.dim(0) == y.dim(1), "linear: bias shape");
  const int rows = y.dim(0), n = y.dim(1);
  float* py = y.data();
  const float* pbias = bias.data();
  panel_for(rows, static_cast<double>(rows) * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float* row = py + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) row[j] += pbias[j];
    }
  });
  return y;
}

LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  LinearWeightGrads g = linear_backward_weight(x, dy);
  return {linear_backward_input(w, dy), std::move(g.dw), std::move(g.dbias)};
}

Tensor linear_backward_input(const Tensor& w, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::linear_backward_input(w, dy);
  return matmul_grad_a(dy, w);
}

LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::linear_backward_weight(x, dy);
  LinearWeightGrads g;
  g.dw = matmul_grad_b(x, dy);
  const int rows = dy.dim(0), n = dy.dim(1);
  g.dbias = Tensor({n});
  // Column sums stay serial: ascending-i accumulation per column is the
  // reference order, and n floats of output don't repay a fan-out.
  float* pdb = g.dbias.data();
  const float* pdy = dy.data();
  for (int i = 0; i < rows; ++i) {
    const float* row = pdy + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) pdb[j] += row[j];
  }
  return g;
}

Tensor gelu(const Tensor& x) {
  if (!fast_ops_enabled()) return ref::gelu(x);
  return detail::gelu(active_gelu(), x);
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::gelu_backward(x, dy);
  return detail::gelu_backward(active_gelu(), x, dy);
}

GeluGrads gelu_forward_backward(const Tensor& x, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::gelu_forward_backward(x, dy);
  return detail::gelu_forward_backward(active_gelu(), x, dy);
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache) {
  if (!fast_ops_enabled()) return ref::layernorm(x, gamma, beta, cache);
  require(x.rank() == 2, "layernorm: rank");
  const int rows = x.dim(0), d = x.dim(1);
  require(gamma.dim(0) == d && beta.dim(0) == d, "layernorm: params");
  Tensor y = Tensor::uninitialized({rows, d});
  if (cache) {
    cache->normalized = Tensor::uninitialized({rows, d});
    cache->inv_std.resize(rows);
  }
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pbt = beta.data();
  float* py = y.data();
  float* pn = cache ? cache->normalized.data() : nullptr;
  float* pinv = cache ? cache->inv_std.data() : nullptr;
  panel_for(rows, 8.0 * rows * d, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      layernorm_row(px + static_cast<std::size_t>(i) * d, pg, pbt, d,
                    pn ? pn + static_cast<std::size_t>(i) * d : nullptr,
                    py + static_cast<std::size_t>(i) * d,
                    pinv ? pinv + i : nullptr);
    }
  });
  return y;
}

LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy) {
  LayerNormWeightGrads g = layernorm_backward_weight(cache, dy);
  return {layernorm_backward_input(cache, gamma, dy), std::move(g.dgamma),
          std::move(g.dbeta)};
}

Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy) {
  if (!fast_ops_enabled()) {
    return ref::layernorm_backward_input(cache, gamma, dy);
  }
  const int rows = dy.dim(0), d = dy.dim(1);
  Tensor dx = Tensor::uninitialized({rows, d});
  const float* pdy = dy.data();
  const float* pn = cache.normalized.data();
  const float* pg = gamma.data();
  float* pdx = dx.data();
  // Parallel over rows: dx rows are independent, and each row's sums run in
  // the reference's j order.
  panel_for(rows, 10.0 * rows * d, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      const float* dyr = pdy + static_cast<std::size_t>(i) * d;
      const float* nr = pn + static_cast<std::size_t>(i) * d;
      float sum_dn = 0, sum_dnn = 0;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        sum_dn += dnorm;
        sum_dnn += dnorm * nr[j];
      }
      const float inv = cache.inv_std[i];
      float* dxr = pdx + static_cast<std::size_t>(i) * d;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        dxr[j] = inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
      }
    }
  });
  return dx;
}

LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::layernorm_backward_weight(cache, dy);
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormWeightGrads g;
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  // Serial: parameter gradients accumulate over rows in ascending i -- per
  // column exactly the reference's addition order.
  const float* pdy = dy.data();
  const float* pn = cache.normalized.data();
  float* pdg = g.dgamma.data();
  float* pdb = g.dbeta.data();
  for (int i = 0; i < rows; ++i) {
    const float* dyr = pdy + static_cast<std::size_t>(i) * d;
    const float* nr = pn + static_cast<std::size_t>(i) * d;
    for (int j = 0; j < d; ++j) {
      pdg[j] += dyr[j] * nr[j];
      pdb[j] += dyr[j];
    }
  }
  return g;
}

Tensor softmax_rows(const Tensor& scores) {
  if (!fast_ops_enabled()) return ref::softmax_rows(scores);
  require(scores.rank() == 2, "softmax: rank");
  const int rows = scores.dim(0), n = scores.dim(1);
  Tensor probs = Tensor::uninitialized({rows, n});
  const float* ps = scores.data();
  float* pp = probs.data();
  panel_for(rows, 16.0 * rows * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      softmax_row(ps + static_cast<std::size_t>(i) * n, n,
                  pp + static_cast<std::size_t>(i) * n);
    }
  });
  return probs;
}

Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs) {
  if (!fast_ops_enabled()) return ref::softmax_backward(probs, dprobs);
  require(probs.same_shape(dprobs), "softmax_backward: shape");
  const int rows = probs.dim(0), n = probs.dim(1);
  Tensor ds = Tensor::uninitialized({rows, n});
  const float* pp = probs.data();
  const float* pdp = dprobs.data();
  float* pds = ds.data();
  panel_for(rows, 4.0 * rows * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      const float* p = pp + static_cast<std::size_t>(i) * n;
      const float* dp = pdp + static_cast<std::size_t>(i) * n;
      float* out = pds + static_cast<std::size_t>(i) * n;
      float dot = 0;
      for (int j = 0; j < n; ++j) dot += p[j] * dp[j];
      for (int j = 0; j < n; ++j) out[j] = p[j] * (dp[j] - dot);
    }
  });
  return ds;
}

double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits) {
  if (!fast_ops_enabled()) {
    return ref::cross_entropy(logits, targets, scale, dlogits);
  }
  check_cross_entropy(logits, targets);
  const int rows = logits.dim(0), v = logits.dim(1);
  if (dlogits) *dlogits = Tensor::uninitialized({rows, v});
  // Row terms land in a scratch vector so the final reduction can add them
  // in the reference's ascending-row order regardless of panel timing.
  std::vector<double> row_loss(rows);
  const float* pl = logits.data();
  float* pd = dlogits ? dlogits->data() : nullptr;
  panel_for(rows, 20.0 * rows * v, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      row_loss[i] = cross_entropy_row(
          pl + static_cast<std::size_t>(i) * v, v, targets[i], scale,
          pd ? pd + static_cast<std::size_t>(i) * v : nullptr);
    }
  });
  double loss = 0;
  for (int i = 0; i < rows; ++i) loss += row_loss[i];
  return loss;
}

Tensor embedding_lookup(const Tensor& table, std::span<const int> ids) {
  require(table.rank() == 2, "embedding: table rank");
  const int h = table.dim(1);
  Tensor out = Tensor::uninitialized({static_cast<int>(ids.size()), h});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(ids[i] >= 0 && ids[i] < table.dim(0), "embedding: id range");
    const float* src = table.data() + static_cast<std::size_t>(ids[i]) * h;
    std::copy(src, src + h, out.data() + i * h);
  }
  return out;
}

void embedding_backward(std::span<const int> ids, const Tensor& dy,
                        Tensor* dtable) {
  require(dtable && dtable->rank() == 2 && dy.rank() == 2 &&
              dy.dim(1) == dtable->dim(1) &&
              dy.dim(0) == static_cast<int>(ids.size()),
          "embedding_backward: shape");
  const int h = dy.dim(1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    float* dst = dtable->data() + static_cast<std::size_t>(ids[i]) * h;
    const float* src = dy.data() + i * h;
    for (int j = 0; j < h; ++j) dst[j] += src[j];
  }
}

}  // namespace autopipe::model
