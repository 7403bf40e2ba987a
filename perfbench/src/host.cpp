#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

namespace perfbench {

namespace {

constexpr int kChains = 12;  ///< independent FMA chains hide FMA latency
constexpr long kIters = 2'000'000;

double seconds_of(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

#ifdef PERFBENCH_X86
__attribute__((target("avx512f"))) float fma_loop_avx512(long iters,
                                                         float seed) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(seed + c);
  const __m512 a = _mm512_set1_ps(0.999999f);
  const __m512 b = _mm512_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], a, b);
  }
  __m512 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, sum);
  float total = 0;
  for (const float x : lanes) total += x;
  return total;
}

__attribute__((target("avx2,fma"))) float fma_loop_avx2(long iters,
                                                        float seed) {
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(seed + c);
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float total = 0;
  for (const float x : lanes) total += x;
  return total;
}
#endif

/// Portable fallback: scalar multiply-add chains.
float fma_loop_scalar(long iters, float seed) {
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = seed + c;
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999999f + 1e-7f;
  }
  float total = 0;
  for (const float x : acc) total += x;
  return total;
}

}  // namespace

std::string detected_isa() {
#ifdef PERFBENCH_X86
  __builtin_cpu_init();
  std::string isa;
  const auto add = [&](bool has, const char* name) {
    if (!has) return;
    if (!isa.empty()) isa += "+";
    isa += name;
  };
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  return isa.empty() ? "x86-64" : isa;
#else
  return "generic";
#endif
}

double peak_gflops() {
  int lanes = 1;
  float (*loop)(long, float) = fma_loop_scalar;
#ifdef PERFBENCH_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    lanes = 16;
    loop = fma_loop_avx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    lanes = 8;
    loop = fma_loop_avx2;
  }
#endif
  const long iters = lanes == 1 ? kIters / 4 : kIters;
  double best = 0;
  volatile float sink = 0;
  for (int round = 0; round < 7; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + loop(iters, 1.0f + round);
    const double s = seconds_of(t0);
    const double flops = 2.0 * lanes * kChains * static_cast<double>(iters);
    best = std::max(best, flops / s / 1e9);
  }
  return best;
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int field = 0; field < 8; ++field) {
    unsigned long long ticks = 0;
    if (!(in >> ticks)) return CpuTimes{};
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

int nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
