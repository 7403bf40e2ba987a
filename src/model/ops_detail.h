// Internal building blocks behind the fast GEMMs (model::matmul /
// matmul_grad_a / matmul_grad_b) and the GELU family. Not part of the
// public API: the tests include this header to drive each register tile
// and each GELU width directly, so the SSE2 fallbacks stay covered on
// hosts where the process-wide dispatch always picks AVX.
#pragma once

#include <cstddef>

#include "model/ops.h"
#include "model/tensor.h"

namespace autopipe::model::detail {

/// The left GEMM operand read through strides: element (i, l) lives at
/// p[i * row_stride + l * col_stride]. matmul passes A as is; matmul_grad_b
/// passes A^T by swapping the strides, without materialising it.
struct StridedA {
  const float* p;
  std::ptrdiff_t row_stride;
  std::ptrdiff_t col_stride;
};

/// Computes C[i, j] = sum over l = 0..k-1 of A(i, l) * B[l, j] for rows
/// [i0, i1) and all n columns. B is row-major [k, n]; C is row-major with n
/// columns and every element of those rows is stored. Each output element
/// has one accumulator starting at 0, adds in ascending l, and does a
/// rounded multiply then a rounded add (never FMA) -- the ref:: order.
using GemmTile = void (*)(StridedA a, const float* b, int k, int n, float* c,
                          int i0, int i1);

/// 4x8 tile of two 128-bit vectors per row. Runs on every x86-64 CPU (and
/// falls back to scalar code elsewhere).
void gemm_tile_sse2(StridedA a, const float* b, int k, int n, float* c,
                    int i0, int i1);
/// 4x16 tile of two 256-bit vectors per row. Requires cpu_has_avx().
void gemm_tile_avx(StridedA a, const float* b, int k, int n, float* c,
                   int i0, int i1);
/// True when this CPU can run gemm_tile_avx.
bool cpu_has_avx();

/// The three GEMMs on an explicit tile, panel-parallel over the shared ops
/// pool. The public entry points call these with the tile picked once per
/// process; results are bit-identical to ref:: for either tile.
Tensor matmul(GemmTile tile, const Tensor& a, const Tensor& b);
Tensor matmul_grad_a(GemmTile tile, const Tensor& dc, const Tensor& b);
Tensor matmul_grad_b(GemmTile tile, const Tensor& a, const Tensor& dc);

/// tanh(x) as a fixed rational function of x clamped to +-7.9053111 (odd
/// degree 13 over even degree 6), from IEEE + - * / alone, so its bits do
/// not depend on the libm. Within 5e-7 of tanh, |result| <= 1, odd bit
/// for bit, NaN in gives NaN out. Both ref::gelu* and every GELU width
/// evaluate it.
float rational_tanh(float x);

/// One GELU call's operands: y = gelu(x) is written when y is non-null,
/// dx = dy * gelu'(x) when dx is non-null (dy is read only then).
struct GeluIo {
  const float* x;
  const float* dy;
  float* y;
  float* dx;
};

/// GELU over elements [i0, i1) of io, one element per vector lane plus a
/// scalar tail. Every lane runs ref::'s scalar expressions, rounding as
/// they round, so each width gives ref::'s bits.
using GeluSpan = void (*)(const GeluIo& io, std::size_t i0, std::size_t i1);

/// 4 lanes of 128-bit SSE2 (scalar off x86).
void gelu_span_sse2(const GeluIo& io, std::size_t i0, std::size_t i1);
/// 8 lanes of 256-bit AVX. Requires cpu_has_avx().
void gelu_span_avx(const GeluIo& io, std::size_t i0, std::size_t i1);

/// The GELU family on an explicit width, chunk-parallel over the shared
/// ops pool. The public entry points call these with the width picked
/// once per process, by the check that picks the GEMM tile.
Tensor gelu(GeluSpan span, const Tensor& x);
Tensor gelu_backward(GeluSpan span, const Tensor& x, const Tensor& dy);
GeluGrads gelu_forward_backward(GeluSpan span, const Tensor& x,
                                const Tensor& dy);

}  // namespace autopipe::model::detail
