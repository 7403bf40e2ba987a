// Internal GEMM building blocks behind model::matmul / matmul_grad_a /
// matmul_grad_b. Not part of the public API: the tests include this header
// to drive each register tile directly, so the SSE2 fallback stays covered
// on hosts where the process-wide dispatch always picks AVX.
#pragma once

#include <cstddef>

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

}  // namespace autopipe::model::detail
