#ifndef VDRIFT_TENSOR_GEMM_H_
#define VDRIFT_TENSOR_GEMM_H_

// Private to src/tensor and its tests: the one GEMM kernel behind Matmul,
// MatmulTransposedA and MatmulTransposedB, exposed per vector width so
// each instance can be checked against the naive loop.
//
// Every output element sums its k products in ascending k, starting from
// +0, with one rounded multiply and then one rounded add per term (never
// fused). Results are therefore bit-identical to the naive i-j-k loop for
// every tile size, vector width and row range.

#include <cstdint>

namespace vdrift::tensor::internal {

/// C[m, n] = A[m, k] * B[k, n] over strided operands:
/// A(i, kk) = a[i * a_row + kk * a_k], B(kk, j) = b[kk * b_k + j * b_col],
/// and C is row-major with row stride n. The kernel writes (does not
/// accumulate into) every element of the rows it computes.
struct GemmOperands {
  const float* a;
  int64_t a_row;
  int64_t a_k;
  const float* b;
  int64_t b_k;
  int64_t b_col;
  float* c;
  int64_t m;
  int64_t k;
  int64_t n;
};

/// Rows of C per register tile; ParallelFor grains are multiples of it.
inline constexpr int64_t kGemmTileRows = 4;

/// Computes rows [row_begin, row_end) of C with 4-float (SSE2) vectors.
void GemmRowsWidth4(const GemmOperands& g, int64_t row_begin,
                    int64_t row_end);

/// The same at 8-float (AVX2) vectors. Precondition: CpuHasAvx2().
void GemmRowsWidth8(const GemmOperands& g, int64_t row_begin,
                    int64_t row_end);

/// True when the CPU (and OS) support AVX2; GEMMs then run at width 8.
bool CpuHasAvx2();

}  // namespace vdrift::tensor::internal

#endif  // VDRIFT_TENSOR_GEMM_H_
