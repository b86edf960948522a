#ifndef VDRIFT_TENSOR_GEMM_H_
#define VDRIFT_TENSOR_GEMM_H_

// Private to src/tensor and its tests: the one GEMM kernel behind Matmul,
// MatmulTransposedA and MatmulTransposedB, and its implicit-GEMM twin
// behind Conv2dForward, exposed per vector width so each instance can be
// checked against the naive loop.
//
// Every output element sums its k products in ascending k, starting from
// +0, with one rounded multiply and then one rounded add per term (never
// fused). Results are therefore bit-identical to the naive i-j-k loop for
// every tile size, vector width and row range.

#include <cstdint>
#include <vector>

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

/// One [C, H, W] sample as the convolution kernel reads it: zero-padded
/// and split by stride phase. Plane (py, px) of channel c holds padded
/// pixel (py + stride * i, px + stride * j) at i * row + j, so output
/// pixel (oy, ox) reads tap kk = (c * kernel + ky) * kernel + kx at
/// pixels[tap[kk] + oy * row + ox], and a run of output pixels along x
/// reads a run of contiguous floats for every tap. `pixels` ends in
/// vector_width - 1 floats of zero slack, so a vector load that starts at
/// any output pixel stays inside it.
struct ConvInput {
  std::vector<float> pixels;
  std::vector<int64_t> tap;
  int64_t row = 0;
};

/// Copies one sample into a ConvInput for a kernel of `vector_width`.
ConvInput MakeConvInput(const float* sample, int channels, int height,
                        int width, int kernel, int stride, int pad,
                        int vector_width);

/// out[o, p] = (sum over kk of weight[o, kk] * B(kk, p)) + bias[o] for
/// output pixels p of an out_h x out_w image, where B is the sample's
/// im2col matrix, read in place from `input` instead of built. The sum
/// is the GEMM's: ascending kk from +0, never fused; the bias is added
/// once at the end.
struct ConvOperands {
  const ConvInput* input;
  const float* weight;  // [m, k] row-major
  const float* bias;    // [m]
  float* out;           // [m, out_h * out_w] row-major
  int64_t m;
  int64_t k;
  int64_t out_h;
  int64_t out_w;
};

/// Computes output channels [row_begin, row_end) with 4-float vectors.
/// Precondition: `g.input` was made with vector_width 4 or more.
void ConvRowsWidth4(const ConvOperands& g, int64_t row_begin,
                    int64_t row_end);

/// The same at 8-float (AVX2) vectors. Preconditions: CpuHasAvx2(), and
/// `g.input` was made with vector_width 8.
void ConvRowsWidth8(const ConvOperands& g, int64_t row_begin,
                    int64_t row_end);

}  // namespace vdrift::tensor::internal

#endif  // VDRIFT_TENSOR_GEMM_H_
