#ifndef VDRIFT_TENSOR_GEMM_H_
#define VDRIFT_TENSOR_GEMM_H_

// Private to src/tensor and its tests: the one GEMM kernel behind Matmul,
// MatmulTransposedA and MatmulTransposedB, and its implicit-GEMM twins
// behind Conv2dForward and Conv2dBackward, exposed per vector width so
// each instance can be checked against the naive loop.
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

/// One sample's output gradient dY [m, plane] as the weight-gradient
/// kernel reads it: transposed, so row p holds dY[0, p] .. dY[m - 1, p],
/// then zeros up to m_pad, m rounded up to the vector width.
struct ConvGradRows {
  std::vector<float> values;  // [plane, m_pad]
  int64_t m_pad = 0;
};

/// Transposes one sample's dY for a kernel of `vector_width`.
ConvGradRows MakeConvGradRows(const float* grad, int64_t m, int64_t plane,
                              int vector_width);

/// dW[o, kk] = sum over output pixels p = (oy, ox), in ascending p from
/// +0, of dY[o, p] * B(kk, p), where B is the sample's im2col matrix read
/// in place from `input` as Conv2dForward reads it: a padding cell adds
/// dY * 0. A tile holds four taps against up to three vectors of output
/// channels, or eight taps against one.
struct ConvWeightGradOperands {
  const ConvInput* input;
  const ConvGradRows* grad;
  float* dw;  // [m, k] row-major; written
  int64_t m;
  int64_t k;
  int64_t out_h;
  int64_t out_w;
};

/// Computes the dW columns of taps [tap_begin, tap_end) with 4-float
/// vectors. Precondition: `g.grad` was made with vector_width 4.
void ConvWeightGradRowsWidth4(const ConvWeightGradOperands& g,
                              int64_t tap_begin, int64_t tap_end);

/// The same at 8-float (AVX2) vectors. Preconditions: CpuHasAvx2(), and
/// `g.grad` was made with vector_width 8.
void ConvWeightGradRowsWidth8(const ConvWeightGradOperands& g,
                              int64_t tap_begin, int64_t tap_end);

/// One sample's output gradient dY [m, out_h, out_w] as the
/// input-gradient kernel reads it: each row behind `left` zeros and
/// followed by zeros up to `row` floats, so that every vector load the
/// kernel starts at a tap's output column stays inside.
struct ConvGradPlanes {
  std::vector<float> values;  // [m, out_h, row]
  int64_t left = 0;
  int64_t row = 0;
};

/// Pads one sample's dY for a `width`-wide input and a kernel of
/// `vector_width`.
ConvGradPlanes MakeConvGradPlanes(const float* grad, int64_t m, int out_h,
                                  int out_w, int width, int kernel, int stride,
                                  int pad, int vector_width);

/// dX[c, iy, ix] = +0 plus, for each tap kk = (c, ky, kx) in ascending
/// order whose output pixel p = (oy, ox) reads input pixel (iy, ix), the
/// sum t over o, in ascending o from +0, of weight[o, kk] * dY[o, p]. A
/// tap whose output pixel would lie outside dY adds nothing. No
/// [k, plane] matrix of t is built: a register tile of dX takes each t
/// as it is summed.
struct ConvInputGradOperands {
  const float* weight;  // [m, k] row-major
  const ConvGradPlanes* grad;
  float* dx;  // [channels, height, width]; written
  int64_t m;
  int64_t k;  // channels * kernel * kernel
  int kernel;
  int stride;
  int pad;
  int height;
  int width;
  int out_h;
  int out_w;
};

/// Computes the dX planes of input channels [c_begin, c_end) with 4-float
/// vectors. Precondition: `g.grad` was made with vector_width 4 or more.
void ConvInputGradChannelsWidth4(const ConvInputGradOperands& g,
                                 int64_t c_begin, int64_t c_end);

/// The same at 8-float (AVX2) vectors. Preconditions: CpuHasAvx2(), and
/// `g.grad` was made with vector_width 8.
void ConvInputGradChannelsWidth8(const ConvInputGradOperands& g,
                                 int64_t c_begin, int64_t c_end);

}  // namespace vdrift::tensor::internal

#endif  // VDRIFT_TENSOR_GEMM_H_
