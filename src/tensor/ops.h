#ifndef VDRIFT_TENSOR_OPS_H_
#define VDRIFT_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace vdrift::tensor {

/// c = a + b (elementwise; shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (elementwise; shapes must match).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b (elementwise; shapes must match).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a * s (scalar).
Tensor Scale(const Tensor& a, float s);
/// a += b in place (shapes must match).
void AddInPlace(Tensor* a, const Tensor& b);
/// a += b * s in place (axpy; shapes must match).
void AxpyInPlace(Tensor* a, const Tensor& b, float s);

/// Matrix product of a [m, k] tensor with a [k, n] tensor -> [m, n].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Matrix product with B transposed: a [m, k] x b [n, k] -> [m, n].
Tensor MatmulTransposedB(const Tensor& a, const Tensor& b);

/// Matrix product with A transposed: a [k, m] x b [k, n] -> [m, n].
Tensor MatmulTransposedA(const Tensor& a, const Tensor& b);

/// 2-D convolution of an [N, C, H, W] batch with `weight`
/// [out_c, C * kernel * kernel] (columns ordered (c, ky, kx)), `bias`
/// [out_c], zero padding `pad` and stride `stride` -> [N, out_c, out_h,
/// out_w]. Each output is its taps' products summed in ascending
/// (c, ky, kx) from +0, plus the bias: the naive loop's exact bits, which
/// are also those of im2col, Matmul and a bias add. No im2col matrix is
/// built (implicit GEMM). The kernel must fit the padded input.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, int kernel, int stride, int pad);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Sum of all elements.
double Sum(const Tensor& a);

/// Mean of all elements (0 for empty tensors).
double Mean(const Tensor& a);

/// im2col for 2-D convolution. Input: `channels` row-major [height, width]
/// planes at `input` (one sample of an NCHW batch, read in place). Output:
/// a [C*kh*kw, out_h*out_w] matrix whose columns are the receptive fields.
/// Out-of-bounds (padding) cells are zero. Used by the convolution
/// backward pass.
Tensor Im2Col(const float* input, int channels, int height, int width,
              int kh, int kw, int stride, int pad, int out_h, int out_w);

/// Inverse of Im2Col: scatters (accumulates) columns back into a [C, H, W]
/// tensor. Used by the convolution backward pass.
Tensor Col2Im(const Tensor& cols, int channels, int height, int width, int kh,
              int kw, int stride, int pad, int out_h, int out_w);

/// Output spatial extent of a convolution along one axis.
inline int ConvOutDim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace vdrift::tensor

#endif  // VDRIFT_TENSOR_OPS_H_
