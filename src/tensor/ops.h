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
/// (c, ky, kx) from +0, plus the bias: the naive loop's exact bits. The
/// kernel reads each sample's receptive fields in place from a padded
/// copy (implicit GEMM), so no [C * kernel^2, out_h * out_w] patch matrix
/// is built. The kernel must fit the padded input.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, int kernel, int stride, int pad);

/// Gradients of Conv2dForward given dY = `grad_output` [N, out_c, out_h,
/// out_w]. Adds each sample's weight gradient into `weight_grad` [out_c,
/// C * kernel * kernel] in ascending sample order and returns the input
/// gradient [N, C, H, W]; the bias gradient (dY's row sums) is the
/// caller's. Sample s's weight gradient at (o, (c, ky, kx)) sums dY[s, o,
/// p] times the padded input under tap (c, ky, kx) at output pixel p, in
/// ascending p from +0; a padding cell adds dY * 0. Input pixel (c, iy,
/// ix) starts at +0 and adds, for each tap (ky, kx) in ascending order
/// whose output pixel p reads it, the sum over o in ascending order from
/// +0 of weight[o, (c, ky, kx)] * dY[s, o, p]; a tap reading padding adds
/// nothing. No step is fused, and no patch matrix is built.
Tensor Conv2dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_output, int kernel, int stride,
                      int pad, Tensor* weight_grad);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Sum of all elements.
double Sum(const Tensor& a);

/// Mean of all elements (0 for empty tensors).
double Mean(const Tensor& a);

/// Output spatial extent of a convolution along one axis.
inline int ConvOutDim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace vdrift::tensor

#endif  // VDRIFT_TENSOR_OPS_H_
