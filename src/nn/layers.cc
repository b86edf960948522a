#include "nn/layers.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "nn/init.h"
#include "obs/trace_log.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace vdrift::nn {

using runtime::GrainForCost;
using runtime::ParallelFor;
using tensor::ConvOutDim;
using tensor::Shape;
using tensor::Tensor;

namespace {

// Elementwise-layer attribution: ~1 FLOP per element (activations with
// transcendentals undercount deliberately — they are profiled for shape,
// not instruction mix), input + output once through memory.
int64_t ElementwiseBytes(int64_t elements) {
  return 2 * static_cast<int64_t>(sizeof(float)) * elements;
}

// Activation loops are pure per-element maps; transcendentals are costed
// a few units so small tensors stay inline (see GrainForCost).
constexpr int64_t kActivationGrain = 1 << 13;

}  // namespace

Linear::Linear(int in_features, int out_features, stats::Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
  HeInit(&weight_.value, in_features, rng);
}

Tensor Linear::Infer(const Tensor& input) const {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(input.shape().ndim() == 2 &&
               input.shape().dim(1) == in_features_)
      << "Linear expects [N, " << in_features_ << "], got "
      << input.shape().ToString();
  int64_t batch = input.shape().dim(0);
  // GEMM + bias add. Layer probes subsume the tensor-op probes they call
  // (vdrift.ops.nn.* totals include the vdrift.ops.tensor.* work below).
  VDRIFT_OP_PROBE(
      "nn", "linear_forward",
      2 * batch * in_features_ * out_features_ + batch * out_features_,
      static_cast<int64_t>(sizeof(float)) *
          (batch * in_features_ +
           static_cast<int64_t>(out_features_) * in_features_ +
           out_features_ + batch * out_features_));
  Tensor out = tensor::MatmulTransposedB(input, weight_.value);
  int64_t n = out.shape().dim(0);
  float* po = out.data();
  const float* pbias = bias_.value.data();
  ParallelFor(0, n, GrainForCost(out_features_),
              [&](int64_t row_begin, int64_t row_end) {
                for (int64_t i = row_begin; i < row_end; ++i) {
                  float* row = po + i * out_features_;
                  for (int64_t j = 0; j < out_features_; ++j) {
                    row[j] += pbias[j];
                  }
                }
              });
  return out;
}

Tensor Linear::Forward(const Tensor& input) {
  cached_input_ = input;
  return Infer(input);
}

Tensor Linear::Backward(const Tensor& grad_output) {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(grad_output.shape().ndim() == 2 &&
               grad_output.shape().dim(1) == out_features_);
  int64_t batch = grad_output.shape().dim(0);
  // Two GEMMs (dW, dX) plus the bias-gradient column sums.
  VDRIFT_OP_PROBE(
      "nn", "linear_backward",
      4 * batch * in_features_ * out_features_ + batch * out_features_,
      static_cast<int64_t>(sizeof(float)) *
          (2 * batch * out_features_ + 2 * batch * in_features_ +
           2 * static_cast<int64_t>(out_features_) * in_features_ +
           out_features_));
  // dW += dY^T X ; db += column sums of dY ; dX = dY W.
  Tensor dw = tensor::MatmulTransposedA(grad_output, cached_input_);
  tensor::AddInPlace(&weight_.grad, dw);
  int64_t n = grad_output.shape().dim(0);
  const float* pdy = grad_output.data();
  float* pdb = bias_.grad.data();
  // Columns of db are independent; each keeps the serial (ascending i)
  // accumulation order.
  ParallelFor(0, out_features_, GrainForCost(n),
              [&](int64_t col_begin, int64_t col_end) {
                for (int64_t j = col_begin; j < col_end; ++j) {
                  for (int64_t i = 0; i < n; ++i) {
                    pdb[j] += pdy[i * out_features_ + j];
                  }
                }
              });
  return tensor::Matmul(grad_output, weight_.value);
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, stats::Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{out_channels, in_channels * kernel * kernel}),
      bias_(Shape{out_channels}) {
  HeInit(&weight_.value, in_channels * kernel * kernel, rng);
}

Tensor Conv2d::Infer(const Tensor& input) const {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(input.shape().ndim() == 4 &&
               input.shape().dim(1) == in_channels_)
      << "Conv2d expects [N, " << in_channels_ << ", H, W], got "
      << input.shape().ToString();
  int64_t n = input.shape().dim(0);
  int out_h = ConvOutDim(static_cast<int>(input.shape().dim(2)), kernel_,
                         stride_, pad_);
  int out_w = ConvOutDim(static_cast<int>(input.shape().dim(3)), kernel_,
                         stride_, pad_);
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(out_h > 0 && out_w > 0);
  int64_t out_plane = static_cast<int64_t>(out_h) * out_w;
  int64_t patch = static_cast<int64_t>(in_channels_) * kernel_ * kernel_;
  // Per sample: implicit GEMM (2 * out_c * patch * out_plane) + bias add.
  VDRIFT_OP_PROBE(
      "nn", "conv2d_forward",
      n * (2 * out_channels_ * patch * out_plane +
           out_channels_ * out_plane),
      static_cast<int64_t>(sizeof(float)) *
          (input.size() + out_channels_ * patch + out_channels_ +
           n * out_channels_ * out_plane));
  return tensor::Conv2dForward(input, weight_.value, bias_.value, kernel_,
                               stride_, pad_);
}

Tensor Conv2d::Forward(const Tensor& input) {
  cached_input_ = input;
  return Infer(input);
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  int64_t n = grad_output.shape().dim(0);
  // vdrift-lint: allow(no-data-dependent-check): fwd/bwd pairing contract
  VDRIFT_CHECK(cached_input_.shape().ndim() == 4 &&
               n == cached_input_.shape().dim(0))
      << "Backward batch size mismatch";
  int out_h = ConvOutDim(static_cast<int>(cached_input_.shape().dim(2)),
                         kernel_, stride_, pad_);
  int out_w = ConvOutDim(static_cast<int>(cached_input_.shape().dim(3)),
                         kernel_, stride_, pad_);
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(grad_output.shape().ndim() == 4 &&
               grad_output.shape().dim(1) == out_channels_ &&
               grad_output.shape().dim(2) == out_h &&
               grad_output.shape().dim(3) == out_w);
  int64_t plane = static_cast<int64_t>(out_h) * out_w;
  int64_t patch = static_cast<int64_t>(in_channels_) * kernel_ * kernel_;
  // Per sample: the dW and dX products (2 * out_c * patch * out_plane
  // each), the bias row sums, and one accumulate per tap and output pixel
  // into dX. Bytes: the input, dY and dX once, the weights once and their
  // gradient twice, and the bias gradient twice.
  VDRIFT_OP_PROBE(
      "nn", "conv2d_backward",
      n * (4 * out_channels_ * patch * plane + out_channels_ * plane +
           patch * plane),
      static_cast<int64_t>(sizeof(float)) *
          (2 * cached_input_.size() + grad_output.size() +
           3 * out_channels_ * patch + 2 * out_channels_));
  Tensor grad_input =
      tensor::Conv2dBackward(cached_input_, weight_.value, grad_output,
                             kernel_, stride_, pad_, &weight_.grad);
  // db += each sample's row sums of dY, in double, rounded once and added
  // in ascending sample order, so any channel split is bit-identical.
  const float* pdy = grad_output.data();
  float* pdb = bias_.grad.data();
  ParallelFor(0, out_channels_, GrainForCost(n * plane),
              [&](int64_t c_begin, int64_t c_end) {
                for (int64_t c = c_begin; c < c_end; ++c) {
                  for (int64_t s = 0; s < n; ++s) {
                    const float* row = pdy + (s * out_channels_ + c) * plane;
                    double acc = 0.0;
                    for (int64_t p = 0; p < plane; ++p) acc += row[p];
                    pdb[c] += static_cast<float>(acc);
                  }
                }
              });
  return grad_input;
}

Tensor ReLU::Infer(const Tensor& input) const {
  VDRIFT_OP_PROBE("nn", "relu_forward", input.size(),
                  ElementwiseBytes(input.size()));
  Tensor out(input.shape());
  const float* px = input.data();
  float* py = out.data();
  // y = x > 0 ? x : +0, four lanes per compare and select: NaN and -0 map
  // to +0. A branch per element neither vectorises nor predicts on conv
  // outputs.
  typedef float Float4 __attribute__((vector_size(16)));
  typedef int32_t Int4 __attribute__((vector_size(16)));
  ParallelFor(0, out.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                int64_t i = begin;
                for (; i + 4 <= end; i += 4) {
                  Float4 x;
                  Int4 bits;
                  std::memcpy(&x, px + i, sizeof(x));
                  std::memcpy(&bits, px + i, sizeof(bits));
                  Int4 positive = x > Float4{};  // all ones or all zeros
                  Int4 y = bits & positive;
                  std::memcpy(py + i, &y, sizeof(y));
                }
                for (; i < end; ++i) py[i] = px[i] > 0.0f ? px[i] : 0.0f;
              });
  return out;
}

Tensor ReLU::Forward(const Tensor& input) {
  cached_input_ = input;
  return Infer(input);
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  // dx = dy * (x > 0 ? 1 : 0), the compare Infer makes, so NaN and -0
  // inputs pass no gradient.
  Tensor grad = grad_output;
  float* pg = grad.data();
  const float* px = cached_input_.data();
  ParallelFor(0, grad.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  pg[i] *= px[i] > 0.0f ? 1.0f : 0.0f;
                }
              });
  return grad;
}

Tensor Sigmoid::Infer(const Tensor& input) const {
  VDRIFT_OP_PROBE("nn", "sigmoid_forward", input.size(),
                  ElementwiseBytes(input.size()));
  Tensor out = input;
  float* po = out.data();
  ParallelFor(0, out.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  po[i] = 1.0f / (1.0f + std::exp(-po[i]));
                }
              });
  return out;
}

Tensor Sigmoid::Forward(const Tensor& input) {
  cached_output_ = Infer(input);
  return cached_output_;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  float* pg = grad.data();
  const float* py = cached_output_.data();
  ParallelFor(0, grad.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  pg[i] *= py[i] * (1.0f - py[i]);
                }
              });
  return grad;
}

Tensor Tanh::Infer(const Tensor& input) const {
  VDRIFT_OP_PROBE("nn", "tanh_forward", input.size(),
                  ElementwiseBytes(input.size()));
  Tensor out = input;
  float* po = out.data();
  ParallelFor(0, out.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  po[i] = std::tanh(po[i]);
                }
              });
  return out;
}

Tensor Tanh::Forward(const Tensor& input) {
  cached_output_ = Infer(input);
  return cached_output_;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  float* pg = grad.data();
  const float* py = cached_output_.data();
  ParallelFor(0, grad.size(), kActivationGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  pg[i] *= 1.0f - py[i] * py[i];
                }
              });
  return grad;
}

Tensor Flatten::Infer(const Tensor& input) const {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(input.shape().ndim() >= 2);
  int64_t n = input.shape().dim(0);
  int64_t features = input.shape().NumElements() / n;
  return input.Reshaped(Shape{n, features});
}

Tensor Flatten::Forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return Infer(input);
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  return grad_output.Reshaped(cached_shape_);
}

Tensor Upsample2x::Infer(const Tensor& input) const {
  // vdrift-lint: allow(no-data-dependent-check): layer shape contract
  VDRIFT_CHECK(input.shape().ndim() == 4);
  // Replication only: 0 FLOPs, input read once + 4x output written.
  VDRIFT_OP_PROBE("nn", "upsample2x_forward", 0,
                  static_cast<int64_t>(sizeof(float)) * 5 * input.size());
  int64_t n = input.shape().dim(0);
  int64_t c = input.shape().dim(1);
  int64_t h = input.shape().dim(2);
  int64_t w = input.shape().dim(3);
  Tensor out(Shape{n, c, 2 * h, 2 * w});
  // One (sample, channel) plane per loop index; planes are disjoint.
  ParallelFor(0, n * c, GrainForCost(4 * h * w),
              [&](int64_t plane_begin, int64_t plane_end) {
                for (int64_t plane = plane_begin; plane < plane_end;
                     ++plane) {
                  int64_t s = plane / c;
                  int64_t ch = plane % c;
                  for (int64_t y = 0; y < h; ++y) {
                    for (int64_t x = 0; x < w; ++x) {
                      float v = input.At4(s, ch, y, x);
                      out.At4(s, ch, 2 * y, 2 * x) = v;
                      out.At4(s, ch, 2 * y, 2 * x + 1) = v;
                      out.At4(s, ch, 2 * y + 1, 2 * x) = v;
                      out.At4(s, ch, 2 * y + 1, 2 * x + 1) = v;
                    }
                  }
                }
              });
  return out;
}

Tensor Upsample2x::Forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return Infer(input);
}

Tensor Upsample2x::Backward(const Tensor& grad_output) {
  int64_t n = cached_shape_.dim(0);
  int64_t c = cached_shape_.dim(1);
  int64_t h = cached_shape_.dim(2);
  int64_t w = cached_shape_.dim(3);
  Tensor grad(cached_shape_);
  ParallelFor(
      0, n * c, GrainForCost(4 * h * w),
      [&](int64_t plane_begin, int64_t plane_end) {
        for (int64_t plane = plane_begin; plane < plane_end; ++plane) {
          int64_t s = plane / c;
          int64_t ch = plane % c;
          for (int64_t y = 0; y < h; ++y) {
            for (int64_t x = 0; x < w; ++x) {
              grad.At4(s, ch, y, x) =
                  grad_output.At4(s, ch, 2 * y, 2 * x) +
                  grad_output.At4(s, ch, 2 * y, 2 * x + 1) +
                  grad_output.At4(s, ch, 2 * y + 1, 2 * x) +
                  grad_output.At4(s, ch, 2 * y + 1, 2 * x + 1);
            }
          }
        }
      });
  return grad;
}

}  // namespace vdrift::nn
