#ifndef VDRIFT_TESTS_CONV_REFERENCE_H_
#define VDRIFT_TESTS_CONV_REFERENCE_H_

// Naive-loop oracles for the convolution gradients, shared by the kernel
// tests (tensor_test) and the layer test (nn_test). They spell out the
// arithmetic the backward pass promises, bit for bit: every product is
// rounded before it is added (through a volatile, so no compiler flag can
// fuse it), and every sum runs in the order given below.

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "stats/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace vdrift::conv_reference {

using tensor::Shape;
using tensor::Tensor;

/// One convolution: an [n, channels, height, width] input through an
/// out_channels x kernel x kernel filter bank.
struct ConvCase {
  int n;
  int channels;
  int height;
  int width;
  int out_channels;
  int kernel;
  int stride;
  int pad;

  int out_h() const {
    return tensor::ConvOutDim(height, kernel, stride, pad);
  }
  int out_w() const { return tensor::ConvOutDim(width, kernel, stride, pad); }
  int64_t taps() const {
    return static_cast<int64_t>(channels) * kernel * kernel;
  }
};

/// Kernel sizes 1, 2, 3, 5 x strides 1-3 x pads 0-2 on three image
/// sizes, with N from 1 to 3, 1 to 3 input channels and out_c cycling
/// through 1, 3, 4, 5, 9, 24 (below, at and past both vector widths and
/// the 3-vector tile). Then the models' shapes, at N = 2: the VAE
/// encoder's three stride-2 convs, its decoder's three stride-1 convs
/// (the last with out_c = 3, an RGB frame) and the classifier's stride-1
/// conv. Last, a stride-1 case with out_w = 9, whose forward pass ends a
/// vector load on the padded input's last slack float.
inline std::vector<ConvCase> ConvBackwardGrid() {
  std::vector<ConvCase> cases;
  const int out_channels[] = {1, 3, 4, 5, 9, 24};
  int i = 0;
  for (int k : {1, 2, 3, 5}) {
    for (int stride : {1, 2, 3}) {
      for (int pad : {0, 1, 2}) {
        for (auto [h, w] : {std::pair{5, 3}, std::pair{7, 13},
                            std::pair{4, 21}}) {
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          cases.push_back({1 + i % 3, 1 + i % 3, h, w, out_channels[i % 6], k,
                           stride, pad});
          ++i;
        }
      }
    }
  }
  cases.push_back({2, 1, 32, 32, 8, 3, 2, 1});
  cases.push_back({2, 8, 16, 16, 16, 3, 2, 1});
  cases.push_back({2, 16, 8, 8, 16, 3, 2, 1});
  cases.push_back({2, 16, 8, 8, 16, 3, 1, 1});
  cases.push_back({2, 16, 16, 16, 8, 3, 1, 1});
  cases.push_back({2, 8, 32, 32, 3, 3, 1, 1});
  cases.push_back({1, 2, 4, 9, 3, 3, 1, 1});
  return cases;
}

/// Gaussian values, or the same with NaN, +-Inf, -0 and a denormal
/// planted every `every` elements from `offset`. The NaN is the one
/// Inf - Inf makes, so every NaN in play has one encoding: which of two
/// NaNs a sum keeps depends on operand order, which compilers may swap.
inline Tensor RandomValues(Shape shape, bool specials, int every, int offset,
                           stats::Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  if (specials) {
    volatile float inf = std::numeric_limits<float>::infinity();
    const float values[] = {inf - inf, inf, -inf, -0.0f,
                            std::numeric_limits<float>::denorm_min()};
    for (int64_t i = offset, j = 0; i < t.size(); i += every, ++j) {
      t[i] = values[j % 5];
    }
  }
  return t;
}

/// The first tap (c = 0, ky, kx) that reads only padding for every output
/// pixel, or -1 when each tap reaches the image somewhere.
inline int64_t PaddingOnlyTap(const ConvCase& c) {
  for (int ky = 0; ky < c.kernel; ++ky) {
    for (int kx = 0; kx < c.kernel; ++kx) {
      bool inside = false;
      for (int oy = 0; oy < c.out_h(); ++oy) {
        for (int ox = 0; ox < c.out_w(); ++ox) {
          int iy = oy * c.stride + ky - c.pad;
          int ix = ox * c.stride + kx - c.pad;
          inside |= iy >= 0 && iy < c.height && ix >= 0 && ix < c.width;
        }
      }
      if (!inside) return static_cast<int64_t>(ky) * c.kernel + kx;
    }
  }
  return -1;
}

/// weight_grad[o, (ch, ky, kx)] += dW_s for each sample s in ascending
/// order, where dW_s sums dy[s, o, p] * x~[s, (ch, ky, kx), p] over output
/// pixels p in ascending order from +0, and x~ is the zero-padded input:
/// a padding cell contributes dy * 0.
inline void NaiveWeightGrad(const ConvCase& c, const Tensor& x,
                            const Tensor& dy, Tensor* weight_grad) {
  for (int64_t s = 0; s < c.n; ++s) {
    for (int64_t o = 0; o < c.out_channels; ++o) {
      for (int64_t ch = 0; ch < c.channels; ++ch) {
        for (int ky = 0; ky < c.kernel; ++ky) {
          for (int kx = 0; kx < c.kernel; ++kx) {
            float acc = 0.0f;
            for (int oy = 0; oy < c.out_h(); ++oy) {
              for (int ox = 0; ox < c.out_w(); ++ox) {
                int iy = oy * c.stride + ky - c.pad;
                int ix = ox * c.stride + kx - c.pad;
                bool inside =
                    iy >= 0 && iy < c.height && ix >= 0 && ix < c.width;
                float v = inside ? x.At4(s, ch, iy, ix) : 0.0f;
                volatile float product = dy.At4(s, o, oy, ox) * v;
                acc += product;
              }
            }
            weight_grad->At2(o, (ch * c.kernel + ky) * c.kernel + kx) += acc;
          }
        }
      }
    }
  }
}

/// bias_grad[o] += the sum of dy[s, o, :] in double, rounded to float once,
/// for each sample s in ascending order.
inline void NaiveBiasGrad(const ConvCase& c, const Tensor& dy,
                          Tensor* bias_grad) {
  const int64_t plane = static_cast<int64_t>(c.out_h()) * c.out_w();
  for (int64_t s = 0; s < c.n; ++s) {
    for (int64_t o = 0; o < c.out_channels; ++o) {
      double acc = 0.0;
      for (int64_t p = 0; p < plane; ++p) {
        acc += dy[(s * c.out_channels + o) * plane + p];
      }
      (*bias_grad)[o] += static_cast<float>(acc);
    }
  }
}

/// dX[s, ch, iy, ix] starts at +0 and adds, for each tap (ky, kx) in
/// ascending order whose output pixel (oy, ox) reads (iy, ix), the sum
/// over o in ascending order from +0 of w[o, (ch, ky, kx)] * dy[s, o, oy,
/// ox]. A tap that reads only padding adds nothing, so an Inf weight there
/// leaves dX finite.
inline Tensor NaiveInputGrad(const ConvCase& c, const Tensor& w,
                             const Tensor& dy) {
  Tensor dx(Shape{c.n, c.channels, c.height, c.width});
  for (int64_t s = 0; s < c.n; ++s) {
    for (int64_t ch = 0; ch < c.channels; ++ch) {
      for (int iy = 0; iy < c.height; ++iy) {
        for (int ix = 0; ix < c.width; ++ix) {
          float acc = 0.0f;
          for (int ky = 0; ky < c.kernel; ++ky) {
            for (int kx = 0; kx < c.kernel; ++kx) {
              int ry = iy + c.pad - ky;
              int rx = ix + c.pad - kx;
              if (ry < 0 || rx < 0 || ry % c.stride != 0 ||
                  rx % c.stride != 0) {
                continue;
              }
              int oy = ry / c.stride;
              int ox = rx / c.stride;
              if (oy >= c.out_h() || ox >= c.out_w()) continue;
              float t = 0.0f;
              for (int64_t o = 0; o < c.out_channels; ++o) {
                volatile float product =
                    w.At2(o, (ch * c.kernel + ky) * c.kernel + kx) *
                    dy.At4(s, o, oy, ox);
                t += product;
              }
              acc += t;
            }
          }
          dx.At4(s, ch, iy, ix) = acc;
        }
      }
    }
  }
  return dx;
}

}  // namespace vdrift::conv_reference

#endif  // VDRIFT_TESTS_CONV_REFERENCE_H_
