// Tests for the neural-network stack. The load-bearing tests are the
// finite-difference gradient checks on every layer and loss, plus
// end-to-end convergence tests (linear regression, XOR, a small conv net).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detect/image_classifier.h"
#include "nn/dropout.h"
#include "nn/init.h"
#include "nn/layer.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "vae/vae.h"
#include "conv_reference.h"

namespace vdrift::nn {
namespace {

using stats::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, Rng* rng, double scale = 1.0) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian(0.0, scale));
  }
  return t;
}

// Scalar objective used by the gradient checks: sum of elementwise square
// of the layer output, i.e. L = sum(y^2), dL/dy = 2y.
double Objective(const Tensor& y) {
  double s = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * y[i];
  }
  return s;
}

Tensor ObjectiveGrad(const Tensor& y) {
  Tensor g = y;
  for (int64_t i = 0; i < g.size(); ++i) g[i] *= 2.0f;
  return g;
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Verifies analytic input- and parameter-gradients of `layer` against
// central finite differences on L = sum(Forward(x)^2).
void CheckLayerGradients(Layer* layer, const Tensor& input, float tol) {
  Tensor x = input;
  for (Parameter* p : layer->Params()) p->ZeroGrad();
  Tensor y = layer->Forward(x);
  Tensor grad_in = layer->Backward(ObjectiveGrad(y));
  ASSERT_EQ(grad_in.shape(), x.shape());

  const float eps = 1e-3f;
  // Input gradient.
  for (int64_t i = 0; i < x.size(); ++i) {
    Tensor xp = x;
    Tensor xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    double fp = Objective(layer->Forward(xp));
    double fm = Objective(layer->Forward(xm));
    double numeric = (fp - fm) / (2.0 * eps);
    ASSERT_NEAR(grad_in[i], numeric, tol)
        << layer->name() << " input grad at " << i;
  }
  // Parameter gradients.
  std::vector<Parameter*> params = layer->Params();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    for (int64_t i = 0; i < p->value.size(); ++i) {
      float saved = p->value[i];
      p->value[i] = saved + eps;
      double fp = Objective(layer->Forward(x));
      p->value[i] = saved - eps;
      double fm = Objective(layer->Forward(x));
      p->value[i] = saved;
      double numeric = (fp - fm) / (2.0 * eps);
      ASSERT_NEAR(p->grad[i], numeric, tol)
          << layer->name() << " param " << pi << " grad at " << i;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear lin(2, 3, &rng);
  // Overwrite weights with known values: W = [[1,2],[3,4],[5,6]], b=[1,1,1].
  Parameter* w = lin.Params()[0];
  Parameter* b = lin.Params()[1];
  for (int i = 0; i < 6; ++i) w->value[i] = static_cast<float>(i + 1);
  b->value.Fill(1.0f);
  Tensor x(Shape{1, 2}, std::vector<float>{1.0f, 2.0f});
  Tensor y = lin.Forward(x);
  EXPECT_FLOAT_EQ(y.At2(0, 0), 1 * 1 + 2 * 2 + 1);
  EXPECT_FLOAT_EQ(y.At2(0, 1), 3 * 1 + 4 * 2 + 1);
  EXPECT_FLOAT_EQ(y.At2(0, 2), 5 * 1 + 6 * 2 + 1);
}

TEST(LinearTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, &rng);
  Tensor x = RandomTensor(Shape{2, 4}, &rng);
  CheckLayerGradients(&lin, x, 2e-2f);
}

TEST(Conv2dTest, KnownKernelForward) {
  Rng rng(3);
  Conv2d conv(1, 1, 2, 1, 0, &rng);
  // Kernel = all ones, bias = 0: output is the 2x2 box sum.
  conv.Params()[0]->value.Fill(1.0f);
  conv.Params()[1]->value.Fill(0.0f);
  Tensor x(Shape{1, 1, 3, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 1), 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 0), 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 1), 5 + 6 + 8 + 9);
}

TEST(Conv2dTest, StrideAndPaddingShapes) {
  Rng rng(4);
  Conv2d conv(2, 5, 3, 2, 1, &rng);
  Tensor x = RandomTensor(Shape{3, 2, 8, 8}, &rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5, 4, 4}));
}

// k3/s2/p1 as the encoder uses it, stride 1 as the decoder does, kernels
// 1 and 5, pads 0 and 2, and an out_c past the 8-lane vector. The finite
// differences catch a gradient formula that the bitwise oracles and the
// kernels might copy wrongly from the same spec.
TEST(Conv2dTest, GradientsMatchFiniteDifferences) {
  struct Geometry {
    int in_c, out_c, kernel, stride, pad, size;
  };
  const Geometry cases[] = {{2, 3, 3, 2, 1, 5},  {2, 3, 3, 1, 1, 5},
                            {3, 2, 1, 1, 0, 4},  {1, 2, 5, 1, 2, 5},
                            {2, 2, 5, 2, 2, 6},  {2, 2, 3, 1, 0, 5},
                            {2, 10, 3, 1, 1, 4}, {1, 9, 2, 3, 2, 5}};
  Rng rng(5);
  for (const Geometry& g : cases) {
    SCOPED_TRACE(testing::Message()
                 << "in_c=" << g.in_c << " out_c=" << g.out_c
                 << " k=" << g.kernel << " stride=" << g.stride
                 << " pad=" << g.pad << " size=" << g.size);
    Conv2d conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, &rng);
    Tensor x = RandomTensor(Shape{2, g.in_c, g.size, g.size}, &rng, 0.5);
    CheckLayerGradients(&conv, x, 5e-2f);
  }
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << "at flat index " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Conv2d::Backward against the naive loops of tests/conv_reference.h, bit
// for bit: dX, and dW and db folded into gradients that already hold
// values, so the per-sample fold order shows. Each case runs with finite
// operands, then with NaN, +-Inf, -0 and denormals planted in x, in dy and
// in W in turn; the W case also puts an Inf weight on a tap that reads
// only padding, where it must not reach dX.
TEST(Conv2dTest, BackwardIsBitIdenticalToNaiveLoops) {
  using conv_reference::ConvCase;
  using conv_reference::RandomValues;
  for (const ConvCase& c : conv_reference::ConvBackwardGrid()) {
    for (int specials = 0; specials < 4; ++specials) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << c.n << " c=" << c.channels << " " << c.height
                   << "x" << c.width << " out_c=" << c.out_channels
                   << " k=" << c.kernel << " stride=" << c.stride
                   << " pad=" << c.pad << " specials=" << specials);
      Rng rng(c.height * 7919 + c.width * 131 + c.kernel * 17 + c.stride +
              specials);
      Conv2d conv(c.channels, c.out_channels, c.kernel, c.stride, c.pad,
                  &rng);
      Parameter* w = conv.Params()[0];
      Parameter* b = conv.Params()[1];
      w->value = RandomValues(w->value.shape(), specials == 3, 7, 2, &rng);
      const int64_t padding_tap = conv_reference::PaddingOnlyTap(c);
      if (specials == 3 && padding_tap >= 0) {
        w->value.At2(0, padding_tap) = std::numeric_limits<float>::infinity();
      }
      w->grad = RandomValues(w->grad.shape(), false, 1, 0, &rng);
      b->grad = RandomValues(b->grad.shape(), false, 1, 0, &rng);
      Tensor want_dw = w->grad;
      Tensor want_db = b->grad;
      Tensor x = RandomValues(Shape{c.n, c.channels, c.height, c.width},
                              specials == 1, 11, 0, &rng);
      Tensor dy = RandomValues(Shape{c.n, c.out_channels, c.out_h(), c.out_w()},
                               specials == 2, 13, 5, &rng);
      conv.Forward(x);
      Tensor dx = conv.Backward(dy);
      conv_reference::NaiveWeightGrad(c, x, dy, &want_dw);
      conv_reference::NaiveBiasGrad(c, dy, &want_db);
      ExpectBitIdentical(dx, conv_reference::NaiveInputGrad(c, w->value, dy));
      ExpectBitIdentical(w->grad, want_dw);
      ExpectBitIdentical(b->grad, want_db);
    }
  }
}

// Kernel-probe attribution against the closed-form layer FLOP counts
// (deltas: the vdrift.ops.nn.* counters are process-wide).
TEST(LinearTest, ForwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t flops =
      global.GetCounter("vdrift.ops.nn.linear_forward.flops").value();
  int64_t calls =
      global.GetCounter("vdrift.ops.nn.linear_forward.calls").value();
  Rng rng(21);
  Linear lin(4, 5, &rng);
  Tensor x = RandomTensor(Shape{3, 4}, &rng);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.linear_forward.calls").value(),
            calls + 1);
  // GEMM (2 * 3 * 4 * 5) + bias add (3 * 5).
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.linear_forward.flops").value(),
            flops + 135);
}

TEST(Conv2dTest, ForwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t flops =
      global.GetCounter("vdrift.ops.nn.conv2d_forward.flops").value();
  Rng rng(22);
  Conv2d conv(2, 3, 3, 1, 1, &rng);
  Tensor x = RandomTensor(Shape{2, 2, 4, 4}, &rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  // Per sample: GEMM 2 * out_c * (in_c * k * k) * (out_h * out_w)
  // = 2 * 3 * 18 * 16 = 1728, plus bias add 3 * 16 = 48; N = 2.
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.conv2d_forward.flops").value(),
            flops + 2 * (1728 + 48));
}

TEST(Conv2dTest, BackwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  Rng rng(23);
  Conv2d conv(2, 3, 3, 1, 1, &rng);
  Tensor x = RandomTensor(Shape{2, 2, 4, 4}, &rng);
  Tensor y = conv.Forward(x);
  int64_t calls =
      global.GetCounter("vdrift.ops.nn.conv2d_backward.calls").value();
  int64_t flops =
      global.GetCounter("vdrift.ops.nn.conv2d_backward.flops").value();
  int64_t tensor_flops =
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.flops").value();
  Tensor dx = conv.Backward(RandomTensor(y.shape(), &rng));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.conv2d_backward.calls").value(),
            calls + 1);
  // Per sample: the dW and dX products, 2 * out_c * (in_c * k * k) *
  // (out_h * out_w) = 2 * 3 * 18 * 16 = 1728 each, the bias row sums
  // 3 * 16 = 48, and one accumulate per tap and output pixel into dX,
  // 18 * 16 = 288; N = 2.
  EXPECT_EQ(global.GetCounter("vdrift.ops.nn.conv2d_backward.flops").value(),
            flops + 2 * (2 * 1728 + 48 + 288));
  // The tensor op leaves the bias sums to the layer.
  EXPECT_EQ(
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.flops").value(),
      tensor_flops + 2 * (2 * 1728 + 288));
}

// Bitwise: y = x > 0 ? x : +0, mask = x > 0 ? 1 : 0 and dx = dy * mask, so
// NaN, -0 and negative values (denormals included) give +0 and mask 0. The
// lengths 1-17 run every vector-tail length; rotating the specials puts
// each one in every lane. Backward with dy = 1 reads the mask back.
TEST(ReLUTest, ForwardAndGradient) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            inf,
                            -inf,
                            denorm,
                            -denorm,
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::max(),
                            1.5f,
                            -2.5f};
  const int count = static_cast<int>(std::size(specials));
  for (int len = 1; len <= 17; ++len) {
    for (int rotate = 0; rotate < count; ++rotate) {
      SCOPED_TRACE(testing::Message() << "len=" << len << " rotate=" << rotate);
      Tensor x(Shape{1, len});
      Tensor dy(Shape{1, len});
      for (int i = 0; i < len; ++i) {
        x[i] = specials[(i + rotate) % count];
        dy[i] = specials[(3 * i + rotate + 1) % count];
      }
      ReLU relu;
      Tensor y = relu.Forward(x);
      Tensor mask = relu.Backward(Tensor(Shape{1, len}, 1.0f));
      Tensor dx = relu.Backward(dy);
      for (int i = 0; i < len; ++i) {
        bool positive = x[i] > 0.0f;
        float want_mask = positive ? 1.0f : 0.0f;
        EXPECT_EQ(Bits(y[i]), Bits(positive ? x[i] : 0.0f)) << "at " << i;
        EXPECT_EQ(Bits(mask[i]), Bits(want_mask)) << "at " << i;
        EXPECT_EQ(Bits(dx[i]), Bits(dy[i] * want_mask)) << "at " << i;
      }
    }
  }
}

TEST(SigmoidTest, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Sigmoid sig;
  Tensor x = RandomTensor(Shape{2, 5}, &rng);
  CheckLayerGradients(&sig, x, 1e-2f);
}

TEST(TanhTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Tanh tanh_layer;
  Tensor x = RandomTensor(Shape{2, 5}, &rng);
  CheckLayerGradients(&tanh_layer, x, 1e-2f);
}

TEST(FlattenTest, RoundTrip) {
  Flatten flatten;
  Rng rng(8);
  Tensor x = RandomTensor(Shape{2, 3, 4, 4}, &rng);
  Tensor y = flatten.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor back = flatten.Backward(y);
  EXPECT_EQ(back.shape(), x.shape());
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(Upsample2xTest, ForwardValuesAndBackwardSums) {
  Upsample2x up;
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = up.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.At4(0, 0, 3, 3), 4.0f);
  Tensor g(Shape{1, 1, 4, 4}, 1.0f);
  Tensor gx = up.Backward(g);
  EXPECT_FLOAT_EQ(gx.At4(0, 0, 0, 0), 4.0f);
}

TEST(Upsample2xTest, GradientsMatchFiniteDifferences) {
  Rng rng(9);
  Upsample2x up;
  Tensor x = RandomTensor(Shape{1, 2, 3, 3}, &rng);
  CheckLayerGradients(&up, x, 1e-2f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(10);
  Tensor logits = RandomTensor(Shape{4, 6}, &rng, 3.0);
  Tensor p = Softmax(logits);
  for (int64_t i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GT(p.At2(i, j), 0.0f);
      sum += p.At2(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  Tensor p = Softmax(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p.At2(0, 1), p.At2(0, 0));
}

TEST(CrossEntropyTest, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape{2, 3},
                std::vector<float>{20.0f, 0.0f, 0.0f, 0.0f, 20.0f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {0, 1});
  EXPECT_LT(r.loss, 1e-6);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  Tensor logits = RandomTensor(Shape{3, 4}, &rng);
  std::vector<int> labels{1, 3, 0};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits;
    Tensor lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    double numeric = (SoftmaxCrossEntropy(lp, labels).loss -
                      SoftmaxCrossEntropy(lm, labels).loss) /
                     (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-3);
  }
}

TEST(BceTest, MatchedDistributionsHaveMinimalLoss) {
  Tensor p(Shape{1, 4}, std::vector<float>{0.999f, 0.001f, 0.999f, 0.001f});
  Tensor t(Shape{1, 4}, std::vector<float>{1.0f, 0.0f, 1.0f, 0.0f});
  LossResult good = BinaryCrossEntropy(p, t);
  Tensor bad_p(Shape{1, 4}, std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f});
  LossResult bad = BinaryCrossEntropy(bad_p, t);
  EXPECT_LT(good.loss, bad.loss);
}

TEST(BceTest, GradientMatchesFiniteDifferences) {
  Rng rng(12);
  Tensor p(Shape{2, 3});
  Tensor t(Shape{2, 3});
  for (int64_t i = 0; i < p.size(); ++i) {
    p[i] = 0.2f + 0.6f * rng.NextFloat();
    t[i] = rng.NextFloat() < 0.5f ? 0.0f : 1.0f;
  }
  LossResult r = BinaryCrossEntropy(p, t);
  const float eps = 1e-4f;
  for (int64_t i = 0; i < p.size(); ++i) {
    Tensor pp = p;
    Tensor pm = p;
    pp[i] += eps;
    pm[i] -= eps;
    double numeric = (BinaryCrossEntropy(pp, t).loss -
                      BinaryCrossEntropy(pm, t).loss) /
                     (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2);
  }
}

TEST(MseTest, ValueAndGradient) {
  Tensor pred(Shape{1, 2}, std::vector<float>{1.0f, 3.0f});
  Tensor target(Shape{1, 2}, std::vector<float>{0.0f, 1.0f});
  LossResult r = MeanSquaredError(pred, target);
  EXPECT_NEAR(r.loss, (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(r.grad[0], 2.0f * 1.0f / 2.0f, 1e-6);
  EXPECT_NEAR(r.grad[1], 2.0f * 2.0f / 2.0f, 1e-6);
}

TEST(SgdTest, ConvergesOnLinearRegression) {
  Rng rng(13);
  Sequential net;
  net.Add<Linear>(1, 1, &rng);
  Sgd opt(net.Params(), 0.05f);
  // Fit y = 3x - 1.
  for (int step = 0; step < 500; ++step) {
    Tensor x(Shape{8, 1});
    Tensor y(Shape{8, 1});
    for (int i = 0; i < 8; ++i) {
      float xv = rng.NextFloat() * 2.0f - 1.0f;
      x[i] = xv;
      y[i] = 3.0f * xv - 1.0f;
    }
    opt.ZeroGrad();
    Tensor pred = net.Forward(x);
    LossResult r = MeanSquaredError(pred, y);
    net.Backward(r.grad);
    opt.Step();
  }
  Parameter* w = net.Params()[0];
  Parameter* b = net.Params()[1];
  EXPECT_NEAR(w->value[0], 3.0f, 0.05f);
  EXPECT_NEAR(b->value[0], -1.0f, 0.05f);
}

TEST(AdamTest, SolvesXor) {
  Rng rng(14);
  Sequential net;
  net.Add<Linear>(2, 8, &rng);
  net.Add<Tanh>();
  net.Add<Linear>(8, 2, &rng);
  Adam opt(net.Params(), 0.02f);
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels{0, 1, 1, 0};
  for (int step = 0; step < 400; ++step) {
    Tensor x(Shape{4, 2});
    for (int i = 0; i < 4; ++i) {
      x.At2(i, 0) = xs[i][0];
      x.At2(i, 1) = xs[i][1];
    }
    opt.ZeroGrad();
    Tensor logits = net.Forward(x);
    LossResult r = SoftmaxCrossEntropy(logits, labels);
    net.Backward(r.grad);
    opt.Step();
  }
  Tensor x(Shape{4, 2});
  for (int i = 0; i < 4; ++i) {
    x.At2(i, 0) = xs[i][0];
    x.At2(i, 1) = xs[i][1];
  }
  Tensor logits = net.Forward(x);
  for (int i = 0; i < 4; ++i) {
    int pred = logits.At2(i, 0) > logits.At2(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[static_cast<size_t>(i)]) << "sample " << i;
  }
}

TEST(AdamTest, ConvNetLearnsBrightVsDark) {
  // A 2-class toy image problem: bright-center vs dark-center 8x8 images.
  Rng rng(15);
  Sequential net;
  net.Add<Conv2d>(1, 4, 3, 2, 1, &rng);
  net.Add<ReLU>();
  net.Add<Flatten>();
  net.Add<Linear>(4 * 4 * 4, 2, &rng);
  Adam opt(net.Params(), 0.01f);
  auto make_batch = [&](int n, Tensor* x, std::vector<int>* labels) {
    *x = Tensor(Shape{n, 1, 8, 8});
    labels->clear();
    for (int i = 0; i < n; ++i) {
      int label = rng.NextBernoulli(0.5) ? 1 : 0;
      labels->push_back(label);
      for (int64_t h = 0; h < 8; ++h) {
        for (int64_t w = 0; w < 8; ++w) {
          float base = label == 1 && h >= 2 && h < 6 && w >= 2 && w < 6
                           ? 0.9f
                           : 0.1f;
          x->At4(i, 0, h, w) =
              std::clamp(base + 0.05f * static_cast<float>(rng.NextGaussian()),
                         0.0f, 1.0f);
        }
      }
    }
  };
  for (int step = 0; step < 120; ++step) {
    Tensor x;
    std::vector<int> labels;
    make_batch(16, &x, &labels);
    opt.ZeroGrad();
    Tensor logits = net.Forward(x);
    LossResult r = SoftmaxCrossEntropy(logits, labels);
    net.Backward(r.grad);
    opt.Step();
  }
  Tensor x;
  std::vector<int> labels;
  make_batch(64, &x, &labels);
  Tensor logits = net.Forward(x);
  int correct = 0;
  for (int i = 0; i < 64; ++i) {
    int pred = logits.At2(i, 0) > logits.At2(i, 1) ? 0 : 1;
    if (pred == labels[static_cast<size_t>(i)]) ++correct;
  }
  EXPECT_GE(correct, 58) << "conv net failed to learn a separable problem";
}

TEST(SequentialTest, ParamsAggregatesAllLayers) {
  Rng rng(16);
  Sequential net;
  net.Add<Linear>(3, 4, &rng);
  net.Add<ReLU>();
  net.Add<Linear>(4, 2, &rng);
  EXPECT_EQ(net.Params().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(net.NumParameters(), 3 * 4 + 4 + 4 * 2 + 2);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(17);
  Sequential a;
  a.Add<Linear>(3, 4, &rng);
  a.Add<ReLU>();
  a.Add<Linear>(4, 2, &rng);
  Sequential b;
  b.Add<Linear>(3, 4, &rng);
  b.Add<ReLU>();
  b.Add<Linear>(4, 2, &rng);
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  ASSERT_TRUE(LoadParameters(&b, &stream).ok());
  Tensor x = RandomTensor(Shape{2, 3}, &rng);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, ConvNetRoundTrip) {
  Rng rng(170);
  auto build = [&]() {
    Sequential net;
    net.Add<Conv2d>(1, 4, 3, 2, 1, &rng);
    net.Add<ReLU>();
    net.Add<Conv2d>(4, 8, 3, 2, 1, &rng);
    net.Add<Flatten>();
    net.Add<Linear>(8 * 4 * 4, 3, &rng);
    return net;
  };
  Sequential a = build();
  Sequential b = build();
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  ASSERT_TRUE(LoadParameters(&b, &stream).ok());
  Tensor x = RandomTensor(Shape{2, 1, 16, 16}, &rng);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, LoadRejectsMismatchedArchitecture) {
  Rng rng(18);
  Sequential a;
  a.Add<Linear>(3, 4, &rng);
  Sequential b;
  b.Add<Linear>(3, 5, &rng);
  std::stringstream stream;
  ASSERT_TRUE(SaveParameters(&a, &stream).ok());
  EXPECT_FALSE(LoadParameters(&b, &stream).ok());
}

TEST(SerializeTest, LoadRejectsGarbage) {
  Sequential a;
  std::stringstream stream;
  stream << "not a model";
  EXPECT_FALSE(LoadParameters(&a, &stream).ok());
}

// --- Infer is Forward's arithmetic and leaves the training tape alone. ---

// One layer under test, rebuilt from a seed so two instances start equal.
struct InferCase {
  std::string name;
  std::function<std::shared_ptr<Layer>(Rng*)> make;
  Shape input;
  // Forward draws a dropout mask, so only the tape check applies.
  bool samples = false;
};

void PrintTo(const InferCase& c, std::ostream* os) { *os << c.name; }

// The VAE's encoder trunk (vae.cc): three stride-2 convolutions with ReLUs,
// then Flatten.
std::shared_ptr<Layer> VaeEncoderTrunk(Rng* rng) {
  auto trunk = std::make_shared<Sequential>();
  trunk->Add<Conv2d>(1, 4, 3, 2, 1, rng);
  trunk->Add<ReLU>();
  trunk->Add<Conv2d>(4, 8, 3, 2, 1, rng);
  trunk->Add<ReLU>();
  trunk->Add<Conv2d>(8, 8, 3, 2, 1, rng);
  trunk->Add<ReLU>();
  trunk->Add<Flatten>();
  return trunk;
}

// The network of an ImageClassifier, kept alive by its owner.
std::shared_ptr<Layer> ClassifierNet(Rng* rng) {
  detect::ClassifierConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.base_filters = 2;
  auto model = std::make_shared<detect::ImageClassifier>(config, rng);
  return std::shared_ptr<Layer>(model, model->net());
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " at " << i;
  }
}

class InferTest : public ::testing::TestWithParam<InferCase> {};

TEST_P(InferTest, MatchesForwardAndLeavesTheTapeAlone) {
  const InferCase& c = GetParam();
  Rng data(29);
  Tensor x1 = RandomTensor(c.input, &data);
  // A different batch size, so shape-derived state would show too.
  std::vector<int64_t> dims = c.input.dims();
  dims[0] += 1;
  Tensor x2 = RandomTensor(Shape(dims), &data);

  Rng init_a(31);
  Rng init_b(31);
  std::shared_ptr<Layer> a = c.make(&init_a);
  std::shared_ptr<Layer> b = c.make(&init_b);
  if (!c.samples) {
    Rng init_c(31);
    std::shared_ptr<Layer> fresh = c.make(&init_c);
    Tensor inferred = fresh->Infer(x1);
    ExpectBitEqual(inferred, fresh->Forward(x1), "Infer vs Forward");
  }
  // Forward(x1); Infer(x2); Backward(dy) == Forward(x1); Backward(dy).
  Tensor y = a->Forward(x1);
  ExpectBitEqual(b->Forward(x1), y, "Forward");
  Tensor dy = RandomTensor(y.shape(), &data);
  (void)a->Infer(x2);
  ExpectBitEqual(a->Backward(dy), b->Backward(dy), "input gradient");
  std::vector<Parameter*> pa = a->Params();
  std::vector<Parameter*> pb = b->Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ExpectBitEqual(pa[i]->grad, pb[i]->grad,
                   "parameter " + std::to_string(i) + " gradient");
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayer, InferTest,
    ::testing::Values(
        InferCase{"Linear",
                  [](Rng* rng) { return std::make_shared<Linear>(6, 4, rng); },
                  Shape{3, 6}},
        InferCase{"Conv2d",
                  [](Rng* rng) {
                    return std::make_shared<Conv2d>(2, 3, 3, 2, 1, rng);
                  },
                  Shape{2, 2, 7, 7}},
        InferCase{"ReLU", [](Rng*) { return std::make_shared<ReLU>(); },
                  Shape{2, 3, 4, 4}},
        InferCase{"Sigmoid", [](Rng*) { return std::make_shared<Sigmoid>(); },
                  Shape{2, 5}},
        InferCase{"Tanh", [](Rng*) { return std::make_shared<Tanh>(); },
                  Shape{2, 5}},
        InferCase{"Flatten", [](Rng*) { return std::make_shared<Flatten>(); },
                  Shape{2, 3, 4, 4}},
        InferCase{"Upsample2x",
                  [](Rng*) { return std::make_shared<Upsample2x>(); },
                  Shape{2, 2, 3, 3}},
        InferCase{"Dropout",
                  [](Rng* rng) { return std::make_shared<Dropout>(0.5, rng); },
                  Shape{2, 16}, /*samples=*/true},
        InferCase{"DropoutRateZero",
                  [](Rng* rng) { return std::make_shared<Dropout>(0.0, rng); },
                  Shape{2, 16}},
        InferCase{"DecoderReshape",
                  [](Rng*) {
                    return std::make_shared<vae::DecoderReshape>(3, 2);
                  },
                  Shape{2, 12}},
        InferCase{"ImageClassifierNet", ClassifierNet, Shape{2, 1, 8, 8}},
        InferCase{"VaeEncoderTrunk", VaeEncoderTrunk, Shape{2, 1, 16, 16}}),
    [](const ::testing::TestParamInfo<InferCase>& info) {
      return info.param.name;
    });

TEST(InitTest, HeInitVarianceScaled) {
  Rng rng(20);
  Tensor w(Shape{1000, 50});
  HeInit(&w, 50, &rng);
  stats::RunningMoments m;
  for (int64_t i = 0; i < w.size(); ++i) m.Add(w[i]);
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.stddev(), std::sqrt(2.0 / 50.0), 0.01);
}

TEST(InitTest, XavierInitBounded) {
  Rng rng(21);
  Tensor w(Shape{100, 20});
  XavierInit(&w, 20, 100, &rng);
  double limit = std::sqrt(6.0 / 120.0);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w[i]), limit + 1e-6);
  }
}

}  // namespace
}  // namespace vdrift::nn
