// Tests for the tensor library: shape handling, elementwise ops, matrix
// products, and convolution forward and backward (checked against naive
// references).

#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stats/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "conv_reference.h"

namespace vdrift::tensor {
namespace {

using stats::Rng;

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  return t;
}

Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  int64_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        // Through a volatile, so no compiler flag can fuse the product
        // into the add: one rounded multiply, then one rounded add.
        volatile float product = a.At2(i, kk) * b.At2(kk, j);
        acc += product;
      }
      out.At2(i, j) = acc;
    }
  }
  return out;
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

// Bitwise equality: the GEMM and convolution kernels promise the naive
// loops' exact bits, not merely close values.
void ExpectBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.size(); ++i) {
    float g = got[i];
    float w = want[i];
    ASSERT_EQ(std::memcmp(&g, &w, sizeof(float)), 0)
        << "at flat index " << i << ": " << g << " vs " << w;
  }
}

TEST(ShapeTest, NumElementsAndToString) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.NumElements(), 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape{2, 2});
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillAndIndexing) {
  Tensor t(Shape{2, 3});
  t.Fill(1.5f);
  EXPECT_EQ(t.At2(1, 2), 1.5f);
  t.At2(0, 1) = 7.0f;
  EXPECT_EQ(t[1], 7.0f);
}

TEST(TensorTest, At3RowMajorLayout) {
  Tensor t(Shape{2, 3, 4});
  t.At3(1, 2, 3) = 9.0f;
  EXPECT_EQ(t[(1 * 3 + 2) * 4 + 3], 9.0f);
}

TEST(TensorTest, At4RowMajorLayout) {
  Tensor t(Shape{2, 3, 4, 5});
  t.At4(1, 2, 3, 4) = 8.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 8.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t(Shape{2, 6});
  for (int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.Reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(TensorDeathTest, ReshapeSizeMismatchAborts) {
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t.Reshaped(Shape{3, 2}), "reshape");
}

TEST(TensorDeathTest, DataSizeMismatchAborts) {
  EXPECT_DEATH(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), "data size");
}

TEST(OpsTest, AddSubMul) {
  Tensor a(Shape{3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  Tensor b(Shape{3}, std::vector<float>{4.0f, 5.0f, 6.0f});
  Tensor sum = Add(a, b);
  Tensor diff = Sub(b, a);
  Tensor prod = Mul(a, b);
  EXPECT_EQ(sum[0], 5.0f);
  EXPECT_EQ(sum[2], 9.0f);
  EXPECT_EQ(diff[1], 3.0f);
  EXPECT_EQ(prod[2], 18.0f);
}

TEST(OpsTest, ScaleAndAxpy) {
  Tensor a(Shape{2}, std::vector<float>{1.0f, -2.0f});
  Tensor s = Scale(a, 3.0f);
  EXPECT_EQ(s[0], 3.0f);
  EXPECT_EQ(s[1], -6.0f);
  Tensor b(Shape{2}, std::vector<float>{10.0f, 10.0f});
  AxpyInPlace(&b, a, 2.0f);
  EXPECT_EQ(b[0], 12.0f);
  EXPECT_EQ(b[1], 6.0f);
}

TEST(OpsTest, SumAndMean) {
  Tensor a(Shape{4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(Sum(a), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Mean(Tensor()), 0.0);
}

TEST(OpsTest, MatmulKnownValues) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.At2(0, 0), 58.0f);
  EXPECT_EQ(c.At2(0, 1), 64.0f);
  EXPECT_EQ(c.At2(1, 0), 139.0f);
  EXPECT_EQ(c.At2(1, 1), 154.0f);
}

TEST(OpsTest, Transpose2D) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.At2(0, 1), 4.0f);
  EXPECT_EQ(t.At2(2, 0), 3.0f);
}

// Property sweep: all matmul variants give the naive reference's exact
// bits. The shapes put m on every residue mod the 4-row tile, n below, at
// and past the 8- and 16-column panels, k = 1, and the model shapes
// (conv GEMMs of the count classifier and the VAE encoder).
class MatmulProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulProperty, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  Tensor a = RandomTensor(Shape{m, k}, &rng);
  Tensor b = RandomTensor(Shape{k, n}, &rng);
  Tensor expect = NaiveMatmul(a, b);
  ExpectBitIdentical(Matmul(a, b), expect);
  ExpectBitIdentical(MatmulTransposedB(a, Transpose2D(b)), expect);
  ExpectBitIdentical(MatmulTransposedA(Transpose2D(a), b), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperty,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 7}, std::tuple{8, 8, 8},
                      std::tuple{3, 17, 5}, std::tuple{16, 9, 16},
                      std::tuple{4, 1, 9}, std::tuple{6, 5, 15},
                      std::tuple{7, 1, 17}, std::tuple{9, 4, 33},
                      std::tuple{12, 27, 256}, std::tuple{24, 108, 64},
                      std::tuple{24, 216, 64}, std::tuple{4, 27, 256},
                      std::tuple{8, 36, 64}, std::tuple{8, 72, 16}));

using GemmRowsFn = void (*)(const internal::GemmOperands&, int64_t, int64_t);

// Runs one kernel instance over every operand layout the entry points use
// (B row-major, B transposed, A transposed), on a grid of tile-edge shapes
// plus the model shapes, and in two row ranges split off the tile grid;
// each result must be the naive loop's exact bits.
void CheckKernelAgainstNaive(GemmRowsFn rows) {
  std::vector<std::tuple<int, int, int>> shapes;
  for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    for (int n : {1, 4, 7, 8, 9, 15, 16, 17, 31, 33}) {
      for (int k : {1, 2, 7}) shapes.emplace_back(m, k, n);
    }
  }
  for (auto shape : {std::tuple{12, 27, 256}, std::tuple{24, 108, 64},
                     std::tuple{24, 216, 64}, std::tuple{4, 27, 256},
                     std::tuple{8, 36, 64}, std::tuple{8, 72, 16}}) {
    shapes.push_back(shape);
  }
  for (auto [m, k, n] : shapes) {
    SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
    Rng rng(m * 7919 + k * 131 + n);
    Tensor a = RandomTensor(Shape{m, k}, &rng);
    Tensor b = RandomTensor(Shape{k, n}, &rng);
    Tensor at = Transpose2D(a);
    Tensor bt = Transpose2D(b);
    Tensor expect = NaiveMatmul(a, b);
    const internal::GemmOperands layouts[] = {
        {a.data(), k, 1, b.data(), n, 1, nullptr, m, k, n},
        {a.data(), k, 1, bt.data(), 1, k, nullptr, m, k, n},
        {at.data(), 1, m, b.data(), n, 1, nullptr, m, k, n},
    };
    for (internal::GemmOperands g : layouts) {
      Tensor whole(Shape{m, n});
      g.c = whole.data();
      rows(g, 0, m);
      ExpectBitIdentical(whole, expect);
      Tensor split(Shape{m, n});
      g.c = split.data();
      rows(g, 0, m / 3);
      rows(g, m / 3, m);
      ExpectBitIdentical(split, expect);
    }
  }
}

TEST(GemmKernelTest, Width4IsBitIdenticalToNaiveLoop) {
  CheckKernelAgainstNaive(&internal::GemmRowsWidth4);
}

TEST(GemmKernelTest, Width8IsBitIdenticalToNaiveLoop) {
  if (!internal::CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  CheckKernelAgainstNaive(&internal::GemmRowsWidth8);
}

TEST(Im2ColTest, OutDimFormula) {
  EXPECT_EQ(ConvOutDim(32, 3, 2, 1), 16);
  EXPECT_EQ(ConvOutDim(32, 3, 1, 1), 32);
  EXPECT_EQ(ConvOutDim(5, 3, 1, 0), 3);
}

// No im2col or col2im matrix is built any more, but the convolution
// kernels read and write through them implicitly. With the identity as
// weight over the C * k * k taps, Conv2dForward's output is the im2col
// matrix of its input (each output channel picks one tap; the other taps
// add exact zeros), and Conv2dBackward's dX is the col2im of dY. The
// tests below pin those semantics through the two ops.
Tensor IdentityTapWeight(int64_t taps) {
  Tensor w(Shape{taps, taps});
  for (int64_t i = 0; i < taps; ++i) w.At2(i, i) = 1.0f;
  return w;
}

// The [C * k * k, out_h * out_w] im2col matrix of a [C, H, W] image.
Tensor Im2Col(const Tensor& img, int k, int stride, int pad) {
  const int64_t channels = img.shape().dim(0);
  const int64_t taps = channels * k * k;
  Tensor x =
      img.Reshaped(Shape{1, channels, img.shape().dim(1), img.shape().dim(2)});
  Tensor y =
      Conv2dForward(x, IdentityTapWeight(taps), Tensor(Shape{taps}), k,
                    stride, pad);
  return y.Reshaped(Shape{taps, y.shape().dim(2) * y.shape().dim(3)});
}

// Scatters (accumulates) the columns of a [C * k * k, out_h * out_w]
// matrix back into a [C, height, width] image.
Tensor Col2Im(const Tensor& cols, int channels, int height, int width, int k,
              int stride, int pad) {
  const int64_t taps = static_cast<int64_t>(channels) * k * k;
  Tensor w = IdentityTapWeight(taps);
  Tensor dw(w.shape());
  Tensor dy = cols.Reshaped(Shape{1, taps, ConvOutDim(height, k, stride, pad),
                                  ConvOutDim(width, k, stride, pad)});
  Tensor dx = Conv2dBackward(Tensor(Shape{1, channels, height, width}), w, dy,
                             k, stride, pad, &dw);
  return dx.Reshaped(Shape{channels, height, width});
}

TEST(Im2ColTest, IdentityKernelReproducesInput) {
  // 1x1 kernel, stride 1, no padding: im2col is the flattened image.
  Rng rng(42);
  Tensor img = RandomTensor(Shape{2, 4, 4}, &rng);
  Tensor cols = Im2Col(img, 1, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{2, 16}));
  for (int64_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2ColTest, PatchContents) {
  // 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
  Tensor img(Shape{1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = Im2Col(img, 2, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  // First patch (top-left) down the first column: 1, 2, 4, 5.
  EXPECT_EQ(cols.At2(0, 0), 1.0f);
  EXPECT_EQ(cols.At2(1, 0), 2.0f);
  EXPECT_EQ(cols.At2(2, 0), 4.0f);
  EXPECT_EQ(cols.At2(3, 0), 5.0f);
  // Last patch (bottom-right): 5, 6, 8, 9.
  EXPECT_EQ(cols.At2(0, 3), 5.0f);
  EXPECT_EQ(cols.At2(3, 3), 9.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor img(Shape{1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor cols = Im2Col(img, 3, 1, 1);
  // Top-left patch's first row is entirely padding.
  EXPECT_EQ(cols.At2(0, 0), 0.0f);
  EXPECT_EQ(cols.At2(1, 0), 0.0f);
  EXPECT_EQ(cols.At2(2, 0), 0.0f);
  // Center of top-left patch is the (0,0) pixel.
  EXPECT_EQ(cols.At2(4, 0), 1.0f);
}

// The im2col matrix by its definition, bounds-checked cell by cell.
Tensor NaiveIm2Col(const Tensor& img, int k, int stride, int pad, int out_h,
                   int out_w) {
  int64_t channels = img.shape().dim(0);
  int64_t height = img.shape().dim(1);
  int64_t width = img.shape().dim(2);
  Tensor out(Shape{channels * k * k, static_cast<int64_t>(out_h) * out_w});
  for (int64_t c = 0; c < channels; ++c) {
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        int64_t row = (c * k + ky) * k + kx;
        for (int oy = 0; oy < out_h; ++oy) {
          for (int ox = 0; ox < out_w; ++ox) {
            int64_t iy = oy * stride + ky - pad;
            int64_t ix = ox * stride + kx - pad;
            bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
            out.At2(row, oy * out_w + ox) = inside ? img.At3(c, iy, ix) : 0.0f;
          }
        }
      }
    }
  }
  return out;
}

// Grid over kernel x stride x pad on non-square images. With pad >= 1 and
// a kernel smaller than pad + 1, whole output rows fall in the padding. A
// kernel larger than the padded image is outside the ops' contract.
TEST(Im2ColTest, MatchesNaiveReferenceOverGrid) {
  Rng rng(44);
  for (auto [h, w] : {std::pair{7, 5}, std::pair{4, 9}}) {
    Tensor img = RandomTensor(Shape{2, h, w}, &rng);
    for (int k : {1, 3, 5}) {
      for (int stride : {1, 2, 3}) {
        for (int pad : {0, 1, 2}) {
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          int out_h = ConvOutDim(h, k, stride, pad);
          int out_w = ConvOutDim(w, k, stride, pad);
          SCOPED_TRACE(testing::Message() << h << "x" << w << " k=" << k
                                          << " stride=" << stride
                                          << " pad=" << pad);
          ExpectBitIdentical(Im2Col(img, k, stride, pad),
                             NaiveIm2Col(img, k, stride, pad, out_h, out_w));
        }
      }
    }
  }
}

// Property: col2im(im2col(x)) multiplies each pixel by the number of patches
// covering it. With stride == kernel (non-overlapping), that count is 1.
TEST(Im2ColTest, Col2ImRoundTripNonOverlapping) {
  Rng rng(43);
  Tensor img = RandomTensor(Shape{3, 8, 8}, &rng);
  Tensor back = Col2Im(Im2Col(img, 2, 2, 0), 3, 8, 8, 2, 2, 0);
  ExpectBitIdentical(back, img);
}

TEST(Im2ColTest, Col2ImAccumulatesOverlaps) {
  Tensor img(Shape{1, 3, 3}, 1.0f);
  // 2x2 kernel, stride 1: center pixel is covered by 4 patches.
  Tensor back = Col2Im(Im2Col(img, 2, 1, 0), 1, 3, 3, 2, 1, 0);
  EXPECT_EQ(back.At3(0, 1, 1), 4.0f);
  EXPECT_EQ(back.At3(0, 0, 0), 1.0f);
  EXPECT_EQ(back.At3(0, 0, 1), 2.0f);
}

// The naive convolution loop, the oracle the implicit-GEMM kernel must
// match bit for bit: each output sums its taps' products in ascending
// (c, ky, kx) from +0, padding taps reading 0, then adds the bias once.
Tensor NaiveConv(const Tensor& x, const Tensor& w, const Tensor& b, int k,
                 int stride, int pad) {
  int64_t n = x.shape().dim(0);
  int64_t channels = x.shape().dim(1);
  int height = static_cast<int>(x.shape().dim(2));
  int width = static_cast<int>(x.shape().dim(3));
  int64_t m = w.shape().dim(0);
  int out_h = ConvOutDim(height, k, stride, pad);
  int out_w = ConvOutDim(width, k, stride, pad);
  Tensor out(Shape{n, m, out_h, out_w});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t o = 0; o < m; ++o) {
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          float acc = 0.0f;
          for (int64_t c = 0; c < channels; ++c) {
            for (int ky = 0; ky < k; ++ky) {
              for (int kx = 0; kx < k; ++kx) {
                int iy = oy * stride + ky - pad;
                int ix = ox * stride + kx - pad;
                bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
                float v = inside ? x.At4(s, c, iy, ix) : 0.0f;
                volatile float product = w.At2(o, (c * k + ky) * k + kx) * v;
                acc += product;
              }
            }
          }
          out.At4(s, o, oy, ox) = acc + b[o];
        }
      }
    }
  }
  return out;
}

using conv_reference::ConvCase;
using conv_reference::RandomValues;

// Kernel sizes 1, 2, 3, 5 x strides 1-3 x pads 0-2 on three image sizes,
// with N from 1 to 3 and output-channel counts off the 4-row tile cycled
// through the grid. out_w runs from 1 (below both vector widths) to 23.
// Then the model shapes, and a stride-1 case with out_w = 9: its last
// pixel run holds one real lane at both widths, so the last tap's vector
// load ends exactly at the padded input's last slack float.
std::vector<ConvCase> ConvGrid() {
  std::vector<ConvCase> cases;
  const int out_channels[] = {1, 3, 5, 6, 9, 4};
  int i = 0;
  for (int k : {1, 2, 3, 5}) {
    for (int stride : {1, 2, 3}) {
      for (int pad : {0, 1, 2}) {
        for (auto [h, w] : {std::pair{5, 3}, std::pair{7, 13},
                            std::pair{4, 21}}) {
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          cases.push_back({1 + i % 3, 1 + i % 2, h, w, out_channels[i % 6], k,
                           stride, pad});
          ++i;
        }
      }
    }
  }
  cases.push_back({1, 3, 32, 32, 8, 3, 2, 1});
  cases.push_back({2, 8, 16, 16, 16, 3, 2, 1});
  cases.push_back({1, 16, 8, 8, 16, 3, 2, 1});
  cases.push_back({1, 16, 8, 8, 16, 3, 1, 1});
  cases.push_back({1, 2, 4, 9, 3, 3, 1, 1});
  return cases;
}

using ConvRowsFn = void (*)(const internal::ConvOperands&, int64_t, int64_t);

// One kernel instance, sample by sample, with each sample's output
// channels computed in two calls split off the 4-row tile grid.
void CheckConvKernelAgainstNaive(ConvRowsFn rows, int vector_width) {
  for (const ConvCase& c : ConvGrid()) {
    for (bool specials : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << c.n << " c=" << c.channels << " " << c.height
                   << "x" << c.width << " out_c=" << c.out_channels
                   << " k=" << c.kernel << " stride=" << c.stride
                   << " pad=" << c.pad << " specials=" << specials);
      Rng rng(c.height * 7919 + c.width * 131 + c.kernel * 17 + c.stride);
      Tensor x = RandomValues(Shape{c.n, c.channels, c.height, c.width},
                              specials, 11, 0, &rng);
      int64_t k = static_cast<int64_t>(c.channels) * c.kernel * c.kernel;
      Tensor w = RandomTensor(Shape{c.out_channels, k}, &rng);
      Tensor b = RandomTensor(Shape{c.out_channels}, &rng);
      int out_h = ConvOutDim(c.height, c.kernel, c.stride, c.pad);
      int out_w = ConvOutDim(c.width, c.kernel, c.stride, c.pad);
      int64_t plane = static_cast<int64_t>(out_h) * out_w;
      Tensor out(Shape{c.n, c.out_channels, out_h, out_w});
      for (int64_t s = 0; s < c.n; ++s) {
        internal::ConvInput input = internal::MakeConvInput(
            x.data() + s * c.channels * c.height * c.width, c.channels,
            c.height, c.width, c.kernel, c.stride, c.pad, vector_width);
        internal::ConvOperands g{&input,
                                 w.data(),
                                 b.data(),
                                 out.data() + s * c.out_channels * plane,
                                 c.out_channels,
                                 k,
                                 out_h,
                                 out_w};
        rows(g, 0, c.out_channels / 3);
        rows(g, c.out_channels / 3, c.out_channels);
      }
      ExpectBitIdentical(out,
                         NaiveConv(x, w, b, c.kernel, c.stride, c.pad));
    }
  }
}

TEST(ConvKernelTest, Width4IsBitIdenticalToNaiveLoop) {
  CheckConvKernelAgainstNaive(&internal::ConvRowsWidth4, 4);
}

TEST(ConvKernelTest, Width8IsBitIdenticalToNaiveLoop) {
  if (!internal::CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  CheckConvKernelAgainstNaive(&internal::ConvRowsWidth8, 8);
}

// The public op over the same grid: its width choice, the parallel
// sample and channel split, and the batch layout.
TEST(ConvKernelTest, Conv2dForwardIsBitIdenticalToNaiveLoop) {
  for (const ConvCase& c : ConvGrid()) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << c.n << " " << c.height << "x" << c.width
                 << " out_c=" << c.out_channels << " k=" << c.kernel
                 << " stride=" << c.stride << " pad=" << c.pad);
    Rng rng(c.height * 31 + c.width * 7 + c.kernel * 3 + c.pad);
    Tensor x = RandomValues(Shape{c.n, c.channels, c.height, c.width},
                            /*specials=*/true, 11, 0, &rng);
    Tensor w = RandomTensor(
        Shape{c.out_channels,
              static_cast<int64_t>(c.channels) * c.kernel * c.kernel},
        &rng);
    Tensor b = RandomTensor(Shape{c.out_channels}, &rng);
    ExpectBitIdentical(Conv2dForward(x, w, b, c.kernel, c.stride, c.pad),
                       NaiveConv(x, w, b, c.kernel, c.stride, c.pad));
  }
}

// Backward kernels over conv_reference's grid, sample by sample: dW with
// each sample's taps computed in two calls split off the 4-tap tile grid
// and folded in ascending sample order, dX with each sample's channels in
// two calls. Each case runs with finite operands, then with NaN, +-Inf, -0
// and denormals planted in x, in dY and in W in turn; the W case also puts
// an Inf weight on a tap that reads only padding, where it must not reach
// dX. Each sample's dY is copied to a buffer of its exact size, so a load
// past it shows under ASan.
void CheckConvBackwardKernelsAgainstNaive(
    void (*weight_rows)(const internal::ConvWeightGradOperands&, int64_t,
                        int64_t),
    void (*input_channels)(const internal::ConvInputGradOperands&, int64_t,
                           int64_t),
    int vector_width) {
  for (const ConvCase& c : conv_reference::ConvBackwardGrid()) {
    for (int specials = 0; specials < 4; ++specials) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << c.n << " c=" << c.channels << " " << c.height
                   << "x" << c.width << " out_c=" << c.out_channels
                   << " k=" << c.kernel << " stride=" << c.stride
                   << " pad=" << c.pad << " specials=" << specials);
      Rng rng(c.height * 7919 + c.width * 131 + c.kernel * 17 + c.stride +
              specials);
      const int64_t k = c.taps();
      const int64_t plane = static_cast<int64_t>(c.out_h()) * c.out_w();
      Tensor w = RandomValues(Shape{c.out_channels, k}, specials == 3, 7, 2,
                              &rng);
      const int64_t padding_tap = conv_reference::PaddingOnlyTap(c);
      if (specials == 3 && padding_tap >= 0) {
        w.At2(0, padding_tap) = std::numeric_limits<float>::infinity();
      }
      Tensor x = RandomValues(Shape{c.n, c.channels, c.height, c.width},
                              specials == 1, 11, 0, &rng);
      Tensor dy = RandomValues(Shape{c.n, c.out_channels, c.out_h(), c.out_w()},
                               specials == 2, 13, 5, &rng);
      Tensor weight_grad =
          RandomValues(Shape{c.out_channels, k}, false, 1, 0, &rng);
      Tensor want_weight_grad = weight_grad;
      // The kernel writes every dX element; a sentinel shows any it skips.
      Tensor dx(x.shape(), 7.0f);
      for (int64_t s = 0; s < c.n; ++s) {
        const float* dy_s = dy.data() + s * c.out_channels * plane;
        const std::vector<float> dy_exact(dy_s, dy_s + c.out_channels * plane);
        internal::ConvInput input = internal::MakeConvInput(
            x.data() + s * c.channels * c.height * c.width, c.channels,
            c.height, c.width, c.kernel, c.stride, c.pad, vector_width);
        internal::ConvGradRows rows = internal::MakeConvGradRows(
            dy_exact.data(), c.out_channels, plane, vector_width);
        Tensor dw(Shape{c.out_channels, k});
        internal::ConvWeightGradOperands wg{
            &input, &rows, dw.data(), c.out_channels, k, c.out_h(), c.out_w()};
        weight_rows(wg, 0, k / 3);
        weight_rows(wg, k / 3, k);
        for (int64_t i = 0; i < dw.size(); ++i) weight_grad[i] += dw[i];
        internal::ConvGradPlanes planes = internal::MakeConvGradPlanes(
            dy_exact.data(), c.out_channels, c.out_h(), c.out_w(), c.width,
            c.kernel, c.stride, c.pad, vector_width);
        internal::ConvInputGradOperands xg{
            w.data(),
            &planes,
            dx.data() + s * c.channels * c.height * c.width,
            c.out_channels,
            k,
            c.kernel,
            c.stride,
            c.pad,
            c.height,
            c.width,
            c.out_h(),
            c.out_w()};
        input_channels(xg, 0, c.channels / 2);
        input_channels(xg, c.channels / 2, c.channels);
      }
      conv_reference::NaiveWeightGrad(c, x, dy, &want_weight_grad);
      ExpectBitIdentical(weight_grad, want_weight_grad);
      ExpectBitIdentical(dx, conv_reference::NaiveInputGrad(c, w, dy));
    }
  }
}

TEST(ConvKernelTest, BackwardWidth4IsBitIdenticalToNaiveLoops) {
  CheckConvBackwardKernelsAgainstNaive(&internal::ConvWeightGradRowsWidth4,
                                       &internal::ConvInputGradChannelsWidth4,
                                       4);
}

TEST(ConvKernelTest, BackwardWidth8IsBitIdenticalToNaiveLoops) {
  if (!internal::CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  CheckConvBackwardKernelsAgainstNaive(&internal::ConvWeightGradRowsWidth8,
                                       &internal::ConvInputGradChannelsWidth8,
                                       8);
}

// The public op over the same grid, with special values in every operand
// at once: its width choices, the parallel sample, tap and channel
// splits, the batch layout and the fold into a gradient that already
// holds values.
TEST(ConvKernelTest, Conv2dBackwardIsBitIdenticalToNaiveLoops) {
  for (const ConvCase& c : conv_reference::ConvBackwardGrid()) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << c.n << " c=" << c.channels << " " << c.height
                 << "x" << c.width << " out_c=" << c.out_channels
                 << " k=" << c.kernel << " stride=" << c.stride
                 << " pad=" << c.pad);
    Rng rng(c.height * 31 + c.width * 7 + c.kernel * 3 + c.pad);
    Tensor w = RandomValues(Shape{c.out_channels, c.taps()}, true, 17, 3,
                            &rng);
    Tensor x = RandomValues(Shape{c.n, c.channels, c.height, c.width}, true,
                            23, 1, &rng);
    Tensor dy = RandomValues(Shape{c.n, c.out_channels, c.out_h(), c.out_w()},
                             true, 29, 4, &rng);
    Tensor weight_grad = RandomValues(w.shape(), false, 1, 0, &rng);
    Tensor want_weight_grad = weight_grad;
    Tensor dx = Conv2dBackward(x, w, dy, c.kernel, c.stride, c.pad,
                               &weight_grad);
    conv_reference::NaiveWeightGrad(c, x, dy, &want_weight_grad);
    ExpectBitIdentical(weight_grad, want_weight_grad);
    ExpectBitIdentical(dx, conv_reference::NaiveInputGrad(c, w, dy));
  }
}

// The backward op attributes the work of the im2col + two GEMMs + col2im
// path it replaced, so per-frame FLOP totals stay comparable across the
// change: 2 * out_c * patch * plane for each product, plus one accumulate
// per tap and output pixel.
TEST(ConvKernelTest, Conv2dBackwardAttributesFlops) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t calls =
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.calls").value();
  int64_t flops =
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.flops").value();
  Rng rng(78);
  Tensor x = RandomTensor(Shape{2, 2, 4, 4}, &rng);
  Tensor w = RandomTensor(Shape{3, 8}, &rng);
  Tensor dy = RandomTensor(Shape{2, 3, 2, 2}, &rng);
  Tensor dw(w.shape());
  Conv2dBackward(x, w, dy, 2, 2, 0, &dw);
  EXPECT_EQ(
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.calls").value(),
      calls + 1);
  // Per sample: 2 * (2 * 3 * 8 * 4) + 8 * 4 = 416; N = 2.
  EXPECT_EQ(
      global.GetCounter("vdrift.ops.tensor.conv2d_backward.flops").value(),
      flops + 2 * 416);
}

// The kernel probes attribute work even with profiling off: counters are
// process-wide, so these assert deltas against hand-computed formulas.
TEST(OpsTest, MatmulAttributesFlopsAndBytes) {
  obs::MetricsRegistry& global = obs::Global();
  int64_t calls = global.GetCounter("vdrift.ops.tensor.matmul.calls").value();
  int64_t flops = global.GetCounter("vdrift.ops.tensor.matmul.flops").value();
  int64_t bytes = global.GetCounter("vdrift.ops.tensor.matmul.bytes").value();
  Rng rng(77);
  Tensor a = RandomTensor(Shape{3, 4}, &rng);
  Tensor b = RandomTensor(Shape{4, 5}, &rng);
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 5}));
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.calls").value(),
            calls + 1);
  // 2mkn multiply-adds: 2 * 3 * 4 * 5.
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.flops").value(),
            flops + 120);
  // Three operand matrices once through memory: 4 * (12 + 20 + 15).
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.bytes").value(),
            bytes + 188);
}

// The GEMM kernels must do (and attribute) the full 2mkn FLOPs whatever
// the data holds: a zero-padded A used to take a data-dependent skip
// while VDRIFT_OP_PROBE still charged the full product, making FLOP
// attribution wrong and benchmark numbers input-dependent.
TEST(OpsTest, ZeroPaddedInputAttributesFullFlops) {
  obs::MetricsRegistry& global = obs::Global();
  Rng rng(79);
  // A is all zeros except one row; B is dense.
  Tensor a(Shape{6, 8});
  for (int64_t j = 0; j < 8; ++j) a.At2(2, j) = 1.0f;
  Tensor b = RandomTensor(Shape{8, 5}, &rng);
  int64_t flops =
      global.GetCounter("vdrift.ops.tensor.matmul.flops").value();
  Tensor c = Matmul(a, b);
  EXPECT_EQ(global.GetCounter("vdrift.ops.tensor.matmul.flops").value(),
            flops + 2 * 6 * 8 * 5);
  // Zero rows of A produce exactly-zero rows of C (no skip needed for
  // numerical equivalence: 0 + 0 * x == 0 for finite x).
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(c.At2(0, j), 0.0f);
    EXPECT_NE(c.At2(2, j), 0.0f);
  }
  int64_t ta_flops =
      global.GetCounter("vdrift.ops.tensor.matmul_transposed_a.flops")
          .value();
  Tensor at(Shape{8, 6});  // A^T, same zero pattern
  for (int64_t k = 0; k < 8; ++k) at.At2(k, 2) = 1.0f;
  Tensor c2 = MatmulTransposedA(at, b);
  EXPECT_EQ(
      global.GetCounter("vdrift.ops.tensor.matmul_transposed_a.flops")
          .value(),
      ta_flops + 2 * 6 * 8 * 5);
  ExpectTensorsNear(c2, c, 0.0f);
}

}  // namespace
}  // namespace vdrift::tensor
