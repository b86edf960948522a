#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "obs/trace_log.h"
#include "runtime/parallel.h"
#include "tensor/gemm.h"

namespace vdrift::tensor {

namespace internal {
namespace {

// One register-tiled GEMM kernel, instantiated once per vector width.
// A tile is kGemmTileRows rows of C by kVecs vectors of W columns; its
// accumulators start at +0 and take `acc = acc + b * a` once per k in
// ascending order -- a rounded multiply, then a rounded add, never an
// FMA (the build passes -ffp-contract=off and no target enables fma).
// That is exactly the naive loop's arithmetic, element for element, so
// the result does not depend on the tile shape, the width, or how rows
// are split across threads.

#define VDRIFT_GEMM_INLINE inline __attribute__((always_inline))
// Fully unrolls a loop with a compile-time trip count, so a tile's
// accumulators live in registers.
#if defined(__clang__)
#define VDRIFT_GEMM_UNROLL _Pragma("unroll")
#else
#define VDRIFT_GEMM_UNROLL _Pragma("GCC unroll 8")
#endif

template <int W>
struct VecOf;
template <>
struct VecOf<2> {
  typedef float type __attribute__((vector_size(8)));
};
template <>
struct VecOf<4> {
  typedef float type __attribute__((vector_size(16)));
};
template <>
struct VecOf<8> {
  typedef float type __attribute__((vector_size(32)));
};

// Lane indices 0, 1, ..., W - 1, for masks that compare against them.
template <int W>
struct LaneIndex;
template <>
struct LaneIndex<4> {
  typedef int32_t type __attribute__((vector_size(16)));
  static constexpr type value = {0, 1, 2, 3};
};
template <>
struct LaneIndex<8> {
  typedef int32_t type __attribute__((vector_size(32)));
  static constexpr type value = {0, 1, 2, 3, 4, 5, 6, 7};
};

// Copies columns [j0, j0 + cols) of B into `out` as a k x width row-major
// panel; lanes past `cols` are zero so they never hold denormals or NaNs.
void PackPanel(const GemmOperands& g, int64_t j0, int64_t cols,
               int64_t width, float* out) {
  if (cols < width) std::fill(out, out + g.k * width, 0.0f);
  if (g.b_col == 1) {
    for (int64_t kk = 0; kk < g.k; ++kk) {
      std::memcpy(out + kk * width, g.b + kk * g.b_k + j0,
                  sizeof(float) * static_cast<size_t>(cols));
    }
    return;
  }
  // Transposed B: walk each source column along k (contiguous for
  // MatmulTransposedB) and scatter it into its panel lane.
  for (int64_t jj = 0; jj < cols; ++jj) {
    const float* src = g.b + (j0 + jj) * g.b_col;
    for (int64_t kk = 0; kk < g.k; ++kk) {
      out[kk * width + jj] = src[kk * g.b_k];
    }
  }
}

// The columns [j0, j0 + cols) of B one tile row reads: B(kk, jj) at
// b[kk * b_k + jj * b_col]. With b_col == 1 a tile loads whole vectors
// (lanes past `cols` must be readable; they are dropped); otherwise it
// gathers lane by lane.
struct Panel {
  const float* b;
  int64_t b_k;
  int64_t b_col;
  int64_t cols;
};

// C[kRows, cols] tile: A rows start at `a`, C at `c` (row stride ldc).
template <int W, int kRows, int kVecs, bool kGather>
VDRIFT_GEMM_INLINE void GemmTile(const float* a, int64_t a_row, int64_t a_k,
                                 const Panel& p, int64_t k, float* c,
                                 int64_t ldc) {
  using V = typename VecOf<W>::type;
  // Gathered lanes past `cols` repeat the last column, so they read real
  // data, never past the operand.
  int64_t lane[kVecs][W] = {};
  if constexpr (kGather) {
    for (int64_t v = 0; v < kVecs; ++v) {
      for (int64_t l = 0; l < W; ++l) {
        lane[v][l] = std::min(v * W + l, p.cols - 1) * p.b_col;
      }
    }
  }
  V acc[kRows][kVecs] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = p.b + kk * p.b_k;
    V bv[kVecs] = {};
    VDRIFT_GEMM_UNROLL
    for (int64_t v = 0; v < kVecs; ++v) {
      if constexpr (kGather) {
        [&]<size_t... L>(std::index_sequence<L...>) {
          bv[v] = V{brow[lane[v][L]]...};
        }(std::make_index_sequence<W>());
      } else {
        std::memcpy(&bv[v], brow + v * W, sizeof(V));
      }
    }
    VDRIFT_GEMM_UNROLL
    for (int64_t r = 0; r < kRows; ++r) {
      float ar = a[r * a_row + kk * a_k];
      VDRIFT_GEMM_UNROLL
      for (int64_t v = 0; v < kVecs; ++v) {
        acc[r][v] = acc[r][v] + bv[v] * ar;
      }
    }
  }
  VDRIFT_GEMM_UNROLL
  for (int64_t r = 0; r < kRows; ++r) {
    if (p.cols == kVecs * W) {
      std::memcpy(c + r * ldc, acc[r], sizeof(acc[r]));
    } else {
      std::memcpy(c + r * ldc, acc[r],
                  sizeof(float) * static_cast<size_t>(p.cols));
    }
  }
}

template <int W, int kVecs, bool kGather>
VDRIFT_GEMM_INLINE void GemmPanelRows(const GemmOperands& g, const Panel& p,
                                      int64_t j0, int64_t row_begin,
                                      int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += kGemmTileRows) {
    const float* a = g.a + i * g.a_row;
    float* c = g.c + i * g.n + j0;
    switch (std::min(kGemmTileRows, row_end - i)) {
      case 4:
        GemmTile<W, 4, kVecs, kGather>(a, g.a_row, g.a_k, p, g.k, c, g.n);
        break;
      case 3:
        GemmTile<W, 3, kVecs, kGather>(a, g.a_row, g.a_k, p, g.k, c, g.n);
        break;
      case 2:
        GemmTile<W, 2, kVecs, kGather>(a, g.a_row, g.a_k, p, g.k, c, g.n);
        break;
      default:
        GemmTile<W, 1, kVecs, kGather>(a, g.a_row, g.a_k, p, g.k, c, g.n);
        break;
    }
  }
}

template <int W, bool kGather>
VDRIFT_GEMM_INLINE void GemmPanel(const GemmOperands& g, const Panel& p,
                                  int64_t j0, int64_t row_begin,
                                  int64_t row_end) {
  if (p.cols > W) {
    GemmPanelRows<W, 2, kGather>(g, p, j0, row_begin, row_end);
  } else {
    GemmPanelRows<W, 1, kGather>(g, p, j0, row_begin, row_end);
  }
}

// Rows [row_begin, row_end) of C, one 2W-column panel of B at a time. A
// full panel of row-major B is read in place. A transposed B or a ragged
// last panel is packed into a scratch panel when more than one row tile
// will reuse it; a single tile gathers its lanes straight from B, so
// a GEMV-shaped call (one frame through a Linear) never pays a transpose.
template <int W>
VDRIFT_GEMM_INLINE void GemmRows(const GemmOperands& g, int64_t row_begin,
                                 int64_t row_end) {
  constexpr int64_t kPanel = 2 * W;
  // Scoped to the call: a buffer kept per thread would pin the top of a
  // worker's heap arena and keep the memory of training's transient
  // tensors from being returned to the system.
  std::vector<float> panel;
  for (int64_t j0 = 0; j0 < g.n; j0 += kPanel) {
    Panel p{g.b + j0 * g.b_col, g.b_k, g.b_col, std::min(kPanel, g.n - j0)};
    if (p.b_col == 1 && p.cols == kPanel) {
      GemmPanel<W, false>(g, p, j0, row_begin, row_end);
    } else if (row_end - row_begin <= kGemmTileRows) {
      GemmPanel<W, true>(g, p, j0, row_begin, row_end);
    } else {
      int64_t width = p.cols > W ? kPanel : W;
      if (panel.size() < static_cast<size_t>(g.k * width)) {
        panel.resize(static_cast<size_t>(g.k * width));
      }
      PackPanel(g, j0, p.cols, width, panel.data());
      GemmPanel<W, false>(g, {panel.data(), width, 1, p.cols}, j0,
                          row_begin, row_end);
    }
  }
}

// One vector of output pixels: W consecutive pixels of one output row,
// or, for rows at most W / 2 wide, one row in each half of the vector.
// Part h reads the input from offset src[h] of every tap, lands at offset
// dst[h] of every output channel, and holds cols[h] real pixels.
struct ConvRun {
  int64_t src[2];
  int64_t dst[2];
  int64_t cols[2];
};

// Stores the first `cols` lanes of `v`; a whole vector (the common case)
// with a fixed-size copy.
template <typename V>
VDRIFT_GEMM_INLINE void StoreLanes(float* dst, const V& v, int64_t cols) {
  if (cols * static_cast<int64_t>(sizeof(float)) == sizeof(V)) {
    std::memcpy(dst, &v, sizeof(V));
  } else {
    std::memcpy(dst, &v, sizeof(float) * static_cast<size_t>(cols));
  }
}

// Output channels [i, i + kRows) of kVecs pixel vectors: GemmTile with
// the B panel loaded straight from the padded input, one tap per k.
template <int W, int kRows, int kVecs, bool kPacked>
VDRIFT_GEMM_INLINE void ConvTile(const ConvOperands& g, int64_t i,
                                 const ConvRun* run) {
  using V = typename VecOf<W>::type;
  using Half = typename VecOf<W / 2>::type;
  constexpr auto kLow = std::make_index_sequence<W / 2>();
  constexpr auto kAll = std::make_index_sequence<W>();
  const float* pixels = g.input->pixels.data();
  const int64_t* tap = g.input->tap.data();
  const float* a = g.weight + i * g.k;
  V acc[kRows][kVecs] = {};
  for (int64_t kk = 0; kk < g.k; ++kk) {
    const float* b = pixels + tap[kk];
    V bv[kVecs];
    VDRIFT_GEMM_UNROLL
    for (int64_t v = 0; v < kVecs; ++v) {
      if constexpr (kPacked) {
        Half low;
        Half high;
        std::memcpy(&low, b + run[v].src[0], sizeof(Half));
        std::memcpy(&high, b + run[v].src[1], sizeof(Half));
        [&]<size_t... L>(std::index_sequence<L...>) {
          bv[v] = __builtin_shufflevector(low, high, L...);
        }(kAll);
      } else {
        std::memcpy(&bv[v], b + run[v].src[0], sizeof(V));
      }
    }
    VDRIFT_GEMM_UNROLL
    for (int64_t r = 0; r < kRows; ++r) {
      float ar = a[r * g.k + kk];
      VDRIFT_GEMM_UNROLL
      for (int64_t v = 0; v < kVecs; ++v) {
        acc[r][v] = acc[r][v] + bv[v] * ar;
      }
    }
  }
  const int64_t plane = g.out_h * g.out_w;
  VDRIFT_GEMM_UNROLL
  for (int64_t r = 0; r < kRows; ++r) {
    float* c = g.out + (i + r) * plane;
    VDRIFT_GEMM_UNROLL
    for (int64_t v = 0; v < kVecs; ++v) {
      V out = acc[r][v] + g.bias[i + r];
      if constexpr (kPacked) {
        Half low;
        Half high;
        [&]<size_t... L>(std::index_sequence<L...>) {
          low = __builtin_shufflevector(out, out, L...);
          high = __builtin_shufflevector(out, out, (L + W / 2)...);
        }(kLow);
        StoreLanes(c + run[v].dst[0], low, run[v].cols[0]);
        StoreLanes(c + run[v].dst[1], high, run[v].cols[1]);
      } else {
        StoreLanes(c + run[v].dst[0], out, run[v].cols[0]);
      }
    }
  }
}

template <int W, int kVecs, bool kPacked>
VDRIFT_GEMM_INLINE void ConvRunRows(const ConvOperands& g, const ConvRun* run,
                                    int64_t row_begin, int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += kGemmTileRows) {
    switch (std::min(kGemmTileRows, row_end - i)) {
      case 4:
        ConvTile<W, 4, kVecs, kPacked>(g, i, run);
        break;
      case 3:
        ConvTile<W, 3, kVecs, kPacked>(g, i, run);
        break;
      case 2:
        ConvTile<W, 2, kVecs, kPacked>(g, i, run);
        break;
      default:
        ConvTile<W, 1, kVecs, kPacked>(g, i, run);
        break;
    }
  }
}

// Output channels [row_begin, row_end), two pixel vectors at a time. A
// row wider than W / 2 splits into ceil(out_w / W) vectors, and a pair
// may span two rows; narrower rows go two to a vector, so the small
// outputs of a network's last layers still fill their lanes.
template <int W>
VDRIFT_GEMM_INLINE void ConvRows(const ConvOperands& g, int64_t row_begin,
                                 int64_t row_end) {
  constexpr int64_t kHalf = W / 2;
  const int64_t row = g.input->row;
  if (g.out_w <= kHalf) {
    // Rows oy and oy + 1; past the last row, the high half rereads the
    // low one and stores nothing.
    auto make_run = [&](int64_t oy) {
      int64_t next = oy + 1 < g.out_h ? oy + 1 : oy;
      return ConvRun{{oy * row, next * row},
                     {oy * g.out_w, next * g.out_w},
                     {g.out_w, next > oy ? g.out_w : 0}};
    };
    for (int64_t oy = 0; oy < g.out_h; oy += 4) {
      if (oy + 2 < g.out_h) {
        const ConvRun run[2] = {make_run(oy), make_run(oy + 2)};
        ConvRunRows<W, 2, true>(g, run, row_begin, row_end);
      } else {
        const ConvRun run[1] = {make_run(oy)};
        ConvRunRows<W, 1, true>(g, run, row_begin, row_end);
      }
    }
    return;
  }
  const int64_t per_row = (g.out_w + W - 1) / W;
  const int64_t runs = g.out_h * per_row;
  auto make_run = [&](int64_t t) {
    int64_t oy = t / per_row;
    int64_t ox = t % per_row * W;
    return ConvRun{{oy * row + ox, 0},
                   {oy * g.out_w + ox, 0},
                   {std::min<int64_t>(W, g.out_w - ox), 0}};
  };
  for (int64_t t = 0; t < runs; t += 2) {
    if (t + 1 < runs) {
      const ConvRun run[2] = {make_run(t), make_run(t + 1)};
      ConvRunRows<W, 2, false>(g, run, row_begin, row_end);
    } else {
      const ConvRun run[1] = {make_run(t)};
      ConvRunRows<W, 1, false>(g, run, row_begin, row_end);
    }
  }
}

// dW columns of taps [kk, kk + kRows) against output channels [o0, o0 +
// kVecs * W): a GEMM tile of dW^T, whose A is the sample's im2col matrix
// read as scalars from the padded input (ConvTile's B) and whose B is
// dY^T. Each accumulator takes its pixels in ascending (oy, ox), that is
// ascending p.
template <int W, int kRows, int kVecs>
VDRIFT_GEMM_INLINE void ConvWeightGradTile(const ConvWeightGradOperands& g,
                                           int64_t kk, int64_t o0) {
  using V = typename VecOf<W>::type;
  const float* a[kRows];
  VDRIFT_GEMM_UNROLL
  for (int64_t r = 0; r < kRows; ++r) {
    a[r] = g.input->pixels.data() + g.input->tap[kk + r];
  }
  const int64_t row = g.input->row;
  const int64_t m_pad = g.grad->m_pad;
  const float* b = g.grad->values.data() + o0;
  V acc[kRows][kVecs] = {};
  for (int64_t oy = 0, p = 0; oy < g.out_h; ++oy) {
    for (int64_t x = oy * row, end = x + g.out_w; x < end; ++x, ++p) {
      V bv[kVecs];
      VDRIFT_GEMM_UNROLL
      for (int64_t v = 0; v < kVecs; ++v) {
        std::memcpy(&bv[v], b + p * m_pad + v * W, sizeof(V));
      }
      VDRIFT_GEMM_UNROLL
      for (int64_t r = 0; r < kRows; ++r) {
        float ar = a[r][x];
        VDRIFT_GEMM_UNROLL
        for (int64_t v = 0; v < kVecs; ++v) {
          acc[r][v] = acc[r][v] + bv[v] * ar;
        }
      }
    }
  }
  // Lane l of the tile's row r is dW[o0 + l, kk + r].
  const int64_t lanes = std::min<int64_t>(kVecs * W, g.m - o0);
  VDRIFT_GEMM_UNROLL
  for (int64_t r = 0; r < kRows; ++r) {
    float t[kVecs * W];
    std::memcpy(t, acc[r], sizeof(t));
    for (int64_t l = 0; l < lanes; ++l) g.dw[(o0 + l) * g.k + kk + r] = t[l];
  }
}

template <int W, int kVecs>
VDRIFT_GEMM_INLINE void ConvWeightGradTaps(const ConvWeightGradOperands& g,
                                           int64_t o0, int64_t tap_begin,
                                           int64_t tap_end) {
  int64_t kk = tap_begin;
  if constexpr (kVecs == 1) {
    // With one vector of output channels a 4-tap tile has only four add
    // chains; 8-tap tiles measured ~10% faster on such layers.
    for (; kk + 2 * kGemmTileRows <= tap_end; kk += 2 * kGemmTileRows) {
      ConvWeightGradTile<W, 2 * kGemmTileRows, 1>(g, kk, o0);
    }
  }
  for (; kk < tap_end; kk += kGemmTileRows) {
    switch (std::min(kGemmTileRows, tap_end - kk)) {
      case 4:
        ConvWeightGradTile<W, 4, kVecs>(g, kk, o0);
        break;
      case 3:
        ConvWeightGradTile<W, 3, kVecs>(g, kk, o0);
        break;
      case 2:
        ConvWeightGradTile<W, 2, kVecs>(g, kk, o0);
        break;
      default:
        ConvWeightGradTile<W, 1, kVecs>(g, kk, o0);
        break;
    }
  }
}

// Output channels up to three vectors at a time: twelve accumulators, the
// most that leave registers for the dY^T vectors and the broadcast pixel.
template <int W>
VDRIFT_GEMM_INLINE void ConvWeightGradRows(const ConvWeightGradOperands& g,
                                           int64_t tap_begin,
                                           int64_t tap_end) {
  const int64_t vecs = g.grad->m_pad / W;
  for (int64_t v0 = 0; v0 < vecs; v0 += 3) {
    switch (std::min<int64_t>(3, vecs - v0)) {
      case 3:
        ConvWeightGradTaps<W, 3>(g, v0 * W, tap_begin, tap_end);
        break;
      case 2:
        ConvWeightGradTaps<W, 2>(g, v0 * W, tap_begin, tap_end);
        break;
      default:
        ConvWeightGradTaps<W, 1>(g, v0 * W, tap_begin, tap_end);
        break;
    }
  }
}

// The taps that reach one input row or one class of input columns: along
// an axis, input index i is read by tap t from output index (i + pad - t)
// / stride when that divides exactly, so the taps congruent to i + pad
// modulo the stride, in ascending order.
struct AxisTaps {
  std::vector<int64_t> tap;
  std::vector<int64_t> out;  // output index of tap[i]; may lie outside

  // Refills the list for input index i, keeping the taps whose output
  // index lies in [out_begin, out_end).
  void Read(int64_t i, int kernel, int stride, int pad, int64_t out_begin,
            int64_t out_end) {
    tap.clear();
    out.clear();
    for (int64_t t = (i + pad) % stride; t < kernel; t += stride) {
      const int64_t o = (i + pad - t) / stride;
      if (o < out_begin || o >= out_end) continue;
      tap.push_back(t);
      out.push_back(o);
    }
  }
};

// dX at input channels [c, c + kRows) of one input row, at the W input
// columns col0 + stride * (j0 + l) of one column class: one accumulator
// vector per channel, which takes for each tap (ky, kx) in ascending order
// whose output pixel exists the sum t over o, in ascending order from +0,
// of weight[o, (c, ky, kx)] * dY[o, oy, ox]. A lane whose output pixel
// does not exist keeps its accumulator as it was; lanes past `lanes` are
// not stored. The dY loads read the padded copy, so every lane is in
// bounds.
template <int W, int kRows>
VDRIFT_GEMM_INLINE void ConvInputGradRun(const ConvInputGradOperands& g,
                                         int64_t c, const AxisTaps& rows,
                                         const AxisTaps& cols, int64_t j0,
                                         int64_t lanes, float* const* dst) {
  using V = typename VecOf<W>::type;
  const ConvGradPlanes& dy = *g.grad;
  const int64_t dy_plane = g.out_h * dy.row;
  const int64_t taps = static_cast<int64_t>(g.kernel) * g.kernel;
  V acc[kRows] = {};
  for (size_t a = 0; a < rows.tap.size(); ++a) {
    for (size_t b = 0; b < cols.tap.size(); ++b) {
      const int64_t ox = cols.out[b] + j0;
      const float* d =
          dy.values.data() + rows.out[a] * dy.row + dy.left + ox;
      const float* w =
          g.weight + c * taps + rows.tap[a] * g.kernel + cols.tap[b];
      V t[kRows] = {};
      for (int64_t o = 0; o < g.m; ++o) {
        V dv;
        std::memcpy(&dv, d + o * dy_plane, sizeof(V));
        VDRIFT_GEMM_UNROLL
        for (int64_t r = 0; r < kRows; ++r) {
          t[r] = t[r] + dv * w[o * g.k + r * taps];
        }
      }
      if (ox >= 0 && ox + W <= g.out_w) {
        VDRIFT_GEMM_UNROLL
        for (int64_t r = 0; r < kRows; ++r) acc[r] = acc[r] + t[r];
      } else {
        const auto col = LaneIndex<W>::value + static_cast<int32_t>(ox);
        const auto exists = (col >= 0) & (col < g.out_w);
        VDRIFT_GEMM_UNROLL
        for (int64_t r = 0; r < kRows; ++r) {
          acc[r] = exists ? acc[r] + t[r] : acc[r];
        }
      }
    }
  }
  VDRIFT_GEMM_UNROLL
  for (int64_t r = 0; r < kRows; ++r) {
    if (g.stride == 1) {
      StoreLanes(dst[r] + j0, acc[r], lanes);
    } else {
      float v[W];
      std::memcpy(v, &acc[r], sizeof(v));
      for (int64_t l = 0; l < lanes; ++l) dst[r][(j0 + l) * g.stride] = v[l];
    }
  }
}

// The dX planes of input channels [c, c + kRows), row by row and, within
// a row, one class of columns congruent modulo the stride at a time:
// those read the same taps, from consecutive output columns.
template <int W, int kRows>
VDRIFT_GEMM_INLINE void ConvInputGradPlanes(const ConvInputGradOperands& g,
                                            int64_t c) {
  const int64_t in_plane = static_cast<int64_t>(g.height) * g.width;
  const int64_t classes = std::min(g.stride, g.width);
  std::vector<AxisTaps> cols(static_cast<size_t>(classes));
  for (int64_t col0 = 0; col0 < classes; ++col0) {
    // Every tap of the class: whether its output column exists varies
    // by lane, so the lanes decide.
    cols[col0].Read(col0, g.kernel, g.stride, g.pad,
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max());
  }
  AxisTaps rows;
  for (int64_t iy = 0; iy < g.height; ++iy) {
    // Taps whose output row falls outside dY add nothing to this row.
    rows.Read(iy, g.kernel, g.stride, g.pad, 0, g.out_h);
    for (int64_t col0 = 0; col0 < classes; ++col0) {
      const int64_t n = (g.width - col0 + g.stride - 1) / g.stride;
      float* dst[kRows];
      VDRIFT_GEMM_UNROLL
      for (int64_t r = 0; r < kRows; ++r) {
        dst[r] = g.dx + (c + r) * in_plane + iy * g.width + col0;
      }
      for (int64_t j0 = 0; j0 < n; j0 += W) {
        ConvInputGradRun<W, kRows>(g, c, rows, cols[col0], j0,
                                   std::min<int64_t>(W, n - j0), dst);
      }
    }
  }
}

// Input channels [c_begin, c_end), four at a time: their dX planes are
// disjoint, and each is written whole.
template <int W>
VDRIFT_GEMM_INLINE void ConvInputGradChannels(const ConvInputGradOperands& g,
                                              int64_t c_begin,
                                              int64_t c_end) {
  for (int64_t c = c_begin; c < c_end; c += kGemmTileRows) {
    switch (std::min(kGemmTileRows, c_end - c)) {
      case 4:
        ConvInputGradPlanes<W, 4>(g, c);
        break;
      case 3:
        ConvInputGradPlanes<W, 3>(g, c);
        break;
      case 2:
        ConvInputGradPlanes<W, 2>(g, c);
        break;
      default:
        ConvInputGradPlanes<W, 1>(g, c);
        break;
    }
  }
}

}  // namespace

ConvInput MakeConvInput(const float* sample, int channels, int height,
                        int width, int kernel, int stride, int pad,
                        int vector_width) {
  const int64_t s = stride;
  const int64_t hq = (height + 2 * pad + s - 1) / s;
  const int64_t wq = (width + 2 * pad + s - 1) / s;
  const int64_t plane = hq * wq;
  // Plane (py, px) of channel c starts at ((py * s + px) * channels + c)
  // * plane. Padded coordinate y is phase y % s, index y / s; the loops
  // below step both with counters instead of dividing.
  ConvInput in;
  in.row = wq;
  in.pixels.assign(
      static_cast<size_t>(s * s * channels * plane + vector_width - 1), 0.0f);
  float* pixels = in.pixels.data();
  // Phase px holds input columns px + s * j - pad from its first j with a
  // column >= 0.
  for (int64_t px = 0; px < s; ++px) {
    const int64_t j0 = px >= pad ? 0 : (pad - px + s - 1) / s;
    const int64_t x0 = px + s * j0 - pad;
    const int64_t cols = x0 < width ? (width - x0 + s - 1) / s : 0;
    for (int64_t c = 0; c < channels; ++c) {
      const float* src = sample + c * height * width + x0;
      int64_t py = pad % s;
      int64_t qy = pad / s;
      for (int64_t iy = 0; iy < height; ++iy, src += width) {
        float* dst =
            pixels + ((py * s + px) * channels + c) * plane + qy * wq + j0;
        for (int64_t j = 0; j < cols; ++j) dst[j] = src[j * s];
        if (++py == s) {
          py = 0;
          ++qy;
        }
      }
    }
  }
  // Tap (c, ky, kx) is tap (0, ky, kx) moved c planes on.
  const int64_t taps = static_cast<int64_t>(kernel) * kernel;
  in.tap.resize(static_cast<size_t>(channels * taps));
  int64_t* tap = in.tap.data();
  for (int64_t ky = 0, py = 0, qy = 0; ky < kernel; ++ky) {
    for (int64_t kx = 0, px = 0, qx = 0; kx < kernel; ++kx) {
      tap[ky * kernel + kx] = (py * s + px) * channels * plane + qy * wq + qx;
      if (++px == s) {
        px = 0;
        ++qx;
      }
    }
    if (++py == s) {
      py = 0;
      ++qy;
    }
  }
  for (int64_t c = 1; c < channels; ++c) {
    for (int64_t t = 0; t < taps; ++t) tap[c * taps + t] = tap[t] + c * plane;
  }
  return in;
}

ConvGradRows MakeConvGradRows(const float* grad, int64_t m, int64_t plane,
                              int vector_width) {
  ConvGradRows rows;
  rows.m_pad = (m + vector_width - 1) / vector_width * vector_width;
  rows.values.assign(static_cast<size_t>(plane * rows.m_pad), 0.0f);
  float* out = rows.values.data();
  for (int64_t o = 0; o < m; ++o) {
    const float* src = grad + o * plane;
    for (int64_t p = 0; p < plane; ++p) out[p * rows.m_pad + o] = src[p];
  }
  return rows;
}

ConvGradPlanes MakeConvGradPlanes(const float* grad, int64_t m, int out_h,
                                  int out_w, int width, int kernel, int stride,
                                  int pad, int vector_width) {
  // A tap reads output column (ix + pad - kx) / stride for input column
  // ix, which is at least -(kernel - 1 - pad) / stride, and a vector from
  // the last input column's reaches vector_width - 1 columns past it.
  ConvGradPlanes planes;
  planes.left = std::max(0, (kernel - 1 - pad + stride - 1) / stride);
  planes.row = planes.left +
               std::max<int64_t>(out_w, (width - 1 + pad) / stride + 1) +
               vector_width;
  planes.values.assign(static_cast<size_t>(m * out_h * planes.row), 0.0f);
  for (int64_t r = 0; r < m * out_h; ++r) {
    std::memcpy(planes.values.data() + r * planes.row + planes.left,
                grad + r * out_w, sizeof(float) * static_cast<size_t>(out_w));
  }
  return planes;
}

void GemmRowsWidth4(const GemmOperands& g, int64_t row_begin,
                    int64_t row_end) {
  GemmRows<4>(g, row_begin, row_end);
}

void ConvRowsWidth4(const ConvOperands& g, int64_t row_begin,
                    int64_t row_end) {
  ConvRows<4>(g, row_begin, row_end);
}

void ConvWeightGradRowsWidth4(const ConvWeightGradOperands& g,
                              int64_t tap_begin, int64_t tap_end) {
  ConvWeightGradRows<4>(g, tap_begin, tap_end);
}

void ConvInputGradChannelsWidth4(const ConvInputGradOperands& g,
                                 int64_t c_begin, int64_t c_end) {
  ConvInputGradChannels<4>(g, c_begin, c_end);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void GemmRowsWidth8(const GemmOperands& g,
                                                    int64_t row_begin,
                                                    int64_t row_end) {
  GemmRows<8>(g, row_begin, row_end);
}

__attribute__((target("avx2"))) void ConvRowsWidth8(const ConvOperands& g,
                                                    int64_t row_begin,
                                                    int64_t row_end) {
  ConvRows<8>(g, row_begin, row_end);
}

__attribute__((target("avx2"))) void ConvWeightGradRowsWidth8(
    const ConvWeightGradOperands& g, int64_t tap_begin, int64_t tap_end) {
  ConvWeightGradRows<8>(g, tap_begin, tap_end);
}

__attribute__((target("avx2"))) void ConvInputGradChannelsWidth8(
    const ConvInputGradOperands& g, int64_t c_begin, int64_t c_end) {
  ConvInputGradChannels<8>(g, c_begin, c_end);
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
#else
void GemmRowsWidth8(const GemmOperands& g, int64_t row_begin,
                    int64_t row_end) {
  GemmRows<8>(g, row_begin, row_end);
}

void ConvRowsWidth8(const ConvOperands& g, int64_t row_begin,
                    int64_t row_end) {
  ConvRows<8>(g, row_begin, row_end);
}

void ConvWeightGradRowsWidth8(const ConvWeightGradOperands& g,
                              int64_t tap_begin, int64_t tap_end) {
  ConvWeightGradRows<8>(g, tap_begin, tap_end);
}

void ConvInputGradChannelsWidth8(const ConvInputGradOperands& g,
                                 int64_t c_begin, int64_t c_end) {
  ConvInputGradChannels<8>(g, c_begin, c_end);
}

bool CpuHasAvx2() { return false; }
#endif

}  // namespace internal

namespace {

using runtime::GrainForCost;
using runtime::ParallelFor;
using runtime::ParallelReduce;

void CheckSameShape(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.shape().ToString() << " vs "
      << b.shape().ToString();
}

// GEMM attribution: 2mkn FLOPs (one multiply + one add per inner-product
// term), bytes = the three operand matrices once through memory. The
// GEMM kernel does this arithmetic on every input — no data-dependent
// shortcuts — so the attribution is exact and benchmark numbers do not
// depend on operand sparsity.
int64_t GemmFlops(int64_t m, int64_t k, int64_t n) { return 2 * m * k * n; }
int64_t GemmBytes(int64_t m, int64_t k, int64_t n) {
  return static_cast<int64_t>(sizeof(float)) * (m * k + k * n + m * n);
}

// Fewest FLOPs per GEMM chunk: ~40 us at the vectorized kernel's
// 20-30 GFLOPS, the "tens of microseconds" GrainForCost's default floor
// buys scalar loops. The default (1 << 17) would dispatch ~5 us chunks,
// which measured worse on both churn query latency and fleet parallel
// efficiency in perfbench.
constexpr int64_t kGemmMinChunkFlops = 1 << 20;

// Rows of C per ParallelFor chunk for a k-deep, n-wide GEMM: at least
// kGemmMinChunkFlops, in whole register tiles.
int64_t GemmRowGrain(int64_t k, int64_t n) {
  constexpr int64_t tile = internal::kGemmTileRows;
  int64_t grain = GrainForCost(2 * k * n, kGemmMinChunkFlops);
  return (grain + tile - 1) / tile * tile;
}

// C = A * B for every GEMM entry point, at the widest width the CPU
// runs. Rows of C are independent, so any row split is bit-identical to
// serial.
void Gemm(const internal::GemmOperands& g) {
  static const auto rows = internal::CpuHasAvx2() ? &internal::GemmRowsWidth8
                                                  : &internal::GemmRowsWidth4;
  ParallelFor(0, g.m, GemmRowGrain(g.k, g.n),
              [&](int64_t row_begin, int64_t row_end) {
                rows(g, row_begin, row_end);
              });
}

// Elementwise loops parallelize per index; each element's computation is
// order-independent, so any chunking is bit-identical to serial.
constexpr int64_t kElementwiseGrain = 1 << 15;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  ParallelFor(0, out.size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) o[i] += pb[i];
              });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  ParallelFor(0, out.size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) o[i] -= pb[i];
              });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  ParallelFor(0, out.size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) o[i] *= pb[i];
              });
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  float* o = out.data();
  ParallelFor(0, out.size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) o[i] *= s;
              });
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b);
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) pa[i] += pb[i];
              });
}

void AxpyInPlace(Tensor* a, const Tensor& b, float s) {
  CheckSameShape(*a, b);
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->size(), kElementwiseGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) pa[i] += s * pb[i];
              });
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape().ndim() == 2 && b.shape().ndim() == 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  VDRIFT_CHECK(b.shape().dim(0) == k)
      << "matmul inner dim mismatch " << a.shape().ToString() << " x "
      << b.shape().ToString();
  int64_t n = b.shape().dim(1);
  VDRIFT_OP_PROBE("tensor", "matmul", GemmFlops(m, k, n),
                  GemmBytes(m, k, n));
  Tensor out(Shape{m, n});
  Gemm({a.data(), k, 1, b.data(), n, 1, out.data(), m, k, n});
  return out;
}

Tensor MatmulTransposedB(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape().ndim() == 2 && b.shape().ndim() == 2);
  int64_t m = a.shape().dim(0);
  int64_t k = a.shape().dim(1);
  VDRIFT_CHECK(b.shape().dim(1) == k);
  int64_t n = b.shape().dim(0);
  VDRIFT_OP_PROBE("tensor", "matmul_transposed_b", GemmFlops(m, k, n),
                  GemmBytes(m, k, n));
  Tensor out(Shape{m, n});
  Gemm({a.data(), k, 1, b.data(), 1, k, out.data(), m, k, n});
  return out;
}

Tensor MatmulTransposedA(const Tensor& a, const Tensor& b) {
  VDRIFT_CHECK(a.shape().ndim() == 2 && b.shape().ndim() == 2);
  int64_t k = a.shape().dim(0);
  int64_t m = a.shape().dim(1);
  VDRIFT_CHECK(b.shape().dim(0) == k);
  int64_t n = b.shape().dim(1);
  VDRIFT_OP_PROBE("tensor", "matmul_transposed_a", GemmFlops(m, k, n),
                  GemmBytes(m, k, n));
  Tensor out(Shape{m, n});
  Gemm({a.data(), 1, m, b.data(), n, 1, out.data(), m, k, n});
  return out;
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, int kernel, int stride, int pad) {
  VDRIFT_CHECK(input.shape().ndim() == 4 && weight.shape().ndim() == 2);
  const int64_t n = input.shape().dim(0);
  const int channels = static_cast<int>(input.shape().dim(1));
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int64_t m = weight.shape().dim(0);
  const int64_t k = weight.shape().dim(1);
  VDRIFT_CHECK(k == static_cast<int64_t>(channels) * kernel * kernel &&
               bias.size() == m)
      << "conv weight " << weight.shape().ToString() << " does not fit input "
      << input.shape().ToString() << " with kernel " << kernel;
  VDRIFT_CHECK(height + 2 * pad >= kernel && width + 2 * pad >= kernel)
      << "conv kernel " << kernel << " exceeds the padded input "
      << input.shape().ToString() << " (pad " << pad << ")";
  const int out_h = ConvOutDim(height, kernel, stride, pad);
  const int out_w = ConvOutDim(width, kernel, stride, pad);
  const int64_t plane = static_cast<int64_t>(out_h) * out_w;
  const int64_t in_plane = static_cast<int64_t>(channels) * height * width;
  // The GEMM's FLOPs plus the bias add; the input, weights, bias and
  // output once through memory.
  VDRIFT_OP_PROBE("tensor", "conv2d", n * (GemmFlops(m, k, plane) + m * plane),
                  static_cast<int64_t>(sizeof(float)) *
                      (input.size() + weight.size() + m + n * m * plane));
  static const bool wide = internal::CpuHasAvx2();
  const auto rows =
      wide ? &internal::ConvRowsWidth8 : &internal::ConvRowsWidth4;
  const int64_t grain = GemmRowGrain(k, plane);
  Tensor out(Shape{n, m, out_h, out_w});
  // Samples are independent, and so are output channels within one; the
  // channel split is Gemm's, so a wide single-sample conv still spreads
  // over the pool.
  ParallelFor(0, n, 1, [&](int64_t s_begin, int64_t s_end) {
    for (int64_t s = s_begin; s < s_end; ++s) {
      const internal::ConvInput padded = internal::MakeConvInput(
          input.data() + s * in_plane, channels, height, width, kernel,
          stride, pad, wide ? 8 : 4);
      const internal::ConvOperands g{&padded,    weight.data(),
                                     bias.data(), out.data() + s * m * plane,
                                     m,          k,
                                     out_h,      out_w};
      ParallelFor(0, m, grain, [&](int64_t row_begin, int64_t row_end) {
        rows(g, row_begin, row_end);
      });
    }
  });
  return out;
}

Tensor Conv2dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_output, int kernel, int stride,
                      int pad, Tensor* weight_grad) {
  VDRIFT_CHECK(input.shape().ndim() == 4 && weight.shape().ndim() == 2 &&
               grad_output.shape().ndim() == 4);
  const int64_t n = input.shape().dim(0);
  const int channels = static_cast<int>(input.shape().dim(1));
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int64_t m = weight.shape().dim(0);
  const int64_t k = weight.shape().dim(1);
  const int out_h = ConvOutDim(height, kernel, stride, pad);
  const int out_w = ConvOutDim(width, kernel, stride, pad);
  VDRIFT_CHECK(k == static_cast<int64_t>(channels) * kernel * kernel &&
               grad_output.shape() == (Shape{n, m, out_h, out_w}) &&
               weight_grad->shape() == weight.shape())
      << "conv gradient " << grad_output.shape().ToString()
      << " does not fit input " << input.shape().ToString() << " and weight "
      << weight.shape().ToString() << " with kernel " << kernel;
  VDRIFT_CHECK(height + 2 * pad >= kernel && width + 2 * pad >= kernel)
      << "conv kernel " << kernel << " exceeds the padded input "
      << input.shape().ToString() << " (pad " << pad << ")";
  const int64_t plane = static_cast<int64_t>(out_h) * out_w;
  const int64_t in_plane = static_cast<int64_t>(channels) * height * width;
  // The dW and dX GEMMs' FLOPs plus one accumulate per tap and output
  // pixel into dX: the work im2col, two GEMMs and col2im did. The input,
  // weights, dY and dX once through memory, the weight gradient twice.
  VDRIFT_OP_PROBE("tensor", "conv2d_backward",
                  n * (2 * GemmFlops(m, k, plane) + k * plane),
                  static_cast<int64_t>(sizeof(float)) *
                      (2 * input.size() + 3 * weight.size() +
                       grad_output.size()));
  static const bool wide = internal::CpuHasAvx2();
  // dW's vectors run over output channels, so a layer with at most four
  // (an RGB decoder output) fills more lanes at width 4.
  const int dw_width = wide && m > 4 ? 8 : 4;
  const auto dw_rows = dw_width == 8 ? &internal::ConvWeightGradRowsWidth8
                                     : &internal::ConvWeightGradRowsWidth4;
  const auto dx_channels = wide ? &internal::ConvInputGradChannelsWidth8
                                : &internal::ConvInputGradChannelsWidth4;
  // Gemm's row split: taps for dW, whole input channels (whose dX planes
  // are disjoint) for dX.
  const int64_t taps = static_cast<int64_t>(kernel) * kernel;
  const int64_t tap_grain = GemmRowGrain(plane, m);
  const int64_t channel_grain = (GemmRowGrain(m, plane) + taps - 1) / taps;
  Tensor grad_input(Shape{n, channels, height, width});
  // Per-sample weight gradients fold into weight_grad in ascending sample
  // order afterwards, so the result does not depend on the thread count.
  std::vector<Tensor> sample_dw(static_cast<size_t>(n));
  ParallelFor(0, n, 1, [&](int64_t s_begin, int64_t s_end) {
    for (int64_t s = s_begin; s < s_end; ++s) {
      const float* dy = grad_output.data() + s * m * plane;
      const internal::ConvInput padded = internal::MakeConvInput(
          input.data() + s * in_plane, channels, height, width, kernel,
          stride, pad, dw_width);
      const internal::ConvGradRows dy_rows =
          internal::MakeConvGradRows(dy, m, plane, dw_width);
      Tensor& dw = sample_dw[static_cast<size_t>(s)];
      dw = Tensor(weight.shape());
      const internal::ConvWeightGradOperands wg{&padded, &dy_rows, dw.data(),
                                                m,        k,        out_h,
                                                out_w};
      ParallelFor(0, k, tap_grain, [&](int64_t begin, int64_t end) {
        dw_rows(wg, begin, end);
      });
      const internal::ConvGradPlanes dy_planes = internal::MakeConvGradPlanes(
          dy, m, out_h, out_w, width, kernel, stride, pad, wide ? 8 : 4);
      const internal::ConvInputGradOperands xg{
          weight.data(), &dy_planes, grad_input.data() + s * in_plane,
          m,             k,          kernel,
          stride,        pad,        height,
          width,         out_h,      out_w};
      ParallelFor(0, channels, channel_grain, [&](int64_t begin, int64_t end) {
        dx_channels(xg, begin, end);
      });
    }
  });
  for (const Tensor& dw : sample_dw) AddInPlace(weight_grad, dw);
  return grad_input;
}

Tensor Transpose2D(const Tensor& a) {
  VDRIFT_CHECK(a.shape().ndim() == 2);
  int64_t m = a.shape().dim(0);
  int64_t n = a.shape().dim(1);
  Tensor out(Shape{n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out[j * m + i] = a[i * n + j];
    }
  }
  return out;
}

double Sum(const Tensor& a) {
  const float* p = a.data();
  // Fixed chunking + in-order combine keeps the result bit-identical for
  // every thread count (see runtime/parallel.h).
  return ParallelReduce<double>(
      0, a.size(), kElementwiseGrain, 0.0,
      [&](int64_t begin, int64_t end) {
        double s = 0.0;
        for (int64_t i = begin; i < end; ++i) s += p[i];
        return s;
      },
      [](double acc, double partial) { return acc + partial; });
}

double Mean(const Tensor& a) {
  if (a.size() == 0) return 0.0;
  return Sum(a) / static_cast<double>(a.size());
}

}  // namespace vdrift::tensor
