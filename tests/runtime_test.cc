// Tests for the parallel runtime: pool lifecycle, work-sharing loops,
// nested-region safety, exception propagation out of workers, and the
// determinism contract — parallel kernel/VAE results are bit-identical
// to VDRIFT_THREADS=1.

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "obs/timer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "vae/trainer.h"
#include "vae/vae.h"

namespace vdrift::runtime {
namespace {

using stats::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  return t;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(ThreadPoolTest, StartsLazilyAndShutsDown) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  EXPECT_FALSE(pool.started());
  std::atomic<int> chunks{0};
  pool.Run(8, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 8);
  EXPECT_TRUE(pool.started());
  pool.Shutdown();
  EXPECT_FALSE(pool.started());
  // A shut-down pool restarts on the next Run.
  chunks.store(0);
  pool.Run(3, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 3);
  EXPECT_TRUE(pool.started());
  pool.Shutdown();
  EXPECT_FALSE(pool.started());
}

TEST(ThreadPoolTest, SerialPoolNeverSpawns) {
  ThreadPool pool(1);
  std::atomic<int> chunks{0};
  pool.Run(5, [&](int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 5);
  EXPECT_FALSE(pool.started());
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 7, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ScopedThreads threads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Single chunk runs inline on the caller.
  ParallelFor(0, 3, 8, [&](int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedRegionsRunInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  constexpr int64_t kRows = 16;
  constexpr int64_t kCols = 64;
  std::vector<int> cells(kRows * kCols, 0);
  ParallelFor(0, kRows, 1, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      EXPECT_TRUE(ThreadPool::InTask());
      // The nested loop is queued like a top-level one and its caller
      // drains it, so even a fully busy pool cannot deadlock on it.
      ParallelFor(0, kCols, 4, [&](int64_t col_begin, int64_t col_end) {
        for (int64_t c = col_begin; c < col_end; ++c) {
          ++cells[static_cast<size_t>(r * kCols + c)];
        }
      });
    }
  });
  for (int v : cells) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ThreeNestedLevelsOnTwoThreadsCoverEveryIndexOnce) {
  ScopedThreads threads(2);
  constexpr int64_t kSide = 8;
  std::vector<std::atomic<int>> hits(kSide * kSide * kSide);
  ParallelFor(0, kSide, 1, [&](int64_t a_begin, int64_t a_end) {
    for (int64_t a = a_begin; a < a_end; ++a) {
      ParallelFor(0, kSide, 1, [&](int64_t b_begin, int64_t b_end) {
        for (int64_t b = b_begin; b < b_end; ++b) {
          ParallelFor(0, kSide, 1, [&](int64_t c_begin, int64_t c_end) {
            for (int64_t c = c_begin; c < c_end; ++c) {
              hits[static_cast<size_t>((a * kSide + b) * kSide + c)]
                  .fetch_add(1);
            }
          });
        }
      });
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, IdleThreadsTakeNestedChunks) {
  ScopedThreads threads(2);
  // Outer chunk 0 returns at once, freeing its thread; outer chunk 1 opens
  // an 8-chunk region whose chunk 0 holds its thread until another chunk
  // of the region has started. Only a second thread can start one.
  std::atomic<int> entered{0};
  bool helped = false;
  ParallelFor(0, 2, 1, [&](int64_t outer, int64_t) {
    if (outer == 0) return;
    ParallelFor(0, 8, 1, [&](int64_t inner, int64_t) {
      entered.fetch_add(1);
      if (inner != 0) return;
      double deadline = obs::MonotonicSeconds() + 10.0;
      while (entered.load() < 2 && obs::MonotonicSeconds() < deadline) {
        std::this_thread::yield();
      }
      helped = entered.load() >= 2;
    });
  });
  EXPECT_TRUE(helped);
}

TEST(ParallelForTest, NestedExceptionOnAHelperReachesTheOuterCaller) {
  ScopedThreads threads(2);
  std::atomic<bool> helper_entered{false};
  auto nested_region = [&] {
    ParallelFor(0, 2, 1, [&](int64_t outer, int64_t) {
      if (outer == 0) return;
      const std::thread::id owner = std::this_thread::get_id();
      ParallelFor(0, 8, 1, [&](int64_t inner, int64_t) {
        if (std::this_thread::get_id() != owner) {
          helper_entered.store(true);
          throw std::runtime_error("nested chunk failed on a helper");
        }
        if (inner != 0) return;
        double deadline = obs::MonotonicSeconds() + 10.0;
        while (!helper_entered.load() &&
               obs::MonotonicSeconds() < deadline) {
          std::this_thread::yield();
        }
      });
    });
  };
  EXPECT_THROW(nested_region(), std::runtime_error);
  EXPECT_TRUE(helper_entered.load());
  // The pool survives and still runs nested regions.
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, 8, 1, [&](int64_t a_begin, int64_t a_end) {
    for (int64_t a = a_begin; a < a_end; ++a) {
      ParallelFor(0, 8, 1, [&](int64_t b_begin, int64_t b_end) {
        for (int64_t b = b_begin; b < b_end; ++b) {
          hits[static_cast<size_t>(a * 8 + b)].fetch_add(1);
        }
      });
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t begin, int64_t) {
                    if (begin == 42) {
                      throw std::runtime_error("chunk 42 failed");
                    }
                  }),
      std::runtime_error);
  // The pool survives a failed task and keeps executing.
  std::atomic<int> ok{0};
  ParallelFor(0, 10, 1, [&](int64_t, int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelReduceTest, MatchesSerialFoldBitForBit) {
  Rng rng(21);
  std::vector<double> values(100000);
  for (double& v : values) v = rng.NextGaussian();
  auto sum_with = [&](int threads) {
    ScopedThreads scope(threads);
    return ParallelReduce<double>(
        0, static_cast<int64_t>(values.size()), 1 << 10, 0.0,
        [&](int64_t begin, int64_t end) {
          double s = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            s += values[static_cast<size_t>(i)];
          }
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  double serial = sum_with(1);
  for (int threads : {2, 4, 8}) {
    double parallel = sum_with(threads);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, NestedReduceIsBitIdenticalAcrossThreadCounts) {
  Rng rng(23);
  constexpr int64_t kRows = 8;
  constexpr int64_t kCols = 20000;
  std::vector<double> values(kRows * kCols);
  for (double& v : values) v = rng.NextGaussian();
  auto row_sums_with = [&](int threads) {
    ScopedThreads scope(threads);
    std::vector<double> sums(kRows, 0.0);
    ParallelFor(0, kRows, 1, [&](int64_t row_begin, int64_t row_end) {
      for (int64_t r = row_begin; r < row_end; ++r) {
        sums[static_cast<size_t>(r)] = ParallelReduce<double>(
            0, kCols, 1 << 9, 0.0,
            [&](int64_t begin, int64_t end) {
              double s = 0.0;
              for (int64_t c = begin; c < end; ++c) {
                s += values[static_cast<size_t>(r * kCols + c)];
              }
              return s;
            },
            [](double acc, double partial) { return acc + partial; });
      }
    });
    return sums;
  };
  std::vector<double> serial = row_sums_with(1);
  for (int threads : {2, 4}) {
    std::vector<double> parallel = row_sums_with(threads);
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, MatmulBitIdenticalAcrossThreadCounts) {
  Rng rng(22);
  // 203 rows split into several ParallelFor chunks, the last one ending
  // in a partial 4-row tile; 90 columns cross the 16-column panel five
  // times and end in a ragged one.
  Tensor a = RandomTensor(Shape{203, 96}, &rng);
  Tensor b = RandomTensor(Shape{96, 90}, &rng);
  Tensor at = tensor::Transpose2D(a);
  Tensor bt = tensor::Transpose2D(b);
  ScopedThreads serial_scope(1);
  Tensor serial = tensor::Matmul(a, b);
  Tensor serial_ta = tensor::MatmulTransposedA(at, b);
  Tensor serial_tb = tensor::MatmulTransposedB(a, bt);
  Tensor serial_sum_src = RandomTensor(Shape{100000}, &rng);
  double serial_sum = tensor::Sum(serial_sum_src);
  for (int threads : {2, 4, 8}) {
    ScopedThreads scope(threads);
    EXPECT_TRUE(BitIdentical(tensor::Matmul(a, b), serial))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(tensor::MatmulTransposedA(at, b), serial_ta))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(tensor::MatmulTransposedB(a, bt), serial_tb))
        << "threads=" << threads;
    double parallel_sum = tensor::Sum(serial_sum_src);
    EXPECT_EQ(std::memcmp(&serial_sum, &parallel_sum, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

struct ConvRun {
  Tensor forward;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

ConvRun RunConv(int threads) {
  ScopedThreads scope(threads);
  Rng rng(23);
  nn::Conv2d conv(3, 8, 3, 2, 1, &rng);
  Tensor input = RandomTensor(Shape{4, 3, 16, 16}, &rng);
  ConvRun run;
  run.forward = conv.Forward(input);
  Tensor grad_out(run.forward.shape(), 0.5f);
  run.grad_input = conv.Backward(grad_out);
  run.weight_grad = conv.Params()[0]->grad;
  run.bias_grad = conv.Params()[1]->grad;
  return run;
}

TEST(DeterminismTest, Conv2dForwardBackwardBitIdentical) {
  ConvRun serial = RunConv(1);
  for (int threads : {2, 4}) {
    ConvRun parallel = RunConv(threads);
    EXPECT_TRUE(BitIdentical(parallel.forward, serial.forward))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(parallel.grad_input, serial.grad_input))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(parallel.weight_grad, serial.weight_grad))
        << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(parallel.bias_grad, serial.bias_grad))
        << "threads=" << threads;
  }
}

struct VaeRun {
  std::vector<double> losses;
  std::vector<Tensor> params;
};

VaeRun RunVaeEpochs(int threads) {
  ScopedThreads scope(threads);
  Rng init_rng(24);
  vae::VaeConfig config;
  config.image_size = 16;
  config.latent_dim = 4;
  config.base_filters = 2;
  vae::Vae vae(config, &init_rng);
  Rng frame_rng(25);
  std::vector<Tensor> frames;
  for (int i = 0; i < 12; ++i) {
    Tensor f(Shape{1, 16, 16});
    for (int64_t j = 0; j < f.size(); ++j) {
      f[j] = 0.5f + 0.4f * static_cast<float>(frame_rng.NextGaussian());
    }
    frames.push_back(std::move(f));
  }
  vae::TrainerConfig trainer_config;
  trainer_config.epochs = 2;
  trainer_config.batch_size = 4;
  Rng train_rng(26);
  VaeRun run;
  run.losses = vae::VaeTrainer(trainer_config)
                   .Train(&vae, frames, &train_rng)
                   .ValueOrDie();
  for (nn::Parameter* p : vae.Params()) run.params.push_back(p->value);
  return run;
}

TEST(DeterminismTest, VaeEpochBitIdenticalAcrossThreadCounts) {
  VaeRun serial = RunVaeEpochs(1);
  VaeRun parallel = RunVaeEpochs(4);
  ASSERT_EQ(serial.losses.size(), parallel.losses.size());
  for (size_t i = 0; i < serial.losses.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial.losses[i], &parallel.losses[i],
                          sizeof(double)),
              0)
        << "epoch " << i;
  }
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    EXPECT_TRUE(BitIdentical(serial.params[i], parallel.params[i]))
        << "param " << i;
  }
}

}  // namespace
}  // namespace vdrift::runtime
