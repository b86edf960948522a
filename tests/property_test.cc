// Cross-cutting property tests: parameterized sweeps over the invariants
// the paper's machinery rests on — betting-function validity for whole
// families of parameters, renderer monotonicity, martingale behaviour
// under null vs alternative, and metric accounting.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/betting.h"
#include "core/martingale.h"
#include "core/threshold.h"
#include "pipeline/pipeline.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "tensor/ops.h"
#include "video/renderer.h"
#include "video/scene.h"

namespace vdrift {
namespace {

using stats::Rng;

// --- Betting validity across the whole epsilon family. ---
// For every multiplicative bet, exp(Increment(p)) must integrate to ~1:
// this is what makes prod g(p_i) a martingale (paper Eq. 5-6).

class PowerBetValidity : public ::testing::TestWithParam<double> {};

TEST_P(PowerBetValidity, IntegratesToOne) {
  conformal::PowerLogBetting betting(GetParam(), 1e-7);
  double integral = 0.0;
  const int kSteps = 400000;
  for (int i = 0; i < kSteps; ++i) {
    double p = (i + 0.5) / kSteps;
    integral += std::exp(betting.Increment(p)) / kSteps;
  }
  EXPECT_NEAR(integral, 1.0, 0.02) << "epsilon=" << GetParam();
}

// epsilon below ~0.3 concentrates integrand mass under the numeric grid's
// resolution, so the sweep starts at 0.3.
INSTANTIATE_TEST_SUITE_P(Epsilons, PowerBetValidity,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

class SymmetricBetValidity : public ::testing::TestWithParam<double> {};

TEST_P(SymmetricBetValidity, IntegratesToOne) {
  conformal::SymmetricPowerLogBetting betting(GetParam(), 1e-7);
  double integral = 0.0;
  const int kSteps = 400000;
  for (int i = 0; i < kSteps; ++i) {
    double p = (i + 0.5) / kSteps;
    integral += std::exp(betting.Increment(p)) / kSteps;
  }
  EXPECT_NEAR(integral, 1.0, 0.02) << "epsilon=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Epsilons, SymmetricBetValidity,
                         ::testing::Values(0.4, 0.55, 0.7, 0.85));

TEST(SymmetricBetTest, SymmetricAroundHalf) {
  conformal::SymmetricPowerLogBetting betting;
  for (double p : {0.01, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(betting.Increment(p), betting.Increment(1.0 - p), 1e-9);
  }
}

TEST(SymmetricBetTest, GrowsAtBothExtremes) {
  conformal::SymmetricPowerLogBetting betting;
  EXPECT_GT(betting.Increment(0.001), 1.0);
  EXPECT_GT(betting.Increment(0.999), 1.0);
  EXPECT_LT(betting.Increment(0.5), 0.0);
}

// --- Martingale power: detection latency shrinks as the drift gets
// stronger (p-values get smaller). ---

// A weak drift (moderate p-values) is *undetectable* at small W: the
// windowed rate test needs W * Increment(p) > tau. Each case pairs an
// effect size with a window large enough to make detection feasible, and
// the latency bound tightens as the drift strengthens.
struct PowerCase {
  double drifted_p;
  int window;
  int max_frames;
};

class MartingalePower : public ::testing::TestWithParam<PowerCase> {};

TEST_P(MartingalePower, LatencyScalesWithEffectSize) {
  PowerCase c = GetParam();
  auto betting = conformal::MakeDefaultBetting();
  conformal::ConformalMartingale martingale(betting.get(), c.window, 0.5);
  Rng rng(17);
  int frames = -1;
  for (int i = 0; i < 5000; ++i) {
    // p-values concentrated near `drifted_p` with small jitter.
    double p = std::clamp(c.drifted_p * (0.5 + rng.NextDouble()), 0.0, 1.0);
    if (martingale.Update(p)) {
      frames = i + 1;
      break;
    }
  }
  ASSERT_GT(frames, 0) << "martingale never fired at p~" << c.drifted_p
                       << " with W=" << c.window;
  EXPECT_LE(frames, c.max_frames);
}

TEST(MartingaleBlindSpotTest, ModeratePUndetectableAtSmallWindow) {
  // Documented limitation of the windowed test: at W=3, p ~ 0.05 can never
  // cross tau because 3 * Increment(0.05) < tau(3, 0.5).
  auto betting = conformal::MakeDefaultBetting();
  EXPECT_LT(3.0 * betting->Increment(0.05),
            conformal::Threshold(conformal::ThresholdPolicy::kPaper, 3, 0.5));
  conformal::ConformalMartingale martingale(betting.get(), 3, 0.5);
  Rng rng(18);
  for (int i = 0; i < 3000; ++i) {
    double p = std::clamp(0.05 * (0.5 + rng.NextDouble()), 0.0, 1.0);
    ASSERT_FALSE(martingale.Update(p)) << "fired at frame " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(EffectSizes, MartingalePower,
                         ::testing::Values(PowerCase{0.002, 3, 10},
                                           PowerCase{0.01, 12, 60},
                                           PowerCase{0.05, 200, 1500}));

// --- Threshold table sanity across a grid. ---

TEST(ThresholdGridTest, AllPositiveAndOrdered) {
  for (int w : {1, 2, 3, 5, 10, 50}) {
    for (double r : {0.05, 0.1, 0.25, 0.5, 0.75, 0.99}) {
      double paper = conformal::Threshold(
          conformal::ThresholdPolicy::kPaper, w, r);
      double hoeffding = conformal::Threshold(
          conformal::ThresholdPolicy::kHoeffding, w, r);
      EXPECT_GT(hoeffding, 0.0);
      EXPECT_GT(paper, hoeffding);
    }
  }
}

// --- Renderer monotonicity: mean brightness grows with base luminance.

class RendererLuminance : public ::testing::TestWithParam<double> {};

TEST_P(RendererLuminance, MeanTracksLuminance) {
  video::Renderer renderer(32);
  Rng rng(23);
  video::SceneSpec spec;
  spec.base_luminance = GetParam();
  spec.object_rate_mean = 5.0;
  stats::RunningMoments m;
  for (int i = 0; i < 20; ++i) {
    m.Add(tensor::Mean(renderer.Render(spec, &rng).pixels));
  }
  // Mean pixel value correlates with luminance: coarse monotone bounds.
  if (GetParam() <= 0.2) {
    EXPECT_LT(m.mean(), 0.35);
  }
  if (GetParam() >= 0.7) {
    EXPECT_GT(m.mean(), 0.4);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RendererLuminance,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

// Weather sweep: every overlay leaves pixels in [0,1] and preserves truth.
class RendererWeather : public ::testing::TestWithParam<video::Weather> {};

TEST_P(RendererWeather, PixelsBoundedTruthIntact) {
  video::Renderer renderer(32);
  Rng rng(29);
  video::SceneSpec spec;
  spec.weather = GetParam();
  spec.weather_intensity = 0.9;
  spec.object_rate_mean = 10.0;
  for (int i = 0; i < 10; ++i) {
    video::Frame f = renderer.Render(spec, &rng);
    for (int64_t j = 0; j < f.pixels.size(); ++j) {
      ASSERT_GE(f.pixels[j], 0.0f);
      ASSERT_LE(f.pixels[j], 1.0f);
    }
    for (const video::ObjectTruth& o : f.truth.objects) {
      ASSERT_GE(o.cx, 0.0f);
      ASSERT_LE(o.cx, 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Overlays, RendererWeather,
                         ::testing::Values(video::Weather::kClear,
                                           video::Weather::kRain,
                                           video::Weather::kSnow,
                                           video::Weather::kFog));

// --- Pipeline metric accounting. ---

TEST(PipelineMetricsTest, TotalsAggregatePerSequence) {
  pipeline::PipelineMetrics metrics;
  metrics.per_sequence[0].count_correct = 3;
  metrics.per_sequence[0].count_total = 4;
  metrics.per_sequence[0].invocations = 4;
  metrics.per_sequence[1].count_correct = 1;
  metrics.per_sequence[1].count_total = 6;
  metrics.per_sequence[1].invocations = 9;
  pipeline::SequenceAccuracy totals = metrics.Totals();
  EXPECT_EQ(totals.count_correct, 4);
  EXPECT_EQ(totals.count_total, 10);
  EXPECT_DOUBLE_EQ(totals.CountAq(), 0.4);
  EXPECT_DOUBLE_EQ(totals.InvocationsPerFrame(), 1.3);
}

TEST(PipelineMetricsTest, EmptyAccuracyIsZero) {
  pipeline::SequenceAccuracy acc;
  EXPECT_DOUBLE_EQ(acc.CountAq(), 0.0);
  EXPECT_DOUBLE_EQ(acc.PredicateAq(), 0.0);
  EXPECT_DOUBLE_EQ(acc.InvocationsPerFrame(), 0.0);
}

}  // namespace
}  // namespace vdrift
