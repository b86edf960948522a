// Tests for the ODIN baseline: cluster mechanics (centroid, density band,
// KL promotion), assignment semantics, drift declaration, and ensemble
// formation on overlapping clusters.

#include <vector>

#include <gtest/gtest.h>

#include "baseline/classic.h"
#include "baseline/odin.h"
#include "stats/rng.h"

namespace vdrift::baseline {
namespace {

using stats::Rng;

std::vector<std::vector<float>> Cloud(int n, float cx, float cy, float spread,
                                      Rng* rng) {
  std::vector<std::vector<float>> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({static_cast<float>(rng->NextGaussian(cx, spread)),
                      static_cast<float>(rng->NextGaussian(cy, spread))});
  }
  return points;
}

TEST(OdinClusterTest, CentroidIsRunningMean) {
  OdinCluster cluster(2, OdinConfig{});
  cluster.Add(std::vector<float>{0.0f, 0.0f});
  cluster.Add(std::vector<float>{2.0f, 4.0f});
  EXPECT_FLOAT_EQ(cluster.centroid()[0], 1.0f);
  EXPECT_FLOAT_EQ(cluster.centroid()[1], 2.0f);
  EXPECT_EQ(cluster.size(), 2);
}

TEST(OdinClusterTest, BandEnclosesCentralDelta) {
  Rng rng(1);
  OdinConfig config;
  config.delta = 0.5;
  OdinCluster cluster(2, config);
  for (const auto& p : Cloud(200, 0.0f, 0.0f, 1.0f, &rng)) cluster.Add(p);
  EXPECT_GT(cluster.band_upper(), cluster.band_lower());
  EXPECT_GT(cluster.band_lower(), 0.0);
  // Roughly half the member distances should fall inside the band; we
  // check the quantile ordering rather than exact mass.
  EXPECT_LT(cluster.band_upper(), 3.0);
}

TEST(OdinClusterTest, AcceptsInsideRejectsFarAway) {
  Rng rng(2);
  OdinCluster cluster(2, OdinConfig{});
  for (const auto& p : Cloud(200, 0.0f, 0.0f, 1.0f, &rng)) cluster.Add(p);
  std::vector<float> near{0.3f, -0.2f};
  std::vector<float> far{15.0f, 15.0f};
  EXPECT_TRUE(cluster.Accepts(cluster.DistanceTo(near)));
  EXPECT_FALSE(cluster.Accepts(cluster.DistanceTo(far)));
}

TEST(OdinClusterTest, EmptyClusterAcceptsNothing) {
  OdinCluster cluster(2, OdinConfig{});
  EXPECT_FALSE(cluster.Accepts(0.0));
}

TEST(OdinClusterTest, KlShrinksAsClusterStabilizes) {
  Rng rng(3);
  OdinCluster cluster(2, OdinConfig{});
  std::vector<std::vector<float>> points = Cloud(400, 0.0f, 0.0f, 1.0f, &rng);
  for (int i = 0; i < 20; ++i) cluster.Add(points[static_cast<size_t>(i)]);
  double kl_small =
      cluster.KlAfterAdding(cluster.DistanceTo(points[20]));
  for (int i = 20; i < 400; ++i) cluster.Add(points[static_cast<size_t>(i)]);
  double kl_big = cluster.KlAfterAdding(cluster.DistanceTo(points[0]));
  EXPECT_LT(kl_big, kl_small);
  EXPECT_LT(kl_big, 0.007);
}

TEST(OdinDetectTest, AssignsToSeededCluster) {
  Rng rng(4);
  OdinDetect odin(OdinConfig{}, 2);
  int c0 = odin.AddPermanentCluster(Cloud(150, 0.0f, 0.0f, 1.0f, &rng), 7);
  EXPECT_EQ(c0, 0);
  EXPECT_EQ(odin.num_clusters(), 1);
  std::vector<float> inlier{0.2f, 0.1f};
  OdinObservation obs = odin.Observe(inlier);
  ASSERT_EQ(obs.assigned_clusters.size(), 1u);
  EXPECT_EQ(obs.assigned_clusters[0], 0);
  ASSERT_EQ(obs.models.size(), 1u);
  EXPECT_EQ(obs.models[0], 7);
  EXPECT_FALSE(obs.drift);
  EXPECT_FALSE(obs.in_temporary);
}

TEST(OdinDetectTest, OutlierGoesToTemporary) {
  Rng rng(5);
  OdinDetect odin(OdinConfig{}, 2);
  odin.AddPermanentCluster(Cloud(150, 0.0f, 0.0f, 1.0f, &rng), 0);
  std::vector<float> outlier{20.0f, 20.0f};
  OdinObservation obs = odin.Observe(outlier);
  EXPECT_TRUE(obs.assigned_clusters.empty());
  EXPECT_TRUE(obs.in_temporary);
  EXPECT_FALSE(obs.drift);
}

TEST(OdinDetectTest, TemporaryPromotesToDriftOnStableStream) {
  Rng rng(6);
  OdinConfig config;
  config.min_temporary_size = 8;
  OdinDetect odin(config, 2);
  odin.AddPermanentCluster(Cloud(150, 0.0f, 0.0f, 1.0f, &rng), 0);
  odin.set_next_model_index(3);
  // Feed a stable far-away cloud; the temporary cluster must eventually
  // stabilize and be promoted (= drift declared).
  int frames_to_drift = -1;
  for (int i = 0; i < 400; ++i) {
    std::vector<float> p{static_cast<float>(rng.NextGaussian(20.0, 0.5)),
                         static_cast<float>(rng.NextGaussian(20.0, 0.5))};
    OdinObservation obs = odin.Observe(p);
    if (obs.drift) {
      frames_to_drift = i + 1;
      EXPECT_EQ(obs.promoted_cluster, 1);
      break;
    }
  }
  ASSERT_GT(frames_to_drift, 0) << "ODIN never promoted the temp cluster";
  EXPECT_GT(frames_to_drift, config.min_temporary_size);
  EXPECT_EQ(odin.num_clusters(), 2);
  EXPECT_EQ(odin.cluster(1).model_index(), 3);
  // After promotion, new frames from the same cloud assign to cluster 1.
  std::vector<float> p{20.0f, 20.0f};
  OdinObservation obs = odin.Observe(p);
  ASSERT_FALSE(obs.assigned_clusters.empty());
  EXPECT_EQ(obs.assigned_clusters[0], 1);
}

TEST(OdinDetectTest, OverlappingClustersFormEnsemble) {
  Rng rng(7);
  OdinDetect odin(OdinConfig{}, 2);
  odin.AddPermanentCluster(Cloud(150, 0.0f, 0.0f, 1.5f, &rng), 0);
  odin.AddPermanentCluster(Cloud(150, 1.0f, 0.0f, 1.5f, &rng), 1);
  // A frame between the two centroids should often be claimed by both.
  int ensembles = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> p{0.5f + 0.05f * static_cast<float>(rng.NextGaussian()),
                         0.05f * static_cast<float>(rng.NextGaussian())};
    OdinObservation obs = odin.Observe(p);
    if (obs.models.size() > 1) ++ensembles;
  }
  EXPECT_GT(ensembles, 25)
      << "overlapping clusters rarely produced ensembles";
}

TEST(OdinDetectTest, ModelsDeduplicated) {
  Rng rng(8);
  OdinDetect odin(OdinConfig{}, 2);
  // Two clusters backed by the same model.
  odin.AddPermanentCluster(Cloud(150, 0.0f, 0.0f, 1.5f, &rng), 4);
  odin.AddPermanentCluster(Cloud(150, 0.5f, 0.0f, 1.5f, &rng), 4);
  std::vector<float> p{0.25f, 0.0f};
  OdinObservation obs = odin.Observe(p);
  if (obs.assigned_clusters.size() > 1) {
    EXPECT_EQ(obs.models.size(), 1u);
  }
}

TEST(OdinDetectDeathTest, RejectsALatentOfTheWrongWidth) {
  // A width mismatch (e.g. clusters sized by the bare VAE latent while the
  // encoder appends frame statistics) must abort in every build type, not
  // read past the centroid.
  Rng rng(6);
  OdinDetect odin(OdinConfig{}, 2);
  EXPECT_DEATH(odin.AddPermanentCluster({{0.0f, 0.0f, 0.0f}}, 0), "width");
  odin.AddPermanentCluster(Cloud(40, 0.0f, 0.0f, 0.3f, &rng), 0);
  EXPECT_DEATH(odin.Observe(std::vector<float>{0.0f, 0.0f, 0.0f}), "width");
  EXPECT_DEATH(odin.Observe(std::vector<float>{0.0f}), "width");
}

// Property sweep over delta: wider bands accept more, so the fraction of
// frames falling to the temporary path must shrink as delta grows.
class OdinDeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(OdinDeltaSweep, AcceptanceGrowsWithDelta) {
  double delta = GetParam();
  Rng rng(9);
  OdinConfig config;
  config.delta = delta;
  OdinDetect odin(config, 2);
  odin.AddPermanentCluster(Cloud(200, 0.0f, 0.0f, 1.0f, &rng), 0);
  int accepted = 0;
  const int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<float> p{static_cast<float>(rng.NextGaussian()),
                         static_cast<float>(rng.NextGaussian())};
    OdinObservation obs = odin.Observe(p);
    if (!obs.assigned_clusters.empty()) ++accepted;
  }
  // With delta = 0.9 nearly everything in-distribution is accepted; with
  // delta = 0.3 a sizable fraction overflows to the temporary cluster.
  if (delta >= 0.9) {
    EXPECT_GT(accepted, kFrames * 0.75);
  } else if (delta <= 0.3) {
    EXPECT_LT(accepted, kFrames * 0.95);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Deltas, OdinDeltaSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

TEST(KsWindowDetectorTest, RejectsBadConfig) {
  KsWindowDetector::Config config;
  EXPECT_FALSE(KsWindowDetector::Make({1.0, 2.0}, config).ok());
  std::vector<double> ref(64, 0.5);
  config.alpha = 0.0;
  EXPECT_FALSE(KsWindowDetector::Make(ref, config).ok());
  config.alpha = 1e-3;
  config.window = 4;
  config.min_window = 16;
  EXPECT_FALSE(KsWindowDetector::Make(ref, config).ok());
}

TEST(KsWindowDetectorTest, SilentOnMatchingFiresOnShift) {
  Rng rng(20);
  std::vector<double> reference;
  for (int i = 0; i < 300; ++i) reference.push_back(rng.NextGaussian());
  KsWindowDetector detector =
      KsWindowDetector::Make(reference, KsWindowDetector::Config{})
          .ValueOrDie();
  int false_alarms = 0;
  for (int i = 0; i < 500; ++i) {
    if (detector.Observe(rng.NextGaussian())) ++false_alarms;
  }
  EXPECT_LE(false_alarms, 2);
  detector.Reset();
  int frames = -1;
  for (int i = 0; i < 200; ++i) {
    if (detector.Observe(rng.NextGaussian(2.0, 1.0))) {
      frames = i + 1;
      break;
    }
  }
  ASSERT_GT(frames, 0) << "KS detector missed a 2-sigma mean shift";
  EXPECT_LE(frames, 80);
}

TEST(KsWindowDetectorTest, ResetClearsWindow) {
  Rng rng(21);
  std::vector<double> reference;
  for (int i = 0; i < 100; ++i) reference.push_back(rng.NextDouble());
  KsWindowDetector detector =
      KsWindowDetector::Make(reference, KsWindowDetector::Config{})
          .ValueOrDie();
  for (int i = 0; i < 40; ++i) detector.Observe(rng.NextDouble());
  detector.Reset();
  EXPECT_DOUBLE_EQ(detector.last_p_value(), 1.0);
}

TEST(PageHinkleyTest, SilentOnStationaryFiresOnShift) {
  Rng rng(22);
  PageHinkleyDetector::Config config;
  config.lambda = 5.0;
  PageHinkleyDetector detector(config);
  int false_alarms = 0;
  for (int i = 0; i < 2000; ++i) {
    if (detector.Observe(0.5 + 0.05 * rng.NextGaussian())) ++false_alarms;
  }
  EXPECT_EQ(false_alarms, 0);
  int frames = -1;
  for (int i = 0; i < 400; ++i) {
    if (detector.Observe(0.9 + 0.05 * rng.NextGaussian())) {
      frames = i + 1;
      break;
    }
  }
  ASSERT_GT(frames, 0) << "Page-Hinkley missed a mean shift";
  EXPECT_LE(frames, 60);
}

TEST(PageHinkleyTest, DetectsDownwardShiftToo) {
  Rng rng(23);
  PageHinkleyDetector::Config config;
  config.lambda = 5.0;
  PageHinkleyDetector detector(config);
  for (int i = 0; i < 500; ++i) {
    detector.Observe(0.5 + 0.05 * rng.NextGaussian());
  }
  int frames = -1;
  for (int i = 0; i < 400; ++i) {
    if (detector.Observe(0.1 + 0.05 * rng.NextGaussian())) {
      frames = i + 1;
      break;
    }
  }
  ASSERT_GT(frames, 0);
}

TEST(PageHinkleyTest, ResetClearsState) {
  PageHinkleyDetector detector(PageHinkleyDetector::Config{});
  for (int i = 0; i < 50; ++i) detector.Observe(1.0);
  detector.Reset();
  EXPECT_DOUBLE_EQ(detector.statistic(), 0.0);
}


}  // namespace
}  // namespace vdrift::baseline
