// Tests for the bench harness utilities: the table printer, experiment
// helpers, the metrics-report path knob, and the workbench model cache
// (train -> save -> load must give bit-identical model behaviour).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "benchutil/experiments.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "obs/json.h"
#include "video/stream.h"

namespace vdrift::benchutil {
namespace {

TEST(TableTest, FormatsAlignedColumns) {
  Table table({"Name", "Value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  Table table({"A", "B", "C"});
  table.AddRow({"x"});
  std::string out = table.ToString();
  EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(FmtTest, Precision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(2.0, 0), "2");
  EXPECT_EQ(Fmt(-0.5, 1), "-0.5");
}

TEST(EmitMetricsJsonTest, EmptyOverrideMeansTheDefaultPath) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "vdrift_emit_default_metrics.json")
                         .string();
  std::filesystem::remove(path);
  const char* old = std::getenv("VDRIFT_METRICS_JSON");
  std::string saved = old != nullptr ? old : "";
  setenv("VDRIFT_METRICS_JSON", "", 1);
  obs::MetricsRegistry registry;
  registry.GetCounter("c").Increment();
  std::string written = EmitMetricsJson(registry, nullptr, nullptr, path);
  if (old != nullptr) {
    setenv("VDRIFT_METRICS_JSON", saved.c_str(), 1);
  } else {
    unsetenv("VDRIFT_METRICS_JSON");
  }
  EXPECT_EQ(written, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  auto report = obs::json::Parse(text.str());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report.value().Find("alerts"), nullptr);
  std::filesystem::remove(path);
}

TEST(MakeDatasetTest, KnownNames) {
  EXPECT_EQ(MakeDataset("BDD", 0.01).segments.size(), 4u);
  EXPECT_EQ(MakeDataset("Detrac", 0.01).segments.size(), 5u);
  EXPECT_EQ(MakeDataset("Tokyo", 0.01).segments.size(), 3u);
}

TEST(WorkbenchTest, CacheRoundTripPreservesModels) {
  // Tiny configuration so the test trains in seconds.
  WorkbenchOptions options;
  options.dataset_scale = 0.002;
  options.train_frames = 60;
  options.calibration_sample = 8;
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.trainer.epochs = 3;
  options.provision.profile.sigma_size = 40;
  options.provision.classifier_train.epochs = 2;
  options.provision.ensemble_size = 2;
  std::string cache =
      (std::filesystem::temp_directory_path() / "vdrift_test_cache")
          .string();
  std::filesystem::remove_all(cache);
  options.cache_dir = cache;

  auto first = BuildWorkbench("Tokyo", options).ValueOrDie();
  EXPECT_FALSE(first->loaded_from_cache);
  auto second = BuildWorkbench("Tokyo", options).ValueOrDie();
  EXPECT_TRUE(second->loaded_from_cache);

  ASSERT_EQ(first->registry.size(), second->registry.size());
  // Identical model behaviour on fresh frames.
  std::vector<video::Frame> probe = video::GenerateFrames(
      first->dataset.segments[0].spec, 5, first->dataset.image_size, 777);
  for (int m = 0; m < first->registry.size(); ++m) {
    for (const video::Frame& f : probe) {
      EXPECT_EQ(first->registry.at(m).count_model->Predict(f.pixels),
                second->registry.at(m).count_model->Predict(f.pixels));
      std::vector<float> za = first->registry.at(m).profile->Encode(f.pixels);
      std::vector<float> zb =
          second->registry.at(m).profile->Encode(f.pixels);
      ASSERT_EQ(za.size(), zb.size());
      for (size_t i = 0; i < za.size(); ++i) {
        EXPECT_NEAR(za[i], zb[i], 1e-5f);
      }
    }
    // Same reference sample.
    EXPECT_EQ(first->registry.at(m).profile->sigma().size(),
              second->registry.at(m).profile->sigma().size());
  }
  // Calibration recomputed identically.
  ASSERT_EQ(first->calibration.pc_avg.size(),
            second->calibration.pc_avg.size());
  for (size_t i = 0; i < first->calibration.pc_avg.size(); ++i) {
    EXPECT_NEAR(first->calibration.pc_avg[i], second->calibration.pc_avg[i],
                1e-9);
  }
  EXPECT_NEAR(first->calibration.global_h, second->calibration.global_h,
              1e-9);
  std::filesystem::remove_all(cache);
}

TEST(WorkbenchTest, CorruptCacheFallsBackToTraining) {
  WorkbenchOptions options;
  options.dataset_scale = 0.002;
  options.train_frames = 40;
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.trainer.epochs = 2;
  options.provision.profile.sigma_size = 30;
  options.provision.classifier_train.epochs = 1;
  options.provision.ensemble_size = 1;
  std::string cache =
      (std::filesystem::temp_directory_path() / "vdrift_bad_cache").string();
  std::filesystem::remove_all(cache);
  std::filesystem::create_directories(cache);
  options.cache_dir = cache;
  // Populate the cache once so a file with the right name exists.
  auto bench_once = BuildWorkbench("Tokyo", options);
  ASSERT_TRUE(bench_once.ok());
  // Overwrite every cache file with garbage.
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  auto bench = BuildWorkbench("Tokyo", options);
  ASSERT_TRUE(bench.ok());
  EXPECT_FALSE(bench.value()->loaded_from_cache);
  EXPECT_EQ(bench.value()->registry.size(), 3);
  std::filesystem::remove_all(cache);
}

TEST(ExperimentsTest, LatencyHelpersAgreeWithGroundTruth) {
  // Build a tiny profile and verify the helper detects an obvious drift
  // and stays silent on matching frames.
  WorkbenchOptions options;
  options.dataset_scale = 0.002;
  options.train_frames = 120;
  options.cache_dir = "";
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.trainer.epochs = 10;
  options.provision.classifier_train.epochs = 1;
  options.provision.ensemble_size = 1;
  auto bench = BuildWorkbench("BDD", options).ValueOrDie();
  const conformal::DistributionProfile& day = *bench->registry.at(0).profile;
  std::vector<video::Frame> night = video::GenerateFrames(
      bench->dataset.segments[1].spec, 200, bench->dataset.image_size, 42);
  conformal::DriftInspectorConfig config;
  LatencyResult latency = MeasureDiLatency(day, night, config, 1);
  EXPECT_GT(latency.frames_to_detect, 0);
  EXPECT_LE(latency.frames_to_detect, 60);
  std::vector<video::Frame> more_day = video::GenerateFrames(
      bench->dataset.segments[0].spec, 400, bench->dataset.image_size, 43);
  EXPECT_LE(CountFalseAlarms(day, more_day, config, 2), 1);
}

}  // namespace
}  // namespace vdrift::benchutil
