// Tests for the bench harness utilities: the table printer, experiment
// helpers, the metrics report (its document and path knob), and the
// workbench model cache (train -> save -> load must give bit-identical
// model behaviour).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "benchutil/experiments.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "core/msbo.h"
#include "obs/episode_trace.h"
#include "obs/json.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "scoped_env.h"
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
  obs::MetricsRegistry registry;
  registry.GetCounter("c").Increment();
  std::string written;
  {
    ScopedEnv empty("VDRIFT_METRICS_JSON", "");
    written = EmitMetricsJson(registry, nullptr, nullptr, path);
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

TEST(ReportTest, MetricsReportEmbedsEpisodes) {
  obs::MetricsRegistry reg;
  reg.GetCounter("c").Increment();
  obs::EpisodeRecorder recorder;
  obs::EpisodeFrame frame;
  frame.frame_index = 3;
  frame.drift = true;
  recorder.RecordFrame(frame);
  recorder.AnnotateDecision("model-2");
  auto parsed = obs::json::Parse(MetricsReportJson(reg, &recorder, nullptr));
  ASSERT_TRUE(parsed.ok());
  const obs::json::Value& v = parsed.value();
  const obs::json::Value* episodes = v.Find("episodes");
  ASSERT_NE(episodes, nullptr);
  ASSERT_TRUE(episodes->is_array());
  ASSERT_EQ(episodes->array_value.size(), 1u);
  const obs::json::Value& episode = episodes->array_value[0];
  EXPECT_EQ(episode.Find("detect_frame")->number_value, 3.0);
  EXPECT_EQ(episode.Find("decision")->string_value, "model-2");
  EXPECT_EQ(episode.Find("frames")->array_value.size(), 1u);

  // Without a recorder the key still exists (empty array).
  auto bare = obs::json::Parse(MetricsReportJson(reg, nullptr, nullptr));
  ASSERT_TRUE(bare.ok());
  const obs::json::Value* none = bare.value().Find("episodes");
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->is_array());
  EXPECT_TRUE(none->array_value.empty());
}

TEST(ReportTest, MetricsReportEmbedsAlerts) {
  auto rules = obs::ParseSloSpec("drop=dropped:delta/frames:delta<0.1");
  ASSERT_TRUE(rules.ok());
  obs::HealthWatchdog dog(rules.value());
  obs::MetricsWindow window;
  window.end_time = 10.0;
  window.counter_deltas["dropped"] = window.counter_totals["dropped"] = 50;
  window.counter_deltas["frames"] = window.counter_totals["frames"] = 100;
  ASSERT_EQ(dog.Evaluate(window).size(), 1u);

  // The report splices the watchdog's alert array under "alerts".
  obs::MetricsRegistry reg;
  auto report = obs::json::Parse(MetricsReportJson(reg, nullptr, &dog));
  ASSERT_TRUE(report.ok());
  const obs::json::Value* embedded = report.value().Find("alerts");
  ASSERT_NE(embedded, nullptr);
  ASSERT_EQ(embedded->array_value.size(), 1u);
  // Without a watchdog the key still exists (empty array).
  auto bare = obs::json::Parse(MetricsReportJson(reg, nullptr, nullptr));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value().Find("alerts")->array_value.empty());
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
  select::MsboCalibration first_calibration =
      select::CalibrateMsbo(first->registry, first->calibration_samples)
          .ValueOrDie();
  select::MsboCalibration second_calibration =
      select::CalibrateMsbo(second->registry, second->calibration_samples)
          .ValueOrDie();
  ASSERT_EQ(first_calibration.pc_avg.size(),
            second_calibration.pc_avg.size());
  for (size_t i = 0; i < first_calibration.pc_avg.size(); ++i) {
    EXPECT_NEAR(first_calibration.pc_avg[i], second_calibration.pc_avg[i],
                1e-9);
  }
  EXPECT_NEAR(first_calibration.global_h, second_calibration.global_h,
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

// A Tokyo workbench small enough to train three times in a test.
WorkbenchOptions TinyCacheOptions(const std::string& cache_dir) {
  WorkbenchOptions options;
  options.dataset_scale = 0.002;
  options.train_frames = 40;
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.trainer.epochs = 2;
  options.provision.profile.sigma_size = 30;
  options.provision.classifier_train.epochs = 1;
  options.provision.ensemble_size = 1;
  options.cache_dir = cache_dir;
  return options;
}

// A retrained workbench must be the one a build without any cache makes.
void ExpectSameModels(const Workbench& expected, const Workbench& actual) {
  ASSERT_EQ(actual.registry.size(), expected.registry.size());
  for (int m = 0; m < expected.registry.size(); ++m) {
    EXPECT_EQ(actual.registry.at(m).ensemble->size(),
              expected.registry.at(m).ensemble->size());
  }
  std::vector<video::Frame> probe = video::GenerateFrames(
      expected.dataset.segments[0].spec, 5, expected.dataset.image_size, 778);
  for (int m = 0; m < expected.registry.size(); ++m) {
    for (const video::Frame& f : probe) {
      EXPECT_EQ(expected.registry.at(m).count_model->PredictProba(f.pixels),
                actual.registry.at(m).count_model->PredictProba(f.pixels));
      EXPECT_EQ(expected.registry.at(m).profile->Encode(f.pixels),
                actual.registry.at(m).profile->Encode(f.pixels));
    }
  }
}

TEST(WorkbenchTest, FlippedWeightByteRetrainsAndLeavesNoTmp) {
  // One flipped bit in a cached weight must not load: the cache record is
  // checksummed, so the workbench retrains and matches a fresh build.
  std::string cache =
      (std::filesystem::temp_directory_path() / "vdrift_flipped_cache")
          .string();
  std::filesystem::remove_all(cache);
  WorkbenchOptions options = TinyCacheOptions(cache);
  auto fresh = BuildWorkbench("Tokyo", options).ValueOrDie();
  ASSERT_FALSE(fresh->loaded_from_cache);
  // A successful save leaves exactly the cache file: no ".tmp" behind.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].extension(), ".tmp");
  // Flip one byte in the middle of the file, inside the weights.
  {
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff middle =
        static_cast<std::streamoff>(std::filesystem::file_size(files[0]) / 2);
    f.seekg(middle);
    char byte = 0;
    f.get(byte);
    f.seekp(middle);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  auto rebuilt = BuildWorkbench("Tokyo", options).ValueOrDie();
  EXPECT_FALSE(rebuilt->loaded_from_cache);
  ExpectSameModels(*fresh, *rebuilt);
  std::filesystem::remove_all(cache);
}

// Builds `cached` into its cache dir, then asks for `requested` there: the
// cache must not load, and the retrained models must not depend on how far
// the load got.
void ExpectMismatchRetrainsLikeAFreshBuild(const WorkbenchOptions& cached,
                                           const WorkbenchOptions& requested) {
  std::filesystem::remove_all(requested.cache_dir);
  ASSERT_TRUE(BuildWorkbench("Tokyo", cached).ok());
  auto rebuilt = BuildWorkbench("Tokyo", requested).ValueOrDie();
  EXPECT_FALSE(rebuilt->loaded_from_cache);
  WorkbenchOptions uncached = requested;
  uncached.cache_dir = "";
  auto fresh = BuildWorkbench("Tokyo", uncached).ValueOrDie();
  ExpectSameModels(*fresh, *rebuilt);
  std::filesystem::remove_all(requested.cache_dir);
}

TEST(WorkbenchTest, ArchitectureMismatchRetrainsLikeAFreshBuild) {
  // A sound cache written for other classifier shapes fails part-way
  // through the load; one written for another ensemble size has the same
  // shapes and must be refused by the options sealed into it.
  std::string cache =
      (std::filesystem::temp_directory_path() / "vdrift_mismatched_cache")
          .string();
  WorkbenchOptions narrow = TinyCacheOptions(cache);
  narrow.provision.classifier_filters = 2;
  WorkbenchOptions wide = TinyCacheOptions(cache);
  wide.provision.classifier_filters = 3;
  ExpectMismatchRetrainsLikeAFreshBuild(narrow, wide);
  WorkbenchOptions ensemble_of_three = TinyCacheOptions(cache);
  ensemble_of_three.provision.ensemble_size = 3;
  ExpectMismatchRetrainsLikeAFreshBuild(TinyCacheOptions(cache),
                                        ensemble_of_three);
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
