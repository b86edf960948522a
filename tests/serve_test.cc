// Fleet serving integration tests: N-stream determinism across thread
// counts, per-stream fault isolation, cross-stream model adoption through
// the published models, crash-drill recovery, and the frame-accounting
// books every stream must balance.

#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchutil/workbench.h"
#include "common/env.h"
#include "common/binio.h"
#include "detect/image_classifier.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "nn/classifier.h"
#include "nn/serialize.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "runtime/parallel.h"
#include "serve/fleet.h"
#include "serve/supervisor.h"
#include "stats/rng.h"
#include "tensor/tensor.h"
#include "video/datasets.h"
#include "video/stream.h"

namespace vdrift::serve {
namespace {

// The six counter families the fleet folds from {stream=...} series into
// unlabeled aggregates; kept in sync with fleet.cc by the sum test below.
constexpr const char* kCounterFamilies[] = {
    "vdrift.pipeline.frames",
    "vdrift.pipeline.drifts",
    "vdrift.pipeline.frames_dropped",
    "vdrift.pipeline.selection_failures",
    "vdrift.pipeline.redeployments",
    "vdrift.pipeline.checkpoint_failures",
};

void ExpectStreamIdentical(const StreamReport& x, const StreamReport& y) {
  EXPECT_EQ(x.label, y.label);
  EXPECT_EQ(x.frames, y.frames) << x.label;
  EXPECT_EQ(x.slices, y.slices) << x.label;
  EXPECT_EQ(x.restarts, y.restarts) << x.label;
  EXPECT_EQ(x.metrics.frames, y.metrics.frames) << x.label;
  EXPECT_EQ(x.metrics.drifts_detected, y.metrics.drifts_detected)
      << x.label;
  EXPECT_EQ(x.metrics.new_models_trained, y.metrics.new_models_trained)
      << x.label;
  EXPECT_EQ(x.metrics.drift_frames, y.metrics.drift_frames) << x.label;
  EXPECT_EQ(x.metrics.detect_lags, y.metrics.detect_lags) << x.label;
  EXPECT_EQ(x.metrics.selections, y.metrics.selections) << x.label;
  EXPECT_EQ(x.metrics.selection_invocations,
            y.metrics.selection_invocations)
      << x.label;
  EXPECT_EQ(x.metrics.degradation.frames_dropped,
            y.metrics.degradation.frames_dropped)
      << x.label;
  EXPECT_EQ(x.metrics.degradation.total_events(),
            y.metrics.degradation.total_events())
      << x.label;
  ASSERT_EQ(x.metrics.per_sequence.size(), y.metrics.per_sequence.size())
      << x.label;
  for (const auto& [seq, acc] : x.metrics.per_sequence) {
    const auto it = y.metrics.per_sequence.find(seq);
    ASSERT_NE(it, y.metrics.per_sequence.end()) << x.label;
    EXPECT_EQ(acc.count_correct, it->second.count_correct) << x.label;
    EXPECT_EQ(acc.count_total, it->second.count_total) << x.label;
    EXPECT_EQ(acc.invocations, it->second.invocations) << x.label;
  }
}

// Zero silent frame loss: every admitted frame either answered the
// count query or was dropped (and counted as dropped).
void ExpectBooksBalance(const StreamReport& stream) {
  EXPECT_EQ(stream.metrics.Totals().count_total +
                stream.metrics.degradation.frames_dropped,
            stream.metrics.frames)
      << stream.label;
}

// One shared workbench (same shape as the pipeline suite's fixture): a
// Tokyo-like 3-model registry, ~360 frames per stream replica.
class FleetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchutil::WorkbenchOptions options =
        benchutil::DefaultWorkbenchOptions();
    options.dataset_scale = 0.008;
    options.cache_dir = "";
    options.train_frames = 220;
    bench_ = benchutil::BuildWorkbench("Tokyo", options).ValueOrDie()
                 .release();
  }

  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static FleetOptions BaseOptions() {
    FleetOptions options;
    options.pipeline.selector =
        pipeline::PipelineConfig::Selector::kMsbo;
    options.pipeline.provision =
        benchutil::DefaultWorkbenchOptions().provision;
    options.pipeline.allow_training_new = false;
    options.slice_frames = 48;
    options.max_concurrent = 4;
    return options;
  }

  struct FleetRun {
    FleetReport report;
    std::shared_ptr<obs::MetricsRegistry> registry;
    int64_t sampler_windows = 0;
  };

  // Runs a fleet of n Tokyo replica streams (distinct render seeds, same
  // drift truth). `fault_spec` is the ParsePerStreamFaultSpec grammar;
  // labeled streams get their own injector and FaultyStream wrapper.
  static FleetRun RunTokyoFleet(const FleetOptions& options, int n,
                                const std::string& fault_spec = "") {
    std::vector<fault::StreamFaultPlan> plans =
        fault::ParsePerStreamFaultSpec(fault_spec).ValueOrDie();
    std::vector<std::unique_ptr<video::StreamGenerator>> streams;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::vector<std::unique_ptr<fault::FaultyStream>> wrapped;
    DriftFleet fleet(options);
    EXPECT_TRUE(fleet.AddBaseModels(bench_->registry,
                                    bench_->calibration_samples)
                    .ok());
    for (int i = 0; i < n; ++i) {
      std::string label = "s" + std::to_string(i);
      streams.push_back(std::make_unique<video::StreamGenerator>(
          bench_->dataset.segments, bench_->dataset.image_size,
          bench_->dataset.seed + 100 + static_cast<uint64_t>(i)));
      StreamSpec spec;
      spec.label = label;
      spec.stream = streams.back().get();
      for (const fault::StreamFaultPlan& plan : plans) {
        if (plan.stream != label) continue;
        injectors.push_back(
            std::make_unique<fault::FaultInjector>(plan.plan, 4242));
        spec.injector = injectors.back().get();
        wrapped.push_back(std::make_unique<fault::FaultyStream>(
            streams.back().get(), spec.injector));
        spec.stream = wrapped.back().get();
      }
      EXPECT_TRUE(fleet.AddStream(spec).ok());
    }
    FleetRun run;
    run.report = fleet.Run().ValueOrDie();
    run.registry = fleet.registry();
    if (fleet.sampler() != nullptr) {
      run.sampler_windows = fleet.sampler()->windows_sampled();
    }
    return run;
  }

  static benchutil::Workbench* bench_;
};

benchutil::Workbench* FleetFixture::bench_ = nullptr;

TEST_F(FleetFixture, EightStreamFleetIsDeterministicAcrossThreadCounts) {
  FleetOptions options = BaseOptions();
  options.sample_interval_rounds = 2;
  options.slo_spec = "default";
  FleetRun serial;
  {
    runtime::ScopedThreads scoped(1);
    serial = RunTokyoFleet(options, 8);
  }
  FleetRun parallel;
  {
    runtime::ScopedThreads scoped(4);
    parallel = RunTokyoFleet(options, 8);
  }
  ASSERT_EQ(serial.report.streams.size(), 8u);
  ASSERT_EQ(parallel.report.streams.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    ExpectStreamIdentical(serial.report.streams[i],
                          parallel.report.streams[i]);
  }
  // Every stream ran to exhaustion, drift-aware, without restarts.
  const int64_t total = bench_->dataset.total_frames();
  for (const StreamReport& stream : parallel.report.streams) {
    EXPECT_TRUE(stream.status.ok()) << stream.label;
    EXPECT_EQ(stream.frames, total) << stream.label;
    EXPECT_GE(stream.metrics.drifts_detected, 2) << stream.label;
    EXPECT_EQ(stream.restarts, 0) << stream.label;
    ExpectBooksBalance(stream);
  }
  // Fleet-level tallies agree too.
  EXPECT_EQ(serial.report.rounds, parallel.report.rounds);
  EXPECT_EQ(serial.report.backpressure_waits,
            parallel.report.backpressure_waits);
  // 8 streams over 4 slots: admission control had to queue someone.
  EXPECT_GT(parallel.report.backpressure_waits, 0);
  EXPECT_GT(parallel.report.rounds, 0);
  EXPECT_GT(parallel.sampler_windows, 0);
  // The {stream=...} series sum exactly to the unlabeled aggregates.
  for (const char* family : kCounterFamilies) {
    int64_t labeled_sum = 0;
    for (const StreamReport& stream : parallel.report.streams) {
      labeled_sum += parallel.registry
                         ->GetCounter(family, {{"stream", stream.label}})
                         .value();
    }
    EXPECT_EQ(labeled_sum, parallel.registry->GetCounter(family).value())
        << family;
  }
  // The aggregate frame counter covers every admitted frame of the fleet.
  EXPECT_EQ(
      parallel.registry->GetCounter("vdrift.pipeline.frames").value(),
      total * 8);
}

TEST_F(FleetFixture, SingleStreamFaultsDoNotPerturbTheRestOfTheFleet) {
  FleetOptions options = BaseOptions();
  FleetRun clean = RunTokyoFleet(options, 8);
  FleetRun faulted = RunTokyoFleet(
      options, 8, "s3@nan_frame:p=0.05;selector_fail:p=1.0");
  ASSERT_EQ(faulted.report.streams.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    const StreamReport& stream = faulted.report.streams[i];
    if (stream.label == "s3") {
      // The faulted stream degraded but kept its books: dropped frames
      // are counted, failed selections resolved by incumbent fallback.
      EXPECT_GT(stream.metrics.degradation.frames_dropped, 0);
      EXPECT_GT(stream.metrics.degradation.selector_failures, 0);
      EXPECT_TRUE(stream.status.ok());
      continue;
    }
    // Bit-identical to the fault-free fleet: one stream's faults never
    // leak into another stream's draw sequence or schedule.
    ExpectStreamIdentical(clean.report.streams[i], stream);
  }
  // Zero silent frame loss fleet-wide, faulted stream included.
  for (const StreamReport& stream : faulted.report.streams) {
    ExpectBooksBalance(stream);
  }
}

TEST_F(FleetFixture, ChaosKillRestoresAShardBitIdentically) {
  std::string dir = ::testing::TempDir() + "/vdrift_fleet_ckpt";
  ::mkdir(dir.c_str(), 0755);
  FleetOptions options = BaseOptions();
  options.max_concurrent = 3;
  options.checkpoint_dir = dir;
  FleetRun baseline = RunTokyoFleet(options, 3);
  options.chaos.events.push_back({fault::ChaosKind::kKillShard, 2, "s1"});
  FleetRun drilled = RunTokyoFleet(options, 3);
  ASSERT_EQ(drilled.report.streams.size(), 3u);
  EXPECT_EQ(drilled.report.shard_restarts, 1);
  EXPECT_EQ(drilled.report.streams[1].restarts, 1);
  for (size_t i = 0; i < 3; ++i) {
    const StreamReport& x = baseline.report.streams[i];
    const StreamReport& y = drilled.report.streams[i];
    // The killed shard resumed from its round-1 checkpoint and finished
    // with the same frames, detections, lag histogram, and accuracy books
    // as the run that never crashed (restart/slice tallies aside).
    EXPECT_EQ(x.frames, y.frames) << x.label;
    EXPECT_EQ(x.metrics.frames, y.metrics.frames) << x.label;
    EXPECT_EQ(x.metrics.drift_frames, y.metrics.drift_frames) << x.label;
    EXPECT_EQ(x.metrics.detect_lags, y.metrics.detect_lags) << x.label;
    EXPECT_EQ(x.metrics.selections, y.metrics.selections) << x.label;
    ASSERT_EQ(x.metrics.per_sequence.size(), y.metrics.per_sequence.size());
    for (const auto& [seq, acc] : x.metrics.per_sequence) {
      EXPECT_EQ(acc.count_correct,
                y.metrics.per_sequence.at(seq).count_correct)
          << x.label;
      EXPECT_EQ(acc.count_total, y.metrics.per_sequence.at(seq).count_total)
          << x.label;
    }
    ExpectBooksBalance(y);
  }
}

// --- Cross-stream adoption through the published models. ---

// Whether a model of this name is published fleet-wide.
bool IsPublished(const DriftFleet& fleet, const std::string& name) {
  for (const PublishedModel& model : fleet.published()) {
    if (model.entry.name == name) return true;
  }
  return false;
}

TEST(FleetAdoptionTest, ModelTrainedForOneStreamServesAnother) {
  // Both streams start with only a model for a sparse scene and drift into
  // a dense one (disjoint count regimes, so the base model is decisively
  // wrong after the drift). Stream "a" drifts first, fails selection, and
  // trains a model; stream "b" drifts later - after the barrier published
  // a's model - and must adopt and select it instead of training its own.
  stats::Rng rng(77);
  video::SyntheticDataset ds = video::MakeTokyoSynthetic(0.004);
  video::SceneSpec sparse = ds.SpecOf("Angle 1");
  sparse.name = "Sparse";
  sparse.object_rate_mean = 1.5;
  sparse.object_rate_std = 1.0;
  video::SceneSpec dense = sparse;
  dense.name = "Dense";
  dense.object_rate_mean = 14.0;
  dense.object_rate_std = 2.0;
  pipeline::ProvisionOptions provision =
      benchutil::DefaultWorkbenchOptions().provision;
  provision.classifier_train.epochs = 8;
  std::vector<video::Frame> sparse_frames =
      video::GenerateFrames(sparse, 200, 32, 500);
  select::ModelEntry base =
      pipeline::ProvisionModel("Sparse", sparse_frames, provision, &rng)
          .ValueOrDie();
  std::vector<select::LabeledFrame> sparse_sample =
      pipeline::MakeLabeledSample(sparse_frames, 8, 24, &rng);

  FleetOptions options;
  options.pipeline.selector = pipeline::PipelineConfig::Selector::kMsbo;
  options.pipeline.provision = provision;
  options.pipeline.allow_training_new = true;
  options.pipeline.new_model_window = 80;
  options.slice_frames = 64;
  options.max_concurrent = 2;
  DriftFleet fleet(options);
  ASSERT_TRUE(fleet.AddBaseModel(base, sparse_sample).ok());
  video::StreamGenerator stream_a({{sparse, 120}, {dense, 260}}, 32, 321);
  video::StreamGenerator stream_b({{sparse, 320}, {dense, 200}}, 32, 654);
  ASSERT_TRUE(fleet.AddStream({"a", &stream_a, nullptr}).ok());
  ASSERT_TRUE(fleet.AddStream({"b", &stream_b, nullptr}).ok());
  FleetReport report = fleet.Run().ValueOrDie();

  ASSERT_EQ(report.streams.size(), 2u);
  const StreamReport& a = report.streams[0];
  const StreamReport& b = report.streams[1];
  // Exactly one model was trained fleet-wide - by a, for a's drift.
  EXPECT_EQ(a.metrics.new_models_trained, 1);
  EXPECT_EQ(b.metrics.new_models_trained, 0);
  EXPECT_EQ(report.models_published, 1);
  ASSERT_FALSE(a.metrics.selections.empty());
  EXPECT_EQ(a.metrics.selections[0], "a.learned-0");
  // b resolved its later drift by selecting the adopted model.
  EXPECT_GE(report.models_adopted, 1);
  ASSERT_FALSE(b.metrics.selections.empty());
  EXPECT_EQ(b.metrics.selections[0], "a.learned-0");
  // The shared registry holds the base plus the one learned model.
  EXPECT_EQ(fleet.published().size(), 2u);
  EXPECT_TRUE(IsPublished(fleet, "a.learned-0"));
}

// --- Training on: nested parallel regions share the pool. ---

// Every parameter of a published model as raw bytes: the VAE, its point
// set, and each ensemble member's network.
std::string ModelBytes(const select::ModelEntry& entry) {
  BinaryWriter out;
  EXPECT_TRUE(nn::SaveParameters(entry.profile->vae()->Params(), &out).ok());
  for (const std::vector<float>& point : entry.profile->sigma().points()) {
    out.WriteFloatVec(point);
  }
  for (int l = 0; l < entry.ensemble->size(); ++l) {
    auto* member = dynamic_cast<detect::ImageClassifier*>(
        entry.ensemble->member(l).get());
    EXPECT_NE(member, nullptr) << entry.name;
    if (member != nullptr) {
      EXPECT_TRUE(nn::SaveParameters(member->net()->Params(), &out).ok());
    }
  }
  return out.bytes();
}

TEST(TrainingFleetTest, IsDeterministicAcrossThreadCounts) {
  // Four streams of a sparse Tokyo day each meet a dense, unprovisioned
  // night once, staggered (disjoint count regimes, so the day model is
  // decisively wrong there). The shard that meets it trains inside its
  // slice, and the training's nested parallel regions spread over the
  // whole pool; the barrier publishes the model and the other shards
  // adopt it. None of this may depend on scheduling: reports and
  // published parameters at 4 threads must match 1 thread exactly.
  stats::Rng rng(88);
  video::SceneSpec day = video::MakeTokyoSynthetic(0.004).SpecOf("Angle 1");
  day.object_rate_mean = 1.5;
  day.object_rate_std = 1.0;
  video::SceneSpec night = video::TokyoNightSpec();
  night.object_rate_mean = 14.0;
  night.object_rate_std = 2.0;
  pipeline::ProvisionOptions provision =
      benchutil::DefaultWorkbenchOptions().provision;
  provision.classifier_train.epochs = 8;
  std::vector<video::Frame> day_frames =
      video::GenerateFrames(day, 200, 32, 500);
  select::ModelEntry base =
      pipeline::ProvisionModel("Day", day_frames, provision, &rng)
          .ValueOrDie();
  std::vector<select::LabeledFrame> day_sample =
      pipeline::MakeLabeledSample(day_frames, 8, 24, &rng);
  // The online training recipe of the fleet benchmark: short, one member.
  provision.profile.trainer.epochs = 4;
  provision.classifier_train.epochs = 4;
  provision.ensemble_size = 1;

  FleetOptions options;
  options.pipeline.selector = pipeline::PipelineConfig::Selector::kMsbo;
  options.pipeline.provision = provision;
  options.pipeline.allow_training_new = true;
  options.slice_frames = 48;
  options.max_concurrent = 4;
  struct TrainingRun {
    FleetReport report;
    std::vector<PublishedModel> published;
  };
  auto run = [&](int threads) {
    runtime::ScopedThreads scoped(threads);
    DriftFleet fleet(options);
    EXPECT_TRUE(fleet.AddBaseModel(base, day_sample).ok());
    std::vector<std::unique_ptr<video::StreamGenerator>> streams;
    for (int i = 0; i < 4; ++i) {
      streams.push_back(std::make_unique<video::StreamGenerator>(
          std::vector<video::Segment>{
              {day, 96 + 48 * i}, {night, 200}, {day, 96}},
          32, 700 + static_cast<uint64_t>(i)));
      EXPECT_TRUE(fleet
                      .AddStream({"s" + std::to_string(i),
                                  streams.back().get(), nullptr})
                      .ok());
    }
    TrainingRun out;
    out.report = fleet.Run().ValueOrDie();
    out.published = fleet.published();
    return out;
  };
  TrainingRun serial = run(1);
  TrainingRun parallel = run(4);

  ASSERT_EQ(serial.report.streams.size(), 4u);
  ASSERT_EQ(parallel.report.streams.size(), 4u);
  int64_t trained = 0;
  for (size_t i = 0; i < 4; ++i) {
    ExpectStreamIdentical(serial.report.streams[i],
                          parallel.report.streams[i]);
    EXPECT_TRUE(parallel.report.streams[i].status.ok());
    ExpectBooksBalance(parallel.report.streams[i]);
    trained += parallel.report.streams[i].metrics.new_models_trained;
  }
  EXPECT_EQ(serial.report.rounds, parallel.report.rounds);
  EXPECT_EQ(serial.report.models_published, parallel.report.models_published);
  EXPECT_EQ(serial.report.models_adopted, parallel.report.models_adopted);
  // The night model was trained, published and adopted.
  EXPECT_GE(trained, 1);
  EXPECT_GE(parallel.report.models_published, 1);
  EXPECT_GE(parallel.report.models_adopted, 1);
  ASSERT_EQ(serial.published.size(), parallel.published.size());
  for (size_t m = 0; m < serial.published.size(); ++m) {
    const select::ModelEntry& x = serial.published[m].entry;
    const select::ModelEntry& y = parallel.published[m].entry;
    EXPECT_EQ(x.name, y.name);
    EXPECT_TRUE(ModelBytes(x) == ModelBytes(y)) << x.name;
  }
}

// --- Wiring, publication semantics, and model sharing. ---

class FleetWiringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stats::Rng rng(99);
    video::SyntheticDataset ds = video::MakeBddSynthetic(0.004);
    pipeline::ProvisionOptions provision =
        benchutil::DefaultWorkbenchOptions().provision;
    provision.classifier_train.epochs = 2;
    std::vector<video::Frame> frames =
        video::GenerateFrames(ds.SpecOf("Day"), 80, 32, 500);
    day_ = new select::ModelEntry(
        pipeline::ProvisionModel("Day", frames, provision, &rng)
            .ValueOrDie());
    sample_ = new std::vector<select::LabeledFrame>(
        pipeline::MakeLabeledSample(frames, 8, 24, &rng));
  }

  static void TearDownTestSuite() {
    delete day_;
    delete sample_;
    day_ = nullptr;
    sample_ = nullptr;
  }

  static select::ModelEntry* day_;
  static std::vector<select::LabeledFrame>* sample_;
};

select::ModelEntry* FleetWiringTest::day_ = nullptr;
std::vector<select::LabeledFrame>* FleetWiringTest::sample_ = nullptr;

TEST_F(FleetWiringTest, RejectsBadWiring) {
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.002);
  video::StreamGenerator stream = ds.MakeStream();
  FleetOptions options;
  options.pipeline.provision = benchutil::DefaultWorkbenchOptions().provision;
  DriftFleet fleet(options);
  // No streams yet: Run refuses; streams before base models refuse.
  EXPECT_EQ(fleet.Run().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.AddStream({"s0", &stream, nullptr}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.AddBaseModel(*day_, *sample_).ok());
  // Duplicate base model names are first-writer-wins — and an error.
  EXPECT_EQ(fleet.AddBaseModel(*day_, *sample_).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(fleet.AddStream({"s0", &stream, nullptr}).ok());
  // Base models are frozen once streams exist.
  EXPECT_EQ(fleet.AddBaseModel(*day_, *sample_).code(),
            StatusCode::kFailedPrecondition);
  video::StreamGenerator other = ds.MakeStream();
  EXPECT_EQ(fleet.AddStream({"s0", &other, nullptr}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.AddStream({"", &other, nullptr}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.AddStream({"s1", nullptr, nullptr}).code(),
            StatusCode::kInvalidArgument);
}

// --- Supervision: health state machine, quarantine, publication gate,
// --- and coordinator crash recovery.

TEST(SupervisorHealthTest, StateMachineWalksTheDocumentedTransitions) {
  HealthPolicy policy;  // max_restarts = 2, backoff_base = 1.
  ShardHealth h;
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_TRUE(h.Serving());
  EXPECT_FALSE(h.Terminal());
  // Degradation marks the shard degraded; one clean round heals it.
  h.ObserveRound(true);
  EXPECT_EQ(h.state, HealthState::kDegraded);
  EXPECT_TRUE(h.Serving());
  h.ObserveRound(false);
  EXPECT_EQ(h.state, HealthState::kHealthy);
  // First restart: one unit of budget, backoff_base << 0 = 1 parked round.
  EXPECT_TRUE(h.GrantRestart(policy));
  EXPECT_EQ(h.state, HealthState::kRestarting);
  EXPECT_FALSE(h.Serving());
  EXPECT_EQ(h.restarts, 1);
  EXPECT_EQ(h.backoff_remaining, 1);
  // Observations are ignored while parked.
  h.ObserveRound(false);
  EXPECT_EQ(h.state, HealthState::kRestarting);
  // Backoff expiry readmits as degraded — healthy must be earned back.
  EXPECT_TRUE(h.TickBackoff());
  EXPECT_EQ(h.state, HealthState::kDegraded);
  // Second restart: the backoff doubles.
  EXPECT_TRUE(h.GrantRestart(policy));
  EXPECT_EQ(h.backoff_remaining, 2);
  EXPECT_FALSE(h.TickBackoff());
  EXPECT_TRUE(h.TickBackoff());
  EXPECT_EQ(h.state, HealthState::kDegraded);
  // Budget exhausted: the next crash quarantines instead of restarting.
  EXPECT_FALSE(h.GrantRestart(policy));
  EXPECT_EQ(h.state, HealthState::kQuarantined);
  EXPECT_TRUE(h.Terminal());
  EXPECT_EQ(h.restarts, 2);
  // Terminal states are sticky.
  h.Retire();
  EXPECT_EQ(h.state, HealthState::kQuarantined);
  h.ObserveRound(false);
  EXPECT_EQ(h.state, HealthState::kQuarantined);
}

TEST(SupervisorHealthTest, RetirementAndNames) {
  ShardHealth h;
  h.ObserveRound(true);
  h.Retire();
  EXPECT_EQ(h.state, HealthState::kRetired);
  EXPECT_TRUE(h.Terminal());
  EXPECT_STREQ(HealthStateName(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(HealthStateName(HealthState::kRestarting), "restarting");
  EXPECT_STREQ(HealthStateName(HealthState::kQuarantined), "quarantined");
  EXPECT_STREQ(HealthStateName(HealthState::kRetired), "retired");
}

TEST(SupervisorHealthTest, ZeroBackoffBaseSkipsParking) {
  HealthPolicy policy;
  policy.max_restarts = 1;
  policy.backoff_base = 0;
  ShardHealth h;
  EXPECT_TRUE(h.GrantRestart(policy));
  EXPECT_EQ(h.backoff_remaining, 0);
  // The first tick readmits immediately.
  EXPECT_TRUE(h.TickBackoff());
  EXPECT_EQ(h.state, HealthState::kDegraded);
}

/// Fixed-output classifier for gate tests: the gate is behavioral, so a
/// stub that always emits the same probability vector is a full test
/// double for it.
class StubClassifier : public nn::ProbabilisticClassifier {
 public:
  explicit StubClassifier(std::vector<float> probs)
      : probs_(std::move(probs)) {}
  std::vector<float> PredictProba(const tensor::Tensor&) const override {
    return probs_;
  }
  int Predict(const tensor::Tensor&) const override {
    int best = 0;
    for (int c = 1; c < static_cast<int>(probs_.size()); ++c) {
      if (probs_[static_cast<size_t>(c)] > probs_[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    return best;
  }
  int num_classes() const override {
    return static_cast<int>(probs_.size());
  }

 private:
  std::vector<float> probs_;
};

select::ModelEntry StubEntry(const std::string& name,
                             std::vector<float> probs) {
  select::ModelEntry entry;
  entry.name = name;
  entry.count_model = std::make_shared<StubClassifier>(std::move(probs));
  return entry;
}

std::vector<select::LabeledFrame> StubHoldout(int n, int label) {
  std::vector<select::LabeledFrame> holdout;
  for (int i = 0; i < n; ++i) {
    holdout.push_back({tensor::Tensor({1, 2, 2}, 0.0f), label});
  }
  return holdout;
}

TEST(PublicationGateTest, VerdictsCoverEveryRejectionReason) {
  PublicationGateOptions options;  // margin 0.1, enabled.
  std::vector<select::LabeledFrame> holdout = StubHoldout(8, 1);
  select::ModelEntry right = StubEntry("right", {0.1f, 0.9f});
  select::ModelEntry wrong = StubEntry("wrong", {0.9f, 0.1f});

  // A lone accurate candidate passes.
  GateVerdict verdict = EvaluatePublication(right, holdout, {}, options);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_TRUE(verdict.reason.empty());
  EXPECT_DOUBLE_EQ(verdict.candidate_accuracy, 1.0);

  // Missing query model.
  select::ModelEntry empty;
  empty.name = "empty";
  verdict = EvaluatePublication(empty, holdout, {}, options);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "no_query_model");

  // Empty calibration table.
  verdict = EvaluatePublication(right, {}, {}, options);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "empty_calibration");

  // Non-finite probabilities.
  select::ModelEntry nan_model =
      StubEntry("nan", {std::nanf(""), 0.5f});
  verdict = EvaluatePublication(nan_model, holdout, {}, options);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "nonfinite");

  // Below the incumbent by more than the margin.
  std::vector<const select::ModelEntry*> incumbents = {&right};
  verdict = EvaluatePublication(wrong, holdout, incumbents, options);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "below_margin");
  EXPECT_DOUBLE_EQ(verdict.candidate_accuracy, 0.0);
  EXPECT_DOUBLE_EQ(verdict.incumbent_accuracy, 1.0);

  // A generous margin forgives the same gap.
  PublicationGateOptions generous = options;
  generous.accuracy_margin = 2.0;
  EXPECT_TRUE(EvaluatePublication(wrong, holdout, incumbents, generous)
                  .accepted);

  // Disabling the gate accepts anything, even NaN output.
  PublicationGateOptions off = options;
  off.enabled = false;
  EXPECT_TRUE(EvaluatePublication(nan_model, holdout, {}, off).accepted);
}

FleetManifest MakeManifest() {
  FleetManifest manifest;
  manifest.counters.rounds = 7;
  manifest.counters.backpressure_waits = 3;
  manifest.counters.models_published = 2;
  manifest.counters.models_adopted = 4;
  manifest.counters.shard_restarts = 1;
  manifest.counters.publish_rejected = 5;
  manifest.counters.quarantined_frames = 216;
  manifest.slice_frames = 48;
  ShardManifest s0;
  s0.label = "s0";
  s0.checkpoint_path = "/tmp/s0.ckpt";
  s0.health.state = HealthState::kDegraded;
  s0.health.restarts = 1;
  s0.health.backoff_remaining = 2;
  s0.slices = 9;
  ShardManifest s1;
  s1.label = "s1";
  s1.checkpoint_path = "/tmp/s1.ckpt";
  s1.health.state = HealthState::kQuarantined;
  s1.health.restarts = 2;
  s1.slices = 4;
  s1.fail_status = Status::Internal("chaos kill at round 5");
  manifest.shards = {s0, s1};
  manifest.ready = {1, 0};
  manifest.lineage = {{"Day", "", -1}, {"s0.learned-0", "s0", 3}};
  return manifest;
}

TEST(FleetManifestTest, CodecRoundTripsEveryField) {
  FleetManifest manifest = MakeManifest();
  std::string bytes = EncodeFleetManifest(manifest);
  Result<FleetManifest> decoded = DecodeFleetManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const FleetManifest& out = decoded.value();
  EXPECT_TRUE(out.counters == manifest.counters);
  EXPECT_EQ(out.slice_frames, manifest.slice_frames);
  EXPECT_EQ(out.ready, manifest.ready);
  ASSERT_EQ(out.shards.size(), 2u);
  EXPECT_EQ(out.shards[0].label, "s0");
  EXPECT_EQ(out.shards[0].checkpoint_path, "/tmp/s0.ckpt");
  EXPECT_TRUE(out.shards[0].health == manifest.shards[0].health);
  EXPECT_TRUE(out.shards[1].health == manifest.shards[1].health);
  EXPECT_EQ(out.shards[0].slices, 9);
  EXPECT_EQ(out.shards[1].fail_status.code(), StatusCode::kInternal);
  EXPECT_EQ(out.shards[1].fail_status.message(), "chaos kill at round 5");
  ASSERT_EQ(out.lineage.size(), 2u);
  EXPECT_EQ(out.lineage[0].name, "Day");
  EXPECT_EQ(out.lineage[0].round, -1);
  EXPECT_EQ(out.lineage[1].publisher, "s0");
  EXPECT_EQ(out.lineage[1].round, 3);
}

TEST(FleetManifestTest, TruncationPaddingAndBadStatesAreDataLoss) {
  std::string bytes = EncodeFleetManifest(MakeManifest());
  EXPECT_EQ(DecodeFleetManifest("").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeFleetManifest(bytes.substr(0, bytes.size() / 2))
                .status()
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeFleetManifest(bytes + "x").status().code(),
            StatusCode::kDataLoss);
  // An undefined health-state byte is diagnosed, not cast blindly.
  FleetManifest bad_health = MakeManifest();
  bad_health.shards[0].health.state = static_cast<HealthState>(9);
  EXPECT_EQ(DecodeFleetManifest(EncodeFleetManifest(bad_health))
                .status()
                .code(),
            StatusCode::kDataLoss);
  // A ready-queue index beyond the shard list is diagnosed too.
  FleetManifest bad_ready = MakeManifest();
  bad_ready.ready = {5};
  EXPECT_EQ(DecodeFleetManifest(EncodeFleetManifest(bad_ready))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST_F(FleetFixture, ExhaustedRestartBudgetQuarantinesWithExactBooks) {
  std::string dir = ::testing::TempDir() + "/vdrift_fleet_quarantine";
  ::mkdir(dir.c_str(), 0755);
  FleetOptions options = BaseOptions();
  options.max_concurrent = 3;
  options.checkpoint_dir = dir;
  options.health.max_restarts = 1;
  FleetRun baseline = RunTokyoFleet(options, 3);
  // Two kills against s1: the first consumes the whole restart budget,
  // the second quarantines the shard.
  options.chaos.events.push_back({fault::ChaosKind::kKillShard, 2, "s1"});
  options.chaos.events.push_back({fault::ChaosKind::kKillShard, 4, "s1"});
  FleetRun drilled = RunTokyoFleet(options, 3);
  ASSERT_EQ(drilled.report.streams.size(), 3u);
  const StreamReport& q = drilled.report.streams[1];
  EXPECT_EQ(q.health, HealthState::kQuarantined);
  EXPECT_FALSE(q.status.ok());
  EXPECT_EQ(q.restarts, 1);
  EXPECT_GT(q.quarantined_frames, 0);
  // Exact loss accounting: every frame of the stream either answered the
  // count query, was dropped (and counted), or was refused by the
  // quarantine (and counted). Nothing is silently lost.
  const int64_t total = bench_->dataset.total_frames();
  EXPECT_EQ(q.metrics.Totals().count_total +
                q.metrics.degradation.frames_dropped + q.quarantined_frames,
            total);
  EXPECT_LT(q.frames, total);
  EXPECT_EQ(drilled.report.quarantined_frames, q.quarantined_frames);
  // The other streams never notice: byte-identical to the drill-free run.
  ExpectStreamIdentical(baseline.report.streams[0],
                        drilled.report.streams[0]);
  ExpectStreamIdentical(baseline.report.streams[2],
                        drilled.report.streams[2]);
  EXPECT_EQ(drilled.report.streams[0].health, HealthState::kRetired);
  EXPECT_EQ(drilled.report.streams[2].health, HealthState::kRetired);
  // The health gauges mirror the final states, numerically.
  EXPECT_EQ(drilled.registry
                ->GetGauge("vdrift.serve.health", {{"stream", "s1"}})
                .value(),
            static_cast<double>(HealthState::kQuarantined));
  EXPECT_EQ(drilled.registry
                ->GetGauge("vdrift.serve.health", {{"stream", "s0"}})
                .value(),
            static_cast<double>(HealthState::kRetired));
  // And the quarantine counters book the same loss.
  EXPECT_EQ(
      drilled.registry->GetCounter("vdrift.serve.quarantined").value(), 1);
  EXPECT_EQ(drilled.registry
                ->GetCounter("vdrift.serve.quarantine_dropped_frames")
                .value(),
            q.quarantined_frames);
}

TEST(FleetGateTest, BelowMarginModelNeverReachesTheSharedRegistry) {
  // The FleetAdoptionTest scenario with the gate margin forced impossible:
  // accuracy <= 1 can never reach incumbent + 2, so every trained model is
  // rejected at the barrier. "b" then cannot adopt a's model and must
  // train its own — and the shared registry never grows.
  stats::Rng rng(77);
  video::SyntheticDataset ds = video::MakeTokyoSynthetic(0.004);
  video::SceneSpec sparse = ds.SpecOf("Angle 1");
  sparse.name = "Sparse";
  sparse.object_rate_mean = 1.5;
  sparse.object_rate_std = 1.0;
  video::SceneSpec dense = sparse;
  dense.name = "Dense";
  dense.object_rate_mean = 14.0;
  dense.object_rate_std = 2.0;
  pipeline::ProvisionOptions provision =
      benchutil::DefaultWorkbenchOptions().provision;
  provision.classifier_train.epochs = 8;
  std::vector<video::Frame> sparse_frames =
      video::GenerateFrames(sparse, 200, 32, 500);
  select::ModelEntry base =
      pipeline::ProvisionModel("Sparse", sparse_frames, provision, &rng)
          .ValueOrDie();
  std::vector<select::LabeledFrame> sparse_sample =
      pipeline::MakeLabeledSample(sparse_frames, 8, 24, &rng);

  FleetOptions options;
  options.pipeline.selector = pipeline::PipelineConfig::Selector::kMsbo;
  options.pipeline.provision = provision;
  options.pipeline.allow_training_new = true;
  options.pipeline.new_model_window = 80;
  options.slice_frames = 64;
  options.max_concurrent = 2;
  options.publication_gate.accuracy_margin = -2.0;
  DriftFleet fleet(options);
  ASSERT_TRUE(fleet.AddBaseModel(base, sparse_sample).ok());
  video::StreamGenerator stream_a({{sparse, 120}, {dense, 260}}, 32, 321);
  video::StreamGenerator stream_b({{sparse, 320}, {dense, 200}}, 32, 654);
  ASSERT_TRUE(fleet.AddStream({"a", &stream_a, nullptr}).ok());
  ASSERT_TRUE(fleet.AddStream({"b", &stream_b, nullptr}).ok());
  FleetReport report = fleet.Run().ValueOrDie();

  ASSERT_EQ(report.streams.size(), 2u);
  const StreamReport& a = report.streams[0];
  const StreamReport& b = report.streams[1];
  // Both trained privately; nothing was published or adopted.
  EXPECT_EQ(a.metrics.new_models_trained, 1);
  EXPECT_EQ(b.metrics.new_models_trained, 1);
  EXPECT_EQ(report.models_published, 0);
  EXPECT_EQ(report.models_adopted, 0);
  EXPECT_GE(report.publish_rejected, 2);
  EXPECT_EQ(fleet.published().size(), 1u);
  EXPECT_FALSE(IsPublished(fleet, "a.learned-0"));
  EXPECT_FALSE(IsPublished(fleet, "b.learned-0"));
  // The rejected model stays private to its shard: a still serves with it.
  ASSERT_FALSE(a.metrics.selections.empty());
  EXPECT_EQ(a.metrics.selections[0], "a.learned-0");
  ASSERT_FALSE(b.metrics.selections.empty());
  EXPECT_EQ(b.metrics.selections[0], "b.learned-0");
  // Rejection counters: the {reason=...} series sum to the aggregate.
  obs::MetricsRegistry& reg = *fleet.registry();
  const int64_t unlabeled =
      reg.GetCounter("vdrift.serve.publish_rejected").value();
  EXPECT_EQ(unlabeled, report.publish_rejected);
  int64_t by_reason = 0;
  for (const char* reason :
       {"no_query_model", "empty_calibration", "nonfinite", "below_margin"}) {
    by_reason +=
        reg.GetCounter("vdrift.serve.publish_rejected", {{"reason", reason}})
            .value();
  }
  EXPECT_EQ(by_reason, unlabeled);
  EXPECT_GE(reg.GetCounter("vdrift.serve.publish_rejected",
                           {{"reason", "below_margin"}})
                .value(),
            2);
}

TEST_F(FleetFixture, ChaosCampaignResumesBitIdenticallyAcrossThreads) {
  // Seed-driven chaos: shard kills and checkpoint corruption throughout,
  // plus one coordinator kill. The fleet halted by the coordinator kill
  // and resumed from its manifest must finish byte-identical to a fleet
  // that ran the same shard-level chaos uninterrupted — at 1 and 4
  // threads. VDRIFT_CHAOS_SEED varies the campaign (CI runs a matrix).
  const uint64_t seed = static_cast<uint64_t>(
      env::Int("VDRIFT_CHAOS_SEED", 1234, 0, INT64_MAX));
  fault::ChaosPlan::Options chaos_options;
  chaos_options.kill_shard_p = 0.08;
  chaos_options.corrupt_checkpoint_p = 0.04;
  chaos_options.kill_coordinator = true;
  fault::ChaosPlan plan = fault::ChaosPlan::FromSeed(
      seed, {"s0", "s1", "s2"}, /*horizon_rounds=*/6, chaos_options);
  ASSERT_GE(plan.coordinator_kill_round(), 1) << plan.ToString();

  FleetOptions options = BaseOptions();
  options.max_concurrent = 3;

  // The uninterrupted reference run: same chaos minus the coordinator
  // kill, its own checkpoint dir (kill_shard restores must never read
  // another run's files).
  // Chaos can kill a shard at round 0, before this run wrote any
  // checkpoint — scrub stale files from earlier invocations so a
  // round-0 restore is a cold start in every run.
  auto scrub = [](const std::string& dir) {
    for (const char* label : {"s0", "s1", "s2"}) {
      std::remove((dir + "/" + label + ".ckpt").c_str());
    }
  };
  std::string ref_dir = ::testing::TempDir() + "/vdrift_chaos_ref";
  ::mkdir(ref_dir.c_str(), 0755);
  scrub(ref_dir);
  FleetOptions reference = options;
  reference.checkpoint_dir = ref_dir;
  reference.chaos = plan.WithoutCoordinatorKill();
  FleetRun uninterrupted;
  {
    runtime::ScopedThreads scoped(1);
    uninterrupted = RunTokyoFleet(reference, 3);
  }
  EXPECT_FALSE(uninterrupted.report.halted);
  const int64_t total = bench_->dataset.total_frames();

  for (int threads : {1, 4}) {
    runtime::ScopedThreads scoped(threads);
    std::string dir =
        ::testing::TempDir() + "/vdrift_chaos_t" + std::to_string(threads);
    ::mkdir(dir.c_str(), 0755);
    scrub(dir);
    FleetOptions killed = options;
    killed.checkpoint_dir = dir;
    killed.manifest_path = dir + "/fleet.manifest";
    std::remove(killed.manifest_path.c_str());
    killed.chaos = plan;
    FleetRun halted = RunTokyoFleet(killed, 3);
    ASSERT_TRUE(halted.report.halted) << "threads " << threads;
    EXPECT_EQ(halted.report.halted_round, plan.coordinator_kill_round());

    // Resume: a fresh fleet over fresh stream objects, with the kill
    // stripped (it already happened).
    FleetOptions resume = killed;
    resume.chaos = plan.WithoutCoordinatorKill();
    FleetRun resumed = RunTokyoFleet(resume, 3);
    ASSERT_TRUE(resumed.report.resumed) << "threads " << threads;
    EXPECT_FALSE(resumed.report.halted);
    ASSERT_EQ(resumed.report.streams.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      const StreamReport& stream = resumed.report.streams[i];
      ExpectStreamIdentical(uninterrupted.report.streams[i], stream);
      EXPECT_EQ(stream.health, uninterrupted.report.streams[i].health)
          << stream.label;
      // Zero silent loss even through kills, corruption, and the resume.
      EXPECT_EQ(stream.metrics.Totals().count_total +
                    stream.metrics.degradation.frames_dropped +
                    stream.quarantined_frames,
                total)
          << stream.label << " threads " << threads;
    }
    EXPECT_EQ(resumed.report.rounds, uninterrupted.report.rounds)
        << "threads " << threads;
    EXPECT_EQ(resumed.report.backpressure_waits,
              uninterrupted.report.backpressure_waits);
    EXPECT_EQ(resumed.report.shard_restarts,
              uninterrupted.report.shard_restarts);
    EXPECT_EQ(resumed.report.quarantined_frames,
              uninterrupted.report.quarantined_frames);
    EXPECT_EQ(resumed.report.models_published,
              uninterrupted.report.models_published);
  }
}

TEST_F(FleetFixture, CorruptManifestFallsBackToAFreshRunLoudly) {
  std::string dir = ::testing::TempDir() + "/vdrift_fleet_manifest";
  ::mkdir(dir.c_str(), 0755);
  FleetOptions options = BaseOptions();
  options.max_concurrent = 3;
  options.checkpoint_dir = dir;
  options.manifest_path = dir + "/fleet.manifest";
  std::remove(options.manifest_path.c_str());
  FleetRun first = RunTokyoFleet(options, 3);
  EXPECT_FALSE(first.report.resumed);
  EXPECT_GT(first.registry->GetCounter("vdrift.serve.manifest_writes")
                .value(),
            0);
  // Damage the manifest the completed run left behind. The next fleet must
  // refuse to resume from it, say so, and run fresh to the same result.
  ASSERT_TRUE(
      fault::CorruptFileForChaos(options.manifest_path, /*seed=*/7).ok());
  FleetRun second = RunTokyoFleet(options, 3);
  EXPECT_FALSE(second.report.resumed);
  EXPECT_EQ(second.registry
                ->GetCounter("vdrift.serve.manifest_resume_failures")
                .value(),
            1);
  ASSERT_EQ(second.report.streams.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ExpectStreamIdentical(first.report.streams[i],
                          second.report.streams[i]);
  }
}

TEST_F(FleetWiringTest, ManifestWithoutCheckpointDirIsRejected) {
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.002);
  video::StreamGenerator stream = ds.MakeStream();
  FleetOptions options;
  options.pipeline.provision = benchutil::DefaultWorkbenchOptions().provision;
  options.manifest_path = ::testing::TempDir() + "/orphan.manifest";
  DriftFleet fleet(options);
  ASSERT_TRUE(fleet.AddBaseModel(*day_, *sample_).ok());
  ASSERT_TRUE(fleet.AddStream({"s0", &stream, nullptr}).ok());
  EXPECT_EQ(fleet.Run().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FleetWiringTest, ChaosAgainstUnknownStreamIsAnError) {
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.002);
  video::StreamGenerator stream = ds.MakeStream();
  FleetOptions options;
  options.pipeline.provision = benchutil::DefaultWorkbenchOptions().provision;
  options.chaos.events.push_back(
      {fault::ChaosKind::kKillShard, /*round=*/1, "ghost"});
  DriftFleet fleet(options);
  ASSERT_TRUE(fleet.AddBaseModel(*day_, *sample_).ok());
  ASSERT_TRUE(fleet.AddStream({"s0", &stream, nullptr}).ok());
  EXPECT_EQ(fleet.Run().status().code(), StatusCode::kInvalidArgument);
}

// Every published entry is in the stream's registry as the same objects,
// not a copy.
void ExpectSharesPublished(const DriftFleet& fleet, const std::string& label) {
  const select::ModelRegistry* shard = fleet.shard_registry(label);
  ASSERT_NE(shard, nullptr) << label;
  for (const PublishedModel& model : fleet.published()) {
    int index = shard->FindByName(model.entry.name);
    ASSERT_GE(index, 0) << label << " lacks " << model.entry.name;
    const select::ModelEntry& held = shard->at(index);
    EXPECT_EQ(held.profile.get(), model.entry.profile.get()) << label;
    EXPECT_EQ(held.ensemble.get(), model.entry.ensemble.get()) << label;
    EXPECT_EQ(held.count_model.get(), model.entry.count_model.get())
        << label;
  }
}

TEST_F(FleetWiringTest, ShardsShareThePublishedModelObjects) {
  // Stream "a" meets an unprovisioned night and trains a model for it;
  // "b" stays in the day and adopts that model at the barrier.
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.004);
  pipeline::ProvisionOptions provision =
      benchutil::DefaultWorkbenchOptions().provision;
  provision.profile.trainer.epochs = 2;
  provision.classifier_train.epochs = 2;
  provision.ensemble_size = 1;
  FleetOptions options;
  options.pipeline.selector = pipeline::PipelineConfig::Selector::kMsbi;
  options.pipeline.provision = provision;
  options.pipeline.allow_training_new = true;
  options.publication_gate.enabled = false;
  options.slice_frames = 48;
  options.max_concurrent = 2;
  DriftFleet fleet(options);
  ASSERT_TRUE(fleet.AddBaseModel(*day_, *sample_).ok());
  video::StreamGenerator stream_a(
      {{ds.SpecOf("Day"), 96}, {ds.SpecOf("Night"), 200}}, 32, 41);
  video::StreamGenerator stream_b({{ds.SpecOf("Day"), 480}}, 32, 42);
  ASSERT_TRUE(fleet.AddStream({"a", &stream_a, nullptr}).ok());
  ASSERT_TRUE(fleet.AddStream({"b", &stream_b, nullptr}).ok());
  ExpectSharesPublished(fleet, "a");
  ExpectSharesPublished(fleet, "b");
  EXPECT_EQ(fleet.shard_registry("a")->at(0).profile.get(),
            day_->profile.get());

  FleetReport report = fleet.Run().ValueOrDie();
  ASSERT_EQ(report.models_published, 1);
  ASSERT_GE(report.models_adopted, 1);
  EXPECT_EQ(fleet.shard_registry("b")->size(), 2);
  ExpectSharesPublished(fleet, "a");
  ExpectSharesPublished(fleet, "b");
}

// The bytes of a float or double sequence, for bit-for-bit comparison.
template <typename T>
std::string BytesOf(const std::vector<T>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(T));
}

TEST_F(FleetWiringTest, OneEntryServesFourThreadsBitIdentically) {
  // Four streams query, score and encode through the same model objects
  // at once, each with its own RNG; the results match a serial run bit
  // for bit. Under TSan this is the proof that inference writes nothing.
  const select::ModelEntry& entry = *day_;
  auto stream_scores = [&](int stream) {
    stats::Rng rng(100 + static_cast<uint64_t>(stream));
    std::string bytes;
    for (const select::LabeledFrame& frame : *sample_) {
      bytes += BytesOf(entry.count_model->PredictProba(frame.pixels));
      bytes += BytesOf(std::vector<double>{
          entry.ensemble->BrierScore(frame.pixels, frame.label)});
      bytes += BytesOf(entry.profile->EncodeSampled(frame.pixels, &rng));
    }
    return bytes;
  };
  std::vector<std::string> serial(4);
  {
    runtime::ScopedThreads threads(1);
    for (int s = 0; s < 4; ++s) {
      serial[static_cast<size_t>(s)] = stream_scores(s);
    }
  }
  std::vector<std::string> concurrent(4);
  {
    runtime::ScopedThreads threads(4);
    runtime::ParallelFor(0, 4, 1, [&](int64_t begin, int64_t end) {
      for (int64_t s = begin; s < end; ++s) {
        concurrent[static_cast<size_t>(s)] =
            stream_scores(static_cast<int>(s));
      }
    });
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(serial[s].empty());
    EXPECT_TRUE(concurrent[s] == serial[s]) << "stream " << s;
  }
}

}  // namespace
}  // namespace vdrift::serve
