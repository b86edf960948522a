// End-to-end integration tests: the drift-aware pipeline (DI + MSBO/MSBI)
// on multi-sequence streams, the trainNewModel path, and the baseline rows
// of Table 9 (ODIN, the fixed YOLO detector, the Mask R-CNN oracle) run by
// the same loop.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchutil/workbench.h"
#include "common/binio.h"
#include "common/env.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "obs/trace_log.h"
#include "pipeline/checkpoint.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "runtime/parallel.h"
#include "stats/rng.h"
#include "video/datasets.h"
#include "video/stream.h"

namespace vdrift::pipeline {
namespace {

// One shared workbench: a Tokyo-like 3-model registry (cheapest to train).
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchutil::WorkbenchOptions options =
        benchutil::DefaultWorkbenchOptions();
    options.dataset_scale = 0.008;  // ~120 frames per sequence
    options.cache_dir = "";         // tests never touch the bench cache
    options.train_frames = 220;
    bench_ = benchutil::BuildWorkbench("Tokyo", options).ValueOrDie()
                 .release();
  }

  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static PipelineConfig BaseConfig(PipelineConfig::Selector selector) {
    PipelineConfig config;
    config.selector = selector;
    config.provision = benchutil::DefaultWorkbenchOptions().provision;
    config.allow_training_new = false;
    return config;
  }

  static PipelineConfig RowConfig(PipelineConfig::Detector detector) {
    PipelineConfig config;
    config.detector = detector;
    return config;
  }

  // The ODIN row's samples: each entry's whole training window.
  static std::vector<std::vector<select::LabeledFrame>> OdinSamples() {
    return LabelAll(bench_->training_frames,
                    benchutil::DefaultWorkbenchOptions()
                        .provision.count_classes);
  }

  // The YOLO row's one-entry registry: the fixed detector trained on
  // sequence 0 only (trained once, on first use).
  static select::ModelRegistry* Yolo() {
    static select::ModelRegistry* yolo = [] {
      stats::Rng rng(55);
      detect::ClassifierTrainConfig tc;
      tc.epochs = 10;
      auto* registry = new select::ModelRegistry;
      registry->Add(ProvisionDetector("YOLO", bench_->training_frames[0], tc,
                                      &rng)
                        .ValueOrDie());
      return registry;
    }();
    return yolo;
  }

  struct Row {
    std::string name;
    select::ModelRegistry* registry;
    std::vector<std::vector<select::LabeledFrame>> samples;
    PipelineConfig config;
  };

  // The ODIN, YOLO and Mask R-CNN rows of Table 9, spatial query on.
  static std::vector<Row> BaselineRows() {
    std::vector<Row> rows = {
        {"odin", &bench_->registry, OdinSamples(),
         RowConfig(PipelineConfig::Detector::kOdin)},
        {"yolo", Yolo(), {}, RowConfig(PipelineConfig::Detector::kNone)},
        {"mask_rcnn", &bench_->registry, {},
         RowConfig(PipelineConfig::Detector::kNone)},
    };
    rows[2].config.oracle_queries = true;
    for (Row& row : rows) row.config.run_predicate = true;
    return rows;
  }

  static benchutil::Workbench* bench_;
};

benchutil::Workbench* PipelineFixture::bench_ = nullptr;

TEST_F(PipelineFixture, MsboPipelineTracksSequences) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  EXPECT_EQ(metrics.frames, bench_->dataset.total_frames());
  // Two real drifts (3 sequences); a handful of re-detections are
  // tolerable, silence is not.
  EXPECT_GE(metrics.drifts_detected, 2);
  EXPECT_LE(metrics.drifts_detected, 6);
  // The count query must be clearly better than chance overall.
  SequenceAccuracy totals = metrics.Totals();
  EXPECT_GT(totals.CountAq(), 0.3);
  // Exactly one model invocation per frame (the §6.2 claim for MS).
  EXPECT_EQ(totals.invocations, metrics.frames);
  EXPECT_GT(metrics.total_seconds, 0.0);
  // Timing fields are derived from the run's obs spans.
  ASSERT_NE(metrics.registry, nullptr);
  EXPECT_EQ(metrics.registry->GetHistogram("vdrift.pipeline.run_seconds")
                .count(),
            1);
  EXPECT_GT(metrics.detect_seconds, 0.0);
  EXPECT_GT(metrics.select_seconds, 0.0);
  EXPECT_GE(metrics.total_seconds,
            metrics.detect_seconds + metrics.select_seconds);
  // Every detection left an annotated drift episode behind.
  ASSERT_NE(metrics.episodes, nullptr);
  std::vector<obs::Episode> episodes = metrics.episodes->episodes();
  ASSERT_EQ(static_cast<int>(episodes.size()), metrics.drifts_detected);
  EXPECT_EQ(episodes[0].decision, metrics.selections[0]);
  EXPECT_TRUE(episodes[0].frames.back().drift);
}

TEST(SequenceAccuracyTest, InvocationsPerFrameCoversAllQueryMixes) {
  SequenceAccuracy acc;
  EXPECT_EQ(acc.InvocationsPerFrame(), 0.0);  // no queries, no crash
  // Predicate-only runs must still denominate the ratio.
  acc.predicate_total = 10;
  acc.invocations = 20;
  EXPECT_DOUBLE_EQ(acc.InvocationsPerFrame(), 2.0);
  // Mixed runs denominate over the frames that ran any query.
  acc.count_total = 40;
  acc.invocations = 40;
  EXPECT_DOUBLE_EQ(acc.InvocationsPerFrame(), 1.0);
}

TEST_F(PipelineFixture, MsboSelectsTheMatchingModelAtEachDrift) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  ASSERT_GE(metrics.selections.size(), 2u);
  // The first selection (drift into sequence 1) must be "Angle 2", the
  // second "Angle 3".
  EXPECT_EQ(metrics.selections[0], "Angle 2");
  EXPECT_EQ(metrics.selections[1], "Angle 3");
}

TEST_F(PipelineFixture, MsbiPipelineRunsAndSelects) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbi);
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  EXPECT_GE(metrics.drifts_detected, 2);
  ASSERT_GE(metrics.selections.size(), 1u);
  EXPECT_EQ(metrics.selections[0], "Angle 2");
}

TEST_F(PipelineFixture, DetectionLatencyIsSmall) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  const std::vector<int64_t>& truth = stream.drift_points();
  ASSERT_GE(metrics.drift_frames.size(), 2u);
  // First detection after the first true drift point, within 60 frames.
  EXPECT_GE(metrics.drift_frames[0], truth[0]);
  EXPECT_LE(metrics.drift_frames[0], truth[0] + 60);
}

TEST_F(PipelineFixture, OdinRowRunsWithEnsembles) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline odin(&bench_->registry, OdinSamples(),
                          RowConfig(PipelineConfig::Detector::kOdin));
  PipelineMetrics metrics = odin.Run(&stream).ValueOrDie();
  EXPECT_EQ(metrics.frames, bench_->dataset.total_frames());
  SequenceAccuracy totals = metrics.Totals();
  // ODIN may invoke more than one model per frame (ensembles).
  EXPECT_GE(totals.invocations, metrics.frames);
  EXPECT_GT(totals.CountAq(), 0.1);
}

TEST_F(PipelineFixture, OdinUsesMoreInvocationsThanMs) {
  video::StreamGenerator s1 = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline ms(&bench_->registry, bench_->calibration_samples,
                        config);
  PipelineMetrics ms_metrics = ms.Run(&s1).ValueOrDie();
  video::StreamGenerator s2 = bench_->dataset.MakeStream();
  DriftAwarePipeline odin(&bench_->registry, OdinSamples(),
                          RowConfig(PipelineConfig::Detector::kOdin));
  PipelineMetrics odin_metrics = odin.Run(&s2).ValueOrDie();
  EXPECT_GE(odin_metrics.Totals().invocations,
            ms_metrics.Totals().invocations);
}

TEST_F(PipelineFixture, MsBeatsDriftObliviousDetectorOnAccuracy) {
  // The YOLO substitute is trained on sequence 0 only; after the drifts
  // its accuracy must fall below the drift-aware pipeline's.
  video::StreamGenerator s1 = bench_->dataset.MakeStream();
  DriftAwarePipeline detector(Yolo(), {},
                              RowConfig(PipelineConfig::Detector::kNone));
  PipelineMetrics yolo = detector.Run(&s1).ValueOrDie();
  EXPECT_EQ(yolo.Totals().invocations, yolo.frames);
  EXPECT_EQ(yolo.drifts_detected, 0);
  video::StreamGenerator s2 = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline ms(&bench_->registry, bench_->calibration_samples,
                        config);
  PipelineMetrics ours = ms.Run(&s2).ValueOrDie();
  EXPECT_GT(ours.Totals().CountAq(), yolo.Totals().CountAq());
}

TEST_F(PipelineFixture, OracleRowIsPerfect) {
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = RowConfig(PipelineConfig::Detector::kNone);
  config.oracle_queries = true;
  config.oracle_work_dim = 16;
  config.run_predicate = true;
  DriftAwarePipeline oracle(&bench_->registry, {}, config);
  PipelineMetrics metrics = oracle.Run(&stream).ValueOrDie();
  EXPECT_EQ(metrics.frames, bench_->dataset.total_frames());
  EXPECT_DOUBLE_EQ(metrics.Totals().CountAq(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.Totals().PredicateAq(), 1.0);
  EXPECT_EQ(metrics.Totals().invocations, metrics.frames);
  EXPECT_GT(metrics.query_seconds, 0.0);
}

TEST_F(PipelineFixture, OnlyTheDiPipelineCheckpoints) {
  // ODIN and the detector-less rows have no state codec: Checkpoint and
  // Resume refuse up front, and no byte reaches the path.
  for (const Row& row : BaselineRows()) {
    const std::string path =
        ::testing::TempDir() + "/vdrift_no_codec_" + row.name + ".ckpt";
    std::remove(path.c_str());
    video::StreamGenerator stream = bench_->dataset.MakeStream();
    DriftAwarePipeline pipeline(row.registry, row.samples, row.config);
    RunOptions some;
    some.max_frames = 20;
    ASSERT_TRUE(pipeline.Run(&stream, some).ok()) << row.name;
    Status written = pipeline.Checkpoint(path, stream);
    EXPECT_EQ(written.code(), StatusCode::kFailedPrecondition) << row.name;
    EXPECT_FALSE(ReadFileToString(path).ok()) << row.name << ": wrote bytes";
    EXPECT_FALSE(ReadFileToString(path + ".tmp").ok()) << row.name;
    Status resumed = pipeline.Resume(path, &stream);
    EXPECT_EQ(resumed.code(), StatusCode::kFailedPrecondition) << row.name;
    EXPECT_EQ(stream.position(), 20) << row.name << ": Resume moved the stream";
    EXPECT_EQ(pipeline.metrics().degradation.checkpoint_failures, 0)
        << row.name;
  }
}

TEST(TrainNewModelTest, PipelineProvisionsOnUnseenDistribution) {
  // Registry knows only Day; the stream drifts into Night. With training
  // enabled the pipeline must detect, fail selection, and train a new
  // model, after which the stream continues under the learned model.
  stats::Rng rng(77);
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.004);
  ProvisionOptions provision = benchutil::DefaultWorkbenchOptions().provision;
  provision.classifier_train.epochs = 8;
  std::vector<video::Frame> day_frames =
      video::GenerateFrames(ds.SpecOf("Day"), 200, 32, 500);
  select::ModelRegistry registry;
  registry.Add(
      ProvisionModel("Day", day_frames, provision, &rng).ValueOrDie());
  std::vector<std::vector<select::LabeledFrame>> samples;
  samples.push_back(MakeLabeledSample(day_frames, 8, 24, &rng));

  PipelineConfig config;
  config.selector = PipelineConfig::Selector::kMsbo;
  config.provision = provision;
  config.allow_training_new = true;
  config.new_model_window = 80;
  video::StreamGenerator stream(
      {{ds.SpecOf("Day"), 120}, {ds.SpecOf("Night"), 260}}, 32, 321);
  DriftAwarePipeline pipeline(&registry, samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  EXPECT_GE(metrics.drifts_detected, 1);
  EXPECT_GE(metrics.new_models_trained, 1);
  EXPECT_EQ(registry.size(), 1 + metrics.new_models_trained);
  ASSERT_FALSE(metrics.selections.empty());
  EXPECT_EQ(metrics.selections[0].rfind("learned-", 0), 0u)
      << "first selection should be a freshly trained model, got "
      << metrics.selections[0];
}

TEST_F(PipelineFixture, NanFramesAreDroppedNotFatal) {
  // End-to-end NaN regression: poisoned frames must be skipped and
  // counted, never crash the run or stick the martingale at NaN.
  video::StreamGenerator inner = bench_->dataset.MakeStream();
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("nan_frame:p=0.05").ValueOrDie();
  fault::FaultInjector injector(plan, 2024);
  fault::FaultyStream stream(&inner, &injector);
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  Result<PipelineMetrics> run = pipeline.Run(&stream);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const PipelineMetrics& metrics = run.value();
  EXPECT_GT(injector.count(fault::FaultKind::kNanFrame), 0);
  EXPECT_GT(metrics.degradation.frames_dropped, 0);
  // Zero silent losses: every delivered frame was either queried or
  // explicitly dropped.
  EXPECT_EQ(metrics.frames, stream.position());
  EXPECT_EQ(metrics.Totals().count_total + metrics.degradation.frames_dropped,
            metrics.frames);
  // The surviving trajectory is still a working detector.
  EXPECT_GE(metrics.drifts_detected, 1);
}

TEST_F(PipelineFixture, SelectorFailuresDegradeToIncumbentThenOblivious) {
  // A selector that always fails must never kill the run: bounded retries,
  // then incumbent fallback, then (after repeated failures) the pipeline
  // trips into drift-oblivious operation.
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("selector_fail:p=1").ValueOrDie();
  fault::FaultInjector injector(plan, 7);
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  config.injector = &injector;
  config.degrade.max_selection_retries = 1;
  config.degrade.max_consecutive_failures = 2;
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  Result<PipelineMetrics> run = pipeline.Run(&stream);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const PipelineMetrics& metrics = run.value();
  EXPECT_EQ(metrics.frames, bench_->dataset.total_frames());
  ASSERT_GE(metrics.degradation.incumbent_fallbacks, 1);
  EXPECT_EQ(metrics.degradation.selector_retries,
            metrics.degradation.incumbent_fallbacks);
  EXPECT_EQ(metrics.degradation.selector_failures,
            2 * metrics.degradation.incumbent_fallbacks);
  // Every drift is accounted for: a selection entry ("<incumbent>") per
  // detection, and the queries kept running throughout.
  EXPECT_EQ(static_cast<int>(metrics.selections.size()),
            metrics.drifts_detected);
  for (const std::string& selection : metrics.selections) {
    EXPECT_EQ(selection, "<incumbent>");
  }
  if (metrics.degradation.incumbent_fallbacks >= 2) {
    EXPECT_TRUE(metrics.degradation.drift_oblivious);
    EXPECT_TRUE(pipeline.drift_oblivious());
  }
  EXPECT_EQ(metrics.Totals().count_total, metrics.frames);
}

TEST_F(PipelineFixture, AnnotatorFaultsAreDeferredNotFatal) {
  // Annotator deadline overruns and spurious errors shrink the labeled
  // recovery window but must not fail MSBO selection outright.
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("annotator_deadline:p=0.3;annotator_error:p=0.1")
          .ValueOrDie();
  fault::FaultInjector injector(plan, 13);
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  config.injector = &injector;
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  Result<PipelineMetrics> run = pipeline.Run(&stream);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const PipelineMetrics& metrics = run.value();
  EXPECT_GE(metrics.drifts_detected, 2);
  EXPECT_GT(metrics.degradation.annotator_deferrals, 0);
  // Selection still succeeded from the frames that were labeled in time.
  EXPECT_EQ(metrics.degradation.incumbent_fallbacks, 0);
}

TEST_F(PipelineFixture, CheckpointResumeIsBitIdentical) {
  // Crash-recovery drill, run at 1 and 4 worker threads: pause a run
  // mid-stream, checkpoint, resume into a FRESH pipeline + stream, and
  // require the final counters to be bit-identical to an uninterrupted
  // run — accuracy counters, detection indices, selections, and the
  // martingale trajectory all included.
  for (int threads : {1, 4}) {
    runtime::ScopedThreads scoped(threads);
    PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);

    video::StreamGenerator baseline_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline baseline(&bench_->registry,
                                bench_->calibration_samples, config);
    PipelineMetrics uninterrupted =
        baseline.Run(&baseline_stream).ValueOrDie();

    std::string path = ::testing::TempDir() + "/vdrift_resume_drill_" +
                       std::to_string(threads) + ".ckpt";
    video::StreamGenerator first_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline first(&bench_->registry, bench_->calibration_samples,
                             config);
    RunOptions half;
    half.max_frames = bench_->dataset.total_frames() / 2;
    ASSERT_TRUE(first.Run(&first_stream, half).ok());
    ASSERT_TRUE(first.Checkpoint(path, first_stream).ok());

    // "Crash": everything below uses fresh objects only.
    video::StreamGenerator second_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline second(&bench_->registry, bench_->calibration_samples,
                              config);
    Status resumed = second.Resume(path, &second_stream);
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    PipelineMetrics recovered = second.Run(&second_stream).ValueOrDie();

    EXPECT_EQ(recovered.frames, uninterrupted.frames);
    EXPECT_EQ(recovered.drifts_detected, uninterrupted.drifts_detected);
    EXPECT_EQ(recovered.drift_frames, uninterrupted.drift_frames);
    EXPECT_EQ(recovered.selections, uninterrupted.selections);
    EXPECT_EQ(recovered.selection_invocations,
              uninterrupted.selection_invocations);
    ASSERT_EQ(recovered.per_sequence.size(),
              uninterrupted.per_sequence.size());
    for (const auto& [id, acc] : uninterrupted.per_sequence) {
      const SequenceAccuracy& other = recovered.per_sequence.at(id);
      EXPECT_EQ(other.count_correct, acc.count_correct) << "seq " << id;
      EXPECT_EQ(other.count_total, acc.count_total) << "seq " << id;
      EXPECT_EQ(other.invocations, acc.invocations) << "seq " << id;
    }
    // Martingale trajectory converged to the same bit pattern.
    EXPECT_EQ(second.inspector().martingale_value(),
              baseline.inspector().martingale_value());
    EXPECT_EQ(second.inspector().frames_seen(),
              baseline.inspector().frames_seen());
    std::remove(path.c_str());
  }
}

TEST_F(PipelineFixture, SlicedRunsNeverOvershootAndMatchUninterrupted) {
  // Frame-accounting regression: RunOptions.max_frames budgets EVERY frame
  // pulled from the stream — recovery/training frames consumed inside
  // drift handling included — so a slice never overshoots even when a
  // drift lands mid-slice, and a fully sliced run is bit-identical to an
  // uninterrupted one.
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  video::StreamGenerator baseline_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline baseline(&bench_->registry, bench_->calibration_samples,
                              config);
  PipelineMetrics uninterrupted = baseline.Run(&baseline_stream).ValueOrDie();
  ASSERT_GE(uninterrupted.drifts_detected, 2);

  // Slices shorter than the drift-handling span, so recovery windows
  // straddle slice boundaries.
  constexpr int64_t kSlice = 25;
  const int64_t total = bench_->dataset.total_frames();
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline sliced(&bench_->registry, bench_->calibration_samples,
                            config);
  RunOptions slice;
  slice.max_frames = kSlice;
  bool recovery_straddled_a_slice = false;
  int64_t slices = 0;
  while (stream.position() < total || sliced.recovery_pending()) {
    int64_t before = stream.position();
    ASSERT_TRUE(sliced.Run(&stream, slice).ok());
    // The invariant the serve layer schedules by: position advances by
    // exactly min(max_frames, remaining) per call.
    EXPECT_EQ(stream.position() - before,
              std::min<int64_t>(kSlice, total - before))
        << "slice " << slices << " overshot its frame budget";
    recovery_straddled_a_slice |= sliced.recovery_pending();
    ++slices;
    ASSERT_LE(slices, total) << "sliced run failed to make progress";
  }
  EXPECT_TRUE(recovery_straddled_a_slice)
      << "no drift was handled across a slice boundary; shrink kSlice";
  const PipelineMetrics& resumed = sliced.metrics();
  EXPECT_EQ(resumed.frames, uninterrupted.frames);
  EXPECT_EQ(resumed.drifts_detected, uninterrupted.drifts_detected);
  EXPECT_EQ(resumed.drift_frames, uninterrupted.drift_frames);
  EXPECT_EQ(resumed.detect_lags, uninterrupted.detect_lags);
  EXPECT_EQ(resumed.selections, uninterrupted.selections);
  EXPECT_EQ(resumed.degradation.frames_dropped,
            uninterrupted.degradation.frames_dropped);
  ASSERT_EQ(resumed.per_sequence.size(), uninterrupted.per_sequence.size());
  for (const auto& [id, acc] : uninterrupted.per_sequence) {
    const SequenceAccuracy& other = resumed.per_sequence.at(id);
    EXPECT_EQ(other.count_correct, acc.count_correct) << "seq " << id;
    EXPECT_EQ(other.count_total, acc.count_total) << "seq " << id;
    EXPECT_EQ(other.invocations, acc.invocations) << "seq " << id;
  }

  // The baseline rows slice the same loop: run in 3 slices, each ends
  // with the counters of an uninterrupted run.
  for (const Row& row : BaselineRows()) {
    video::StreamGenerator whole_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline whole(row.registry, row.samples, row.config);
    PipelineMetrics expected = whole.Run(&whole_stream).ValueOrDie();
    ASSERT_EQ(expected.frames, total) << row.name;
    video::StreamGenerator row_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline thirds(row.registry, row.samples, row.config);
    RunOptions third;
    third.max_frames = (total + 2) / 3;
    for (int i = 0; i < 3; ++i) {
      int64_t before = row_stream.position();
      ASSERT_TRUE(thirds.Run(&row_stream, third).ok()) << row.name;
      EXPECT_EQ(row_stream.position() - before,
                std::min<int64_t>(third.max_frames, total - before))
          << row.name << " slice " << i << " overshot its frame budget";
    }
    EXPECT_EQ(row_stream.position(), total) << row.name;
    EXPECT_TRUE(static_cast<const PipelineCounters&>(thirds.metrics()) ==
                static_cast<const PipelineCounters&>(expected))
        << row.name << ": slicing changed the counters";
  }
}

TEST_F(PipelineFixture, ResumeMidRecoveryRebuildsLagClockAndHistogram) {
  // Detection-lag clock regression: the clock advances for frames consumed
  // inside drift handling and is serialized in checkpoints, so a
  // checkpoint cut mid-recovery resumes to a bit-identical
  // detect_lag_frames histogram — not a diverged one.
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  video::StreamGenerator baseline_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline baseline(&bench_->registry, bench_->calibration_samples,
                              config);
  PipelineMetrics uninterrupted = baseline.Run(&baseline_stream).ValueOrDie();
  ASSERT_GE(uninterrupted.drifts_detected, 1);
  ASSERT_EQ(uninterrupted.detect_lags.size(),
            static_cast<size_t>(uninterrupted.drifts_detected));

  // Drive short slices until drift handling parks across a boundary, so
  // the checkpoint lands mid-recovery with buffered frames.
  const int64_t total = bench_->dataset.total_frames();
  video::StreamGenerator first_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline first(&bench_->registry, bench_->calibration_samples,
                           config);
  RunOptions slice;
  slice.max_frames = 7;
  while (!first.recovery_pending()) {
    ASSERT_LT(first_stream.position(), total)
        << "stream ended before any drift parked across a slice";
    ASSERT_TRUE(first.Run(&first_stream, slice).ok());
  }
  std::string path = ::testing::TempDir() + "/vdrift_midrecovery.ckpt";
  ASSERT_TRUE(first.Checkpoint(path, first_stream).ok());

  // "Crash" mid-recovery: fresh pipeline + stream, resume, finish.
  video::StreamGenerator second_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline second(&bench_->registry, bench_->calibration_samples,
                            config);
  Status resumed = second.Resume(path, &second_stream);
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_TRUE(second.recovery_pending())
      << "parked drift handling was not restored";
  PipelineMetrics recovered = second.Run(&second_stream).ValueOrDie();

  EXPECT_EQ(recovered.frames, uninterrupted.frames);
  EXPECT_EQ(recovered.drift_frames, uninterrupted.drift_frames);
  EXPECT_EQ(recovered.selections, uninterrupted.selections);
  EXPECT_EQ(recovered.detect_lags, uninterrupted.detect_lags);
  obs::Histogram::Snapshot expected =
      uninterrupted.registry->GetHistogram("vdrift.pipeline.detect_lag_frames")
          .snapshot();
  obs::Histogram::Snapshot actual =
      recovered.registry->GetHistogram("vdrift.pipeline.detect_lag_frames")
          .snapshot();
  EXPECT_EQ(actual.count, expected.count);
  EXPECT_EQ(actual.sum, expected.sum);
  EXPECT_EQ(actual.buckets, expected.buckets);
  std::remove(path.c_str());
}

TEST_F(PipelineFixture, ResumeThenCheckpointWritesTheSameBytes) {
  // A resume must restore everything a checkpoint saves: checkpointing a
  // freshly resumed pipeline writes the file it resumed from, byte for
  // byte. Cut once with drift handling parked across a slice (buffered
  // frames included) and once after a drift was handled.
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  const int64_t total = bench_->dataset.total_frames();
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline pipeline(&bench_->registry, bench_->calibration_samples,
                              config);
  RunOptions slice;
  slice.max_frames = 7;
  auto expect_round_trip = [&](const std::string& tag) {
    const std::string saved =
        ::testing::TempDir() + "/vdrift_roundtrip_" + tag + ".ckpt";
    const std::string again =
        ::testing::TempDir() + "/vdrift_roundtrip_" + tag + "_again.ckpt";
    ASSERT_TRUE(pipeline.Checkpoint(saved, stream).ok());
    video::StreamGenerator fresh_stream = bench_->dataset.MakeStream();
    DriftAwarePipeline fresh(&bench_->registry, bench_->calibration_samples,
                             config);
    Status resumed = fresh.Resume(saved, &fresh_stream);
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    ASSERT_TRUE(fresh.Checkpoint(again, fresh_stream).ok());
    const std::string first = ReadFileToString(saved).ValueOrDie();
    const std::string second = ReadFileToString(again).ValueOrDie();
    EXPECT_EQ(first.size(), second.size()) << tag;
    EXPECT_TRUE(first == second) << tag << ": resume lost saved state";
    std::remove(saved.c_str());
    std::remove(again.c_str());
  };

  while (!pipeline.recovery_pending()) {
    ASSERT_LT(stream.position(), total)
        << "stream ended before any drift parked across a slice";
    ASSERT_TRUE(pipeline.Run(&stream, slice).ok());
  }
  const std::string parked = ::testing::TempDir() + "/vdrift_parked.ckpt";
  ASSERT_TRUE(pipeline.Checkpoint(parked, stream).ok());
  Result<PipelineCheckpoint> checkpoint = ReadCheckpointFile(parked, nullptr);
  std::remove(parked.c_str());
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_FALSE(checkpoint.value().state.recovery.window.empty())
      << "the parked checkpoint buffers no frames";
  expect_round_trip("parked");

  while (pipeline.recovery_pending()) {
    ASSERT_LT(stream.position(), total);
    ASSERT_TRUE(pipeline.Run(&stream, slice).ok());
  }
  ASSERT_FALSE(pipeline.metrics().selections.empty());
  expect_round_trip("handled");
}

TEST_F(PipelineFixture, DetectorRowScoresBothQueriesWithPredict) {
  // The fixed detector's row scores the count query with its count model's
  // Predict and the spatial predicate against detect::PredicateLabel — the
  // same ground-truth encoding every other row uses — so Fig. 7/8
  // accuracies compare across rows. Pinned by replaying the stream by hand.
  PipelineConfig config = RowConfig(PipelineConfig::Detector::kNone);
  config.run_predicate = true;
  video::StreamGenerator s1 = bench_->dataset.MakeStream();
  DriftAwarePipeline detector(Yolo(), {}, config);
  PipelineMetrics metrics = detector.Run(&s1).ValueOrDie();
  const select::ModelEntry& entry = Yolo()->at(0);
  video::StreamGenerator s2 = bench_->dataset.MakeStream();
  video::Frame frame;
  SequenceAccuracy expected;
  while (s2.Next(&frame)) {
    expected.count_total += 1;
    expected.predicate_total += 1;
    expected.invocations += 1;
    if (entry.count_model->Predict(frame.pixels) ==
        detect::CountLabel(frame.truth, entry.count_model->num_classes())) {
      expected.count_correct += 1;
    }
    if (entry.predicate_model->Predict(frame.pixels) ==
        detect::PredicateLabel(frame.truth)) {
      expected.predicate_correct += 1;
    }
  }
  EXPECT_EQ(metrics.Totals(), expected);
}

TEST_F(PipelineFixture, ResumeFromCorruptCheckpointIsDataLossNotCrash) {
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  RunOptions some;
  some.max_frames = 40;
  ASSERT_TRUE(pipeline.Run(&stream, some).ok());
  std::string path = ::testing::TempDir() + "/vdrift_corrupt_resume.ckpt";
  ASSERT_TRUE(pipeline.Checkpoint(path, stream).ok());

  // Corrupt the file on disk; a fresh pipeline must report kDataLoss and
  // stay usable for the cold-start fallback.
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("checkpoint_corrupt:p=1").ValueOrDie();
  fault::FaultInjector injector(plan, 3);
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    int byte = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(byte ^ 0x20, f);
    std::fclose(f);
  }
  video::StreamGenerator fresh_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline fresh(&bench_->registry, bench_->calibration_samples,
                           config);
  Status resumed = fresh.Resume(path, &fresh_stream);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.code(), StatusCode::kDataLoss);
  // Cold start still works after the failed resume.
  fresh_stream.Reset();
  RunOptions a_bit;
  a_bit.max_frames = 30;
  EXPECT_TRUE(fresh.Run(&fresh_stream, a_bit).ok());
  std::remove(path.c_str());
}

TEST_F(PipelineFixture, CheckpointFromAFutureVersionIsDataLossNotUb) {
  // A checkpoint written by a future build must be diagnosed before any
  // payload field is trusted — forward compatibility means refusing
  // loudly, not decoding garbage.
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  RunOptions some;
  some.max_frames = 40;
  ASSERT_TRUE(pipeline.Run(&stream, some).ok());
  std::string path = ::testing::TempDir() + "/vdrift_future_version.ckpt";
  ASSERT_TRUE(pipeline.Checkpoint(path, stream).ok());

  // Hand-build the "future" fixture: the little-endian u32 version field
  // sits at bytes 8..11, right after the 8-byte "VDCKPT01" magic. Stamp
  // version 99 and leave everything else (CRC included) intact.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    std::fputc(99, f);
    std::fputc(0, f);
    std::fputc(0, f);
    std::fputc(0, f);
    std::fclose(f);
  }
  video::StreamGenerator fresh_stream = bench_->dataset.MakeStream();
  DriftAwarePipeline fresh(&bench_->registry, bench_->calibration_samples,
                           config);
  Status resumed = fresh.Resume(path, &fresh_stream);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.code(), StatusCode::kDataLoss);
  EXPECT_NE(resumed.message().find("version"), std::string::npos)
      << resumed.ToString();
  std::remove(path.c_str());
}

TEST_F(PipelineFixture, FaultSweepNeverCrashesAndLosesNothing) {
  // The acceptance sweep in miniature: 8 seeds of a broad fault mix over
  // the full pipeline. Every run must finish with OK status and balanced
  // books — frames delivered == frames queried + frames dropped. CI shards
  // extra seed ranges by exporting VDRIFT_FAULT_SEED as the base.
  fault::FaultPlan plan =
      fault::FaultPlan::Parse(
          "corrupt_frame:p=0.02;nan_frame:p=0.02;drop_frame:p=0.02;"
          "dup_frame:p=0.02;stall:p=0.005,ms=1;selector_fail:p=0.3;"
          "io_fail:p=0.1;annotator_deadline:p=0.2;annotator_error:p=0.1")
          .ValueOrDie();
  const uint64_t base_seed = static_cast<uint64_t>(
      env::Int("VDRIFT_FAULT_SEED", 0, 0, INT64_MAX));
  for (uint64_t seed = base_seed; seed < base_seed + 8; ++seed) {
    fault::FaultInjector injector(plan, seed);
    video::StreamGenerator inner = bench_->dataset.MakeStream();
    fault::FaultyStream stream(&inner, &injector);
    PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
    config.injector = &injector;
    DriftAwarePipeline pipeline(&bench_->registry,
                                bench_->calibration_samples, config);
    Result<PipelineMetrics> run = pipeline.Run(&stream);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString();
    const PipelineMetrics& metrics = run.value();
    EXPECT_EQ(metrics.frames, stream.position()) << "seed " << seed;
    EXPECT_EQ(
        metrics.Totals().count_total + metrics.degradation.frames_dropped,
        metrics.frames)
        << "seed " << seed << ": a frame fell through the books";
    EXPECT_EQ(static_cast<int64_t>(metrics.selections.size()),
              static_cast<int64_t>(metrics.drifts_detected))
        << "seed " << seed << ": a drift was handled without a decision";
  }
}

TEST_F(PipelineFixture, SamplerWindowsAreDeterministicAndCleanRunIsQuiet) {
  // A clean run with the sampler + default SLO watchdog armed: windows are
  // taken on the admitted-frame clock, their counter deltas sum exactly to
  // the final totals, and no alert fires.
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  config.obs.sample_interval_frames = 32;
  config.obs.slo_spec = "default";
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  PipelineMetrics metrics = pipeline.Run(&stream).ValueOrDie();
  ASSERT_NE(metrics.sampler, nullptr);
  ASSERT_NE(metrics.watchdog, nullptr);
  ASSERT_GE(metrics.sampler->windows_sampled(), metrics.frames / 32);
  std::vector<obs::MetricsWindow> windows = metrics.sampler->windows();
  ASSERT_FALSE(windows.empty());
  // Stream-time clock: window boundaries are admitted-frame counts.
  EXPECT_EQ(windows[0].end_time, 32.0);
  std::map<std::string, int64_t> delta_sums;
  std::map<std::string, int64_t> finals;
  for (const obs::MetricsWindow& w : windows) {
    for (const auto& [name, delta] : w.counter_deltas) {
      delta_sums[name] += delta;
    }
    for (const auto& [name, total] : w.counter_totals) {
      finals[name] = total;
    }
  }
  EXPECT_EQ(delta_sums, finals);
  EXPECT_EQ(finals.at("vdrift.pipeline.frames"), metrics.frames);
  EXPECT_EQ(metrics.watchdog->total_alerts(), 0)
      << metrics.watchdog->AlertsJson();
  EXPECT_TRUE(metrics.episodes->alerts().empty());

  // Same stream, same config: bit-identical window series.
  video::StreamGenerator again = bench_->dataset.MakeStream();
  DriftAwarePipeline rerun(&bench_->registry, bench_->calibration_samples,
                           config);
  PipelineMetrics second = rerun.Run(&again).ValueOrDie();
  std::vector<obs::MetricsWindow> rewindows = second.sampler->windows();
  ASSERT_EQ(rewindows.size(), windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(rewindows[i].end_time, windows[i].end_time);
    EXPECT_EQ(rewindows[i].counter_deltas, windows[i].counter_deltas);
    EXPECT_EQ(rewindows[i].gauges, windows[i].gauges);
  }
}

TEST_F(PipelineFixture, TracedRunRecordsStageSpansAndKernelOps) {
  // With the flight recorder on, one run leaves every pipeline stage span
  // and the kernels' complete op events, FLOP-attributed, in the rings,
  // and nothing wraps.
  obs::TraceLog& log = obs::TraceLog::Instance();
  log.Enable();
  video::StreamGenerator stream = bench_->dataset.MakeStream();
  DriftAwarePipeline pipeline(&bench_->registry, bench_->calibration_samples,
                              BaseConfig(PipelineConfig::Selector::kMsbo));
  Result<PipelineMetrics> run = pipeline.Run(&stream);
  log.Disable();
  obs::SetKernelProfiling(false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<obs::TraceEvent> events = log.Drain();
  EXPECT_EQ(log.dropped_events(), 0);
  std::set<std::string> spans;
  int ops = 0;
  int ops_with_flops = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == obs::TraceEvent::Phase::kBegin) spans.insert(event.name);
    if (std::string(event.category) != "op") continue;
    ++ops;
    EXPECT_EQ(event.phase, obs::TraceEvent::Phase::kComplete) << event.name;
    EXPECT_GE(event.dur_us, 0.0) << event.name;
    if (event.flops > 0) ++ops_with_flops;
  }
  for (const char* stage :
       {"vdrift.pipeline.run_seconds", "vdrift.pipeline.detect_seconds",
        "vdrift.pipeline.select_seconds", "vdrift.pipeline.query_seconds"}) {
    EXPECT_EQ(spans.count(stage), 1u) << stage;
  }
  EXPECT_GT(ops, 0);
  EXPECT_GT(ops_with_flops, 0);
}

TEST_F(PipelineFixture, InjectedFaultsRaiseSloAlerts) {
  // The watchdog's reason to exist: a fault injection run must surface as
  // structured alerts — in the watchdog log, as labeled alert counters,
  // and as AlertMarks on the episode recorder.
  video::StreamGenerator inner = bench_->dataset.MakeStream();
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("nan_frame:p=0.1;selector_fail:p=0.8")
          .ValueOrDie();
  fault::FaultInjector injector(plan, 2024);
  fault::FaultyStream stream(&inner, &injector);
  PipelineConfig config = BaseConfig(PipelineConfig::Selector::kMsbo);
  config.injector = &injector;
  config.obs.sample_interval_frames = 32;
  config.obs.slo_spec = "default";
  DriftAwarePipeline pipeline(&bench_->registry,
                              bench_->calibration_samples, config);
  Result<PipelineMetrics> run = pipeline.Run(&stream);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const PipelineMetrics& metrics = run.value();
  ASSERT_NE(metrics.watchdog, nullptr);
  ASSERT_GE(metrics.watchdog->total_alerts(), 1)
      << "injected faults raised no alerts";
  // Every alert is attributable to one of the injected fault kinds.
  std::vector<obs::AlertEvent> alerts = metrics.watchdog->alerts();
  for (const obs::AlertEvent& alert : alerts) {
    EXPECT_TRUE(alert.rule == "frame_drop_ratio" ||
                alert.rule == "selector_failures" ||
                alert.rule == "drift_oblivious")
        << "unexpected rule " << alert.rule << ": " << alert.message;
    // The labeled per-rule alert counter was bumped.
    EXPECT_GE(metrics.registry
                  ->GetCounter("vdrift.slo.alerts", {{"rule", alert.rule}})
                  .value(),
              1);
  }
  // The episode recorder holds matching marks at the firing frames.
  std::vector<obs::AlertMark> marks = metrics.episodes->alerts();
  ASSERT_EQ(marks.size(), alerts.size());
  for (size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i].rule, alerts[i].rule);
    EXPECT_EQ(marks[i].frame, static_cast<int64_t>(alerts[i].time));
  }
}

TEST(ProvisionTest, RejectsBadInput) {
  stats::Rng rng(1);
  ProvisionOptions options = DefaultProvisionOptions();
  EXPECT_FALSE(ProvisionModel("x", {}, options, &rng).ok());
  options.ensemble_size = 0;
  video::SceneSpec spec;
  std::vector<video::Frame> frames = video::GenerateFrames(spec, 4, 32, 2);
  EXPECT_FALSE(ProvisionModel("x", frames, options, &rng).ok());
}

TEST(ProvisionTest, DetectorEntryTrainsAndPredictsBothQueries) {
  stats::Rng rng(4);
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.01);
  std::vector<video::Frame> frames =
      video::GenerateFrames(ds.SpecOf("Day"), 200, 32, 9);
  detect::ClassifierTrainConfig tc;
  tc.epochs = 6;
  select::ModelEntry entry =
      ProvisionDetector("YOLO", frames, tc, &rng).ValueOrDie();
  EXPECT_EQ(entry.profile, nullptr);
  EXPECT_EQ(entry.ensemble, nullptr);
  ASSERT_NE(entry.count_model, nullptr);
  ASSERT_NE(entry.predicate_model, nullptr);
  EXPECT_EQ(entry.predicate_model->num_classes(), 2);
  int correct_count = 0;
  int correct_pred = 0;
  std::vector<video::Frame> test =
      video::GenerateFrames(ds.SpecOf("Day"), 100, 32, 10);
  for (const video::Frame& f : test) {
    if (entry.count_model->Predict(f.pixels) ==
        detect::CountLabel(f.truth, entry.count_model->num_classes())) {
      ++correct_count;
    }
    if (entry.predicate_model->Predict(f.pixels) ==
        detect::PredicateLabel(f.truth)) {
      ++correct_pred;
    }
  }
  EXPECT_GT(correct_count, 25) << "count model at or below chance";
  EXPECT_GT(correct_pred, 55) << "predicate model at or below chance";
  EXPECT_FALSE(ProvisionDetector("YOLO", {}, tc, &rng).ok());
}

TEST(ProvisionTest, MakeLabeledSampleSizesAndRange) {
  stats::Rng rng(2);
  video::SceneSpec spec;
  std::vector<video::Frame> frames = video::GenerateFrames(spec, 10, 32, 3);
  std::vector<select::LabeledFrame> sample =
      MakeLabeledSample(frames, 8, 25, &rng);
  ASSERT_EQ(sample.size(), 25u);
  for (const auto& lf : sample) {
    EXPECT_GE(lf.label, 0);
    EXPECT_LT(lf.label, 8);
  }
  EXPECT_TRUE(MakeLabeledSample({}, 8, 5, &rng).empty());
}

}  // namespace
}  // namespace vdrift::pipeline
