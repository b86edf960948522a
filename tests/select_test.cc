// Tests for the model-selection layer: deep ensembles + Brier scoring,
// MSBO calibration and selection, MSBI elimination, and the registry.
// A three-distribution registry (Day / Night / Rain) is provisioned once
// per suite because training is the expensive part.

#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/msbi.h"
#include "core/msbo.h"
#include "core/profile.h"
#include "core/registry.h"
#include "detect/annotator.h"
#include "obs/metrics.h"
#include "pipeline/provision.h"
#include "runtime/parallel.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "video/datasets.h"
#include "video/stream.h"

namespace vdrift::select {
namespace {

using stats::Rng;

// --- Cheap fakes for unit-level ensemble tests. ---

class FakeClassifier : public nn::ProbabilisticClassifier {
 public:
  FakeClassifier(std::vector<float> proba) : proba_(std::move(proba)) {}
  std::vector<float> PredictProba(const tensor::Tensor&) const override {
    return proba_;
  }
  int Predict(const tensor::Tensor& frame) const override {
    std::vector<float> p = PredictProba(frame);
    return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
  }
  int num_classes() const override {
    return static_cast<int>(proba_.size());
  }

 private:
  std::vector<float> proba_;
};

// Returns fixed probabilities and counts every forward in a counter that
// all members of a registry share (calibration may score in parallel).
class CountingClassifier : public FakeClassifier {
 public:
  CountingClassifier(std::vector<float> proba, std::atomic<int>* forwards)
      : FakeClassifier(std::move(proba)), forwards_(forwards) {}
  std::vector<float> PredictProba(
      const tensor::Tensor& frame) const override {
    forwards_->fetch_add(1);
    return FakeClassifier::PredictProba(frame);
  }

 private:
  std::atomic<int>* forwards_;
};

tensor::Tensor DummyFrame() { return tensor::Tensor(tensor::Shape{1, 4, 4}); }

TEST(DeepEnsembleTest, RejectsBadMembers) {
  EXPECT_FALSE(DeepEnsemble::Make({}).ok());
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{0.5f, 0.5f}));
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{0.3f, 0.3f, 0.4f}));
  EXPECT_FALSE(DeepEnsemble::Make(std::move(members)).ok());
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> with_null;
  with_null.push_back(nullptr);
  EXPECT_FALSE(DeepEnsemble::Make(std::move(with_null)).ok());
}

TEST(DeepEnsembleTest, MixesUniformly) {
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{1.0f, 0.0f}));
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{0.0f, 1.0f}));
  DeepEnsemble ensemble = DeepEnsemble::Make(std::move(members)).ValueOrDie();
  std::vector<float> p = ensemble.PredictProba(DummyFrame());
  EXPECT_FLOAT_EQ(p[0], 0.5f);
  EXPECT_FLOAT_EQ(p[1], 0.5f);
  EXPECT_EQ(ensemble.size(), 2);
  EXPECT_EQ(ensemble.num_classes(), 2);
}

TEST(DeepEnsembleTest, BrierScoreKnownValues) {
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{0.8f, 0.2f}));
  DeepEnsemble ensemble = DeepEnsemble::Make(std::move(members)).ValueOrDie();
  // label 0: ((1-0.8)^2 + (0-0.2)^2) / 2 = 0.04.
  EXPECT_NEAR(ensemble.BrierScore(DummyFrame(), 0), 0.04, 1e-6);
  // label 1: ((0-0.8)^2 + (1-0.2)^2) / 2 = 0.64.
  EXPECT_NEAR(ensemble.BrierScore(DummyFrame(), 1), 0.64, 1e-6);
}

TEST(DeepEnsembleTest, CertainCorrectPredictionScoresZero) {
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{1.0f, 0.0f, 0.0f}));
  DeepEnsemble ensemble = DeepEnsemble::Make(std::move(members)).ValueOrDie();
  EXPECT_NEAR(ensemble.BrierScore(DummyFrame(), 0), 0.0, 1e-9);
}

TEST(DeepEnsembleTest, AverageBrierAveragesWindow) {
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  members.push_back(std::make_shared<FakeClassifier>(
      std::vector<float>{0.8f, 0.2f}));
  DeepEnsemble ensemble = DeepEnsemble::Make(std::move(members)).ValueOrDie();
  std::vector<LabeledFrame> window{{DummyFrame(), 0}, {DummyFrame(), 1}};
  EXPECT_NEAR(ensemble.AverageBrier(window), (0.04 + 0.64) / 2.0, 1e-6);
}

TEST(RegistryTest, AddFindAccess) {
  ModelRegistry registry;
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.FindByName("x"), -1);
}

// --- Full-stack fixture: a provisioned 3-model registry. ---

class SelectionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(2024);
    dataset_ = new video::SyntheticDataset(video::MakeBddSynthetic(0.01));
    registry_ = new ModelRegistry();
    pipeline::ProvisionOptions options =
        pipeline::DefaultProvisionOptions();
    options.profile.trainer.epochs = 18;
    options.classifier_train.epochs = 18;
    options.classifier_filters = 12;
    options.ensemble_size = 5;
    samples_ = new std::vector<std::vector<LabeledFrame>>();
    frames_ = new std::vector<std::vector<video::Frame>>();
    uint64_t seed = 100;
    for (const char* name : {"Day", "Night", "Rain"}) {
      std::vector<video::Frame> frames =
          video::GenerateFrames(dataset_->SpecOf(name), 260, 32, seed++);
      ModelEntry entry =
          pipeline::ProvisionModel(name, frames, options, rng_).ValueOrDie();
      registry_->Add(std::move(entry));
      samples_->push_back(pipeline::MakeLabeledSample(
          frames, options.count_classes, 24, rng_));
      frames_->push_back(std::move(frames));
    }
    calibration_ = new MsboCalibration(
        CalibrateMsbo(*registry_, *samples_).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete calibration_;
    delete frames_;
    delete samples_;
    delete registry_;
    delete dataset_;
    delete rng_;
  }

  static std::vector<LabeledFrame> LabeledWindow(const char* sequence,
                                                 int n, uint64_t seed) {
    std::vector<video::Frame> frames =
        video::GenerateFrames(dataset_->SpecOf(sequence), n, 32, seed);
    std::vector<LabeledFrame> window;
    for (const video::Frame& f : frames) {
      window.push_back({f.pixels, detect::CountLabel(f.truth, 8)});
    }
    return window;
  }

  static std::vector<tensor::Tensor> PixelWindow(const char* sequence, int n,
                                                 uint64_t seed) {
    return video::PixelsOf(
        video::GenerateFrames(dataset_->SpecOf(sequence), n, 32, seed));
  }

  static Rng* rng_;
  static video::SyntheticDataset* dataset_;
  static ModelRegistry* registry_;
  static std::vector<std::vector<LabeledFrame>>* samples_;
  static std::vector<std::vector<video::Frame>>* frames_;
  static MsboCalibration* calibration_;
};

Rng* SelectionFixture::rng_ = nullptr;
video::SyntheticDataset* SelectionFixture::dataset_ = nullptr;
ModelRegistry* SelectionFixture::registry_ = nullptr;
std::vector<std::vector<LabeledFrame>>* SelectionFixture::samples_ = nullptr;
std::vector<std::vector<video::Frame>>* SelectionFixture::frames_ = nullptr;
MsboCalibration* SelectionFixture::calibration_ = nullptr;

TEST_F(SelectionFixture, RegistryProvisioned) {
  ASSERT_EQ(registry_->size(), 3);
  EXPECT_EQ(registry_->FindByName("Night"), 1);
  for (const ModelEntry& entry : registry_->entries()) {
    EXPECT_NE(entry.profile, nullptr);
    EXPECT_NE(entry.ensemble, nullptr);
    EXPECT_NE(entry.count_model, nullptr);
    EXPECT_NE(entry.predicate_model, nullptr);
    EXPECT_EQ(entry.ensemble->size(), 5);
  }
}

TEST_F(SelectionFixture, CalibrationBaselinesArePositive) {
  for (int i = 0; i < registry_->size(); ++i) {
    EXPECT_GT(calibration_->pc_avg[static_cast<size_t>(i)], 0.0);
    EXPECT_GE(calibration_->sigma[static_cast<size_t>(i)], 0.0);
    // Foreign-data uncertainty should be clearly nonzero.
    EXPECT_GT(calibration_->pc_avg[static_cast<size_t>(i)], 0.02);
  }
}

TEST_F(SelectionFixture, EnsembleMoreCertainOnOwnDistribution) {
  // The core MSBO premise: ensemble i has a lower Brier on distribution i
  // than foreign ensembles do (Fig. 5's separation).
  std::vector<LabeledFrame> night = LabeledWindow("Night", 30, 500);
  double own = registry_->at(1).ensemble->AverageBrier(night);
  double day_on_night = registry_->at(0).ensemble->AverageBrier(night);
  double rain_on_night = registry_->at(2).ensemble->AverageBrier(night);
  EXPECT_LT(own, day_on_night);
  EXPECT_LT(own, rain_on_night);
}

TEST_F(SelectionFixture, MsboSelectsMatchingModel) {
  // MSBO margins on 10-frame windows carry some noise at this model
  // scale (EXPERIMENTS.md: 85/96 across all datasets), so each sequence
  // is tested over several windows and must win the clear majority.
  Msbo msbo(registry_, *calibration_, MsboConfig{});
  const int kTrials = 4;
  int total_correct = 0;
  int never_new = 0;
  for (int i = 0; i < registry_->size(); ++i) {
    for (int t = 0; t < kTrials; ++t) {
      Selection selection =
          msbo.Select(LabeledWindow(registry_->at(i).name.c_str(), 10,
                                    600 + static_cast<uint64_t>(10 * i + t)))
              .ValueOrDie();
      if (!selection.train_new_model) ++never_new;
      if (!selection.train_new_model && selection.model_index == i) {
        ++total_correct;
      }
      // Alg. 3: every frame scored by every ensemble member of every model.
      EXPECT_EQ(selection.invocations,
                10 * registry_->at(0).ensemble->size() * registry_->size());
      EXPECT_EQ(selection.frames_examined, 10);
    }
  }
  int total = kTrials * registry_->size();
  // Known distributions should rarely be flagged as novel and the
  // matching model must win the clear majority of windows overall —
  // matching the measured robustness of ~85-90% on 10-frame windows
  // (EXPERIMENTS.md, "Selection robustness").
  EXPECT_GE(never_new, total - 2);
  EXPECT_GE(total_correct, (total * 7) / 12)
      << "MSBO matched only " << total_correct << "/" << total;
}

TEST_F(SelectionFixture, MsboFlagsUnseenDistribution) {
  // Snow was never provisioned; MSBO must call for a new model.
  std::vector<video::Frame> snow =
      video::GenerateFrames(dataset_->SpecOf("Snow"), 10, 32, 700);
  std::vector<LabeledFrame> window;
  for (const video::Frame& f : snow) {
    window.push_back({f.pixels, detect::CountLabel(f.truth, 8)});
  }
  Msbo msbo(registry_, *calibration_, MsboConfig{});
  Selection selection = msbo.Select(window).ValueOrDie();
  EXPECT_TRUE(selection.train_new_model);
  EXPECT_EQ(selection.model_index, -1);
}

TEST_F(SelectionFixture, MsboRejectsEmptyWindow) {
  Msbo msbo(registry_, *calibration_, MsboConfig{});
  EXPECT_FALSE(msbo.Select({}).ok());
}

TEST_F(SelectionFixture, MsbiSelectsMatchingModel) {
  Msbi msbi(registry_, MsbiConfig{});
  for (int i = 0; i < registry_->size(); ++i) {
    const char* name = registry_->at(i).name.c_str();
    Selection selection =
        msbi.Select(PixelWindow(name, 10, 800 + static_cast<uint64_t>(i)))
            .ValueOrDie();
    EXPECT_FALSE(selection.train_new_model) << name;
    EXPECT_EQ(selection.model_index, i) << name;
  }
}

TEST_F(SelectionFixture, MsbiFlagsUnseenDistribution) {
  Msbi msbi(registry_, MsbiConfig{});
  Selection selection =
      msbi.Select(PixelWindow("Snow", 10, 900)).ValueOrDie();
  EXPECT_TRUE(selection.train_new_model);
}

TEST_F(SelectionFixture, MsbiRejectsEmptyWindow) {
  Msbi msbi(registry_, MsbiConfig{});
  EXPECT_FALSE(msbi.Select({}).ok());
}

TEST_F(SelectionFixture, MsboTradeoffFasterThanMsbi) {
  // §5.3: MSBO examines W_T frames with L ensemble members each; MSBI runs
  // a DI pass per model. Compare *invocation* bookkeeping rather than
  // wall-time (stable on any machine).
  Msbo msbo(registry_, *calibration_, MsboConfig{});
  Msbi msbi(registry_, MsbiConfig{});
  Selection so = msbo.Select(LabeledWindow("Day", 10, 1000)).ValueOrDie();
  Selection si = msbi.Select(PixelWindow("Day", 10, 1001)).ValueOrDie();
  EXPECT_GT(so.invocations, 0);
  EXPECT_GT(si.invocations, 0);
}

TEST_F(SelectionFixture, CalibrationRejectsMismatchedSamples) {
  std::vector<std::vector<LabeledFrame>> short_samples(2);
  EXPECT_FALSE(CalibrateMsbo(*registry_, short_samples).ok());
}

// The calibration as first written: AverageBrier per (sample, foreign
// ensemble) for h, then a per-frame BrierScore sweep for pc_avg and sigma,
// scoring every pair twice, serially. CalibrateMsbo must match it bit for
// bit at every thread count.
MsboCalibration TwoPassReferenceCalibration(
    const ModelRegistry& registry,
    const std::vector<std::vector<LabeledFrame>>& samples) {
  MsboCalibration calibration;
  calibration.pc_avg.resize(static_cast<size_t>(registry.size()));
  calibration.sigma.resize(static_cast<size_t>(registry.size()));
  stats::RunningMoments sample_moments;
  for (int i = 0; i < registry.size(); ++i) {
    stats::RunningMoments foreign;
    for (int j = 0; j < registry.size(); ++j) {
      if (i == j) continue;
      foreign.Add(registry.at(j).ensemble->AverageBrier(
          samples[static_cast<size_t>(i)]));
    }
    if (foreign.count() > 0) sample_moments.Add(foreign.mean());
  }
  if (sample_moments.count() > 0) {
    calibration.global_h = sample_moments.mean() - sample_moments.stddev();
  } else {
    stats::RunningMoments own;
    for (int i = 0; i < registry.size(); ++i) {
      own.Add(registry.at(i).ensemble->AverageBrier(
          samples[static_cast<size_t>(i)]));
    }
    calibration.global_h = 1.5 * own.mean();
  }
  for (int j = 0; j < registry.size(); ++j) {
    stats::RunningMoments moments;
    for (int i = 0; i < registry.size(); ++i) {
      if (i == j) continue;
      for (const LabeledFrame& lf : samples[static_cast<size_t>(i)]) {
        moments.Add(registry.at(j).ensemble->BrierScore(lf.pixels, lf.label));
      }
    }
    calibration.pc_avg[static_cast<size_t>(j)] =
        moments.count() == 0 ? 1.0 : moments.mean();
    calibration.sigma[static_cast<size_t>(j)] =
        moments.count() == 0 ? 0.0 : moments.stddev();
  }
  return calibration;
}

void ExpectSameCalibration(const MsboCalibration& expected,
                           const MsboCalibration& actual) {
  ASSERT_EQ(expected.pc_avg.size(), actual.pc_avg.size());
  ASSERT_EQ(expected.sigma.size(), actual.sigma.size());
  for (size_t j = 0; j < expected.pc_avg.size(); ++j) {
    EXPECT_EQ(expected.pc_avg[j], actual.pc_avg[j]) << "model " << j;
    EXPECT_EQ(expected.sigma[j], actual.sigma[j]) << "model " << j;
  }
  EXPECT_EQ(expected.global_h, actual.global_h);
}

TEST_F(SelectionFixture, CalibrationMatchesTwoPassReference) {
  ModelRegistry single;
  single.Add(registry_->at(0));
  std::vector<std::vector<LabeledFrame>> single_samples{samples_->front()};
  const MsboCalibration reference =
      TwoPassReferenceCalibration(*registry_, *samples_);
  const MsboCalibration single_reference =
      TwoPassReferenceCalibration(single, single_samples);
  EXPECT_EQ(single_reference.pc_avg[0], 1.0);
  EXPECT_EQ(single_reference.sigma[0], 0.0);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    runtime::ScopedThreads scoped(threads);
    ExpectSameCalibration(reference,
                          CalibrateMsbo(*registry_, *samples_).ValueOrDie());
    ExpectSameCalibration(
        single_reference,
        CalibrateMsbo(single, single_samples).ValueOrDie());
  }
}

// A registry of `models` ensembles with `members` counting fakes each;
// every ensemble predicts a different fixed mixture.
ModelRegistry CountingRegistry(int models, int members,
                               std::atomic<int>* forwards) {
  // Calibration never reads the profile; the registry just requires one.
  vae::VaeConfig tiny;
  tiny.image_size = 8;
  tiny.latent_dim = 1;
  tiny.base_filters = 1;
  Rng rng(1);
  auto profile = std::make_shared<conformal::DistributionProfile>(
      "fake", std::make_shared<vae::Vae>(tiny, &rng),
      conformal::PointSet::Build({{0.0f}, {1.0f}}, 1).ValueOrDie());
  ModelRegistry registry;
  for (int j = 0; j < models; ++j) {
    std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> fakes;
    for (int l = 0; l < members; ++l) {
      float p = 0.1f * static_cast<float>(j + l + 1);
      fakes.push_back(std::make_shared<CountingClassifier>(
          std::vector<float>{p, 1.0f - p}, forwards));
    }
    ModelEntry entry;
    entry.name = "m" + std::to_string(j);
    entry.profile = profile;
    entry.ensemble = std::make_shared<DeepEnsemble>(
        DeepEnsemble::Make(std::move(fakes)).ValueOrDie());
    registry.Add(std::move(entry));
  }
  return registry;
}

std::vector<std::vector<LabeledFrame>> DummySamples(int models, int frames) {
  std::vector<std::vector<LabeledFrame>> samples(static_cast<size_t>(models));
  for (int i = 0; i < models; ++i) {
    for (int f = 0; f < frames; ++f) {
      samples[static_cast<size_t>(i)].push_back({DummyFrame(), f % 2});
    }
  }
  return samples;
}

TEST(MsboCalibrationTest, ScoresEachForeignFrameOncePerMember) {
  const int m = 3;
  const int members = 2;
  const int frames = 4;
  std::atomic<int> forwards{0};
  ModelRegistry registry = CountingRegistry(m, members, &forwards);
  obs::Counter& reported =
      obs::Global().GetCounter("vdrift.select.msbo.calibration_invocations");
  for (int threads : {1, 4}) {
    runtime::ScopedThreads scoped(threads);
    forwards = 0;
    const int64_t reported_before = reported.value();
    ASSERT_TRUE(CalibrateMsbo(registry, DummySamples(m, frames)).ok());
    EXPECT_EQ(forwards.load(), m * (m - 1) * frames * members)
        << threads << " threads";
    EXPECT_EQ(reported.value() - reported_before, forwards.load());
  }
}

TEST(MsboCalibrationTest, SingleModelScoresItsOwnSampleOnce) {
  const int members = 2;
  const int frames = 4;
  std::atomic<int> forwards{0};
  ModelRegistry registry = CountingRegistry(1, members, &forwards);
  MsboCalibration calibration =
      CalibrateMsbo(registry, DummySamples(1, frames)).ValueOrDie();
  EXPECT_EQ(forwards.load(), frames * members);
  EXPECT_EQ(calibration.pc_avg[0], 1.0);
  EXPECT_EQ(calibration.sigma[0], 0.0);
  EXPECT_GT(calibration.global_h, 0.0);
}

TEST(MsboCalibrationTest, EmptySampleIsRejectedBeforeAnyForward) {
  const int m = 3;
  std::atomic<int> forwards{0};
  ModelRegistry registry = CountingRegistry(m, 2, &forwards);
  std::vector<std::vector<LabeledFrame>> samples = DummySamples(m, 4);
  samples.back().clear();
  Result<MsboCalibration> calibration = CalibrateMsbo(registry, samples);
  ASSERT_FALSE(calibration.ok());
  EXPECT_EQ(calibration.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(forwards.load(), 0);
}

TEST(MsboEdgeTest, EmptyRegistrySignalsNewModel) {
  ModelRegistry registry;
  Msbo msbo(&registry, MsboCalibration{}, MsboConfig{});
  std::vector<LabeledFrame> window{{DummyFrame(), 0}};
  Selection selection = msbo.Select(window).ValueOrDie();
  EXPECT_TRUE(selection.train_new_model);
}

TEST(MsbiEdgeTest, EmptyRegistrySignalsNewModel) {
  ModelRegistry registry;
  Msbi msbi(&registry, MsbiConfig{});
  Selection selection =
      msbi.Select({tensor::Tensor(tensor::Shape{1, 4, 4})}).ValueOrDie();
  EXPECT_TRUE(selection.train_new_model);
}

}  // namespace
}  // namespace vdrift::select
