// Tests for the detection substrate: label extraction, the image
// classifier (training, prediction, accuracy, drift-induced degradation)
// and the annotation oracle.

#include <vector>

#include <gtest/gtest.h>

#include "detect/annotator.h"
#include "detect/image_classifier.h"
#include "stats/rng.h"
#include "video/datasets.h"
#include "video/stream.h"

namespace vdrift::detect {
namespace {

using stats::Rng;

video::ObjectTruth Obj(video::ObjectClass cls, float cx) {
  video::ObjectTruth o;
  o.cls = cls;
  o.cx = cx;
  o.cy = 0.5f;
  o.w = 0.1f;
  o.h = 0.05f;
  return o;
}

TEST(LabelTest, CountLabelBinsAndClamps) {
  video::FrameTruth truth;
  for (int i = 0; i < 15; ++i) {
    truth.objects.push_back(Obj(video::ObjectClass::kCar, 0.5f));
  }
  EXPECT_EQ(CountLabel(truth, 10), 15 / kCountBinWidth);
  truth.objects.resize(4);
  EXPECT_EQ(CountLabel(truth, 10), 4 / kCountBinWidth);
  truth.objects.clear();
  EXPECT_EQ(CountLabel(truth, 10), 0);
  // Far beyond the top bucket: clamped into the last class.
  for (int i = 0; i < 60; ++i) {
    truth.objects.push_back(Obj(video::ObjectClass::kCar, 0.5f));
  }
  EXPECT_EQ(CountLabel(truth, 10), 9);
}

TEST(LabelTest, PredicateLabel) {
  video::FrameTruth truth;
  truth.objects = {Obj(video::ObjectClass::kBus, 0.2f),
                   Obj(video::ObjectClass::kCar, 0.8f)};
  EXPECT_EQ(PredicateLabel(truth), 1);
  truth.objects = {Obj(video::ObjectClass::kCar, 0.2f)};
  EXPECT_EQ(PredicateLabel(truth), 0);
}

ClassifierConfig SmallClassifier(int classes = 6) {
  ClassifierConfig config;
  config.image_size = 32;
  config.num_classes = classes;
  config.base_filters = 6;
  return config;
}

TEST(ImageClassifierTest, RejectsBadTrainingInput) {
  Rng rng(1);
  ImageClassifier clf(SmallClassifier(), &rng);
  ClassifierTrainConfig tc;
  EXPECT_FALSE(clf.Train({}, {}, tc, &rng).ok());
  tensor::Tensor frame(tensor::Shape{1, 32, 32}, 0.5f);
  EXPECT_FALSE(clf.Train({frame}, {0, 1}, tc, &rng).ok());
  EXPECT_FALSE(clf.Train({frame}, {99}, tc, &rng).ok());
  EXPECT_FALSE(clf.Train({frame}, {-1}, tc, &rng).ok());
}

TEST(ImageClassifierTest, ProbabilitiesSumToOne) {
  Rng rng(2);
  ImageClassifier clf(SmallClassifier(), &rng);
  tensor::Tensor frame(tensor::Shape{1, 32, 32}, 0.5f);
  std::vector<float> p = clf.PredictProba(frame);
  ASSERT_EQ(p.size(), 6u);
  double sum = 0.0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

// End-to-end on real rendered frames: a classifier trained on Day frames
// must learn the (coarse) count signal on Day and lose accuracy on Night —
// the covariate-shift failure mode that motivates the whole paper.
TEST(ImageClassifierTest, LearnsOnDistributionDegradesOffDistribution) {
  Rng rng(3);
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.01);
  const int kClasses = 8;
  auto make_data = [&](const std::string& seq, int n, uint64_t seed,
                       std::vector<tensor::Tensor>* frames,
                       std::vector<int>* labels) {
    std::vector<video::Frame> raw =
        video::GenerateFrames(ds.SpecOf(seq), n, 32, seed);
    for (const video::Frame& f : raw) {
      frames->push_back(f.pixels);
      labels->push_back(CountLabel(f.truth, kClasses));
    }
  };
  std::vector<tensor::Tensor> train_frames;
  std::vector<int> train_labels;
  make_data("Day", 300, 10, &train_frames, &train_labels);
  ImageClassifier clf(SmallClassifier(kClasses), &rng);
  ClassifierTrainConfig tc;
  tc.epochs = 10;
  std::vector<double> losses =
      clf.Train(train_frames, train_labels, tc, &rng).ValueOrDie();
  EXPECT_LT(losses.back(), losses.front());

  std::vector<tensor::Tensor> day_frames;
  std::vector<int> day_labels;
  make_data("Day", 150, 11, &day_frames, &day_labels);
  double day_acc = clf.Accuracy(day_frames, day_labels);

  std::vector<tensor::Tensor> night_frames;
  std::vector<int> night_labels;
  make_data("Night", 150, 12, &night_frames, &night_labels);
  double night_acc = clf.Accuracy(night_frames, night_labels);

  // Counting cars in 32x32 synthetic frames is hard; what matters is the
  // model does far better than chance on-distribution and degrades
  // markedly off-distribution.
  EXPECT_GT(day_acc, 0.3) << "day accuracy too low to be meaningful";
  EXPECT_GT(day_acc, night_acc + 0.1)
      << "no covariate-shift degradation: day=" << day_acc
      << " night=" << night_acc;
}

TEST(OracleAnnotatorTest, ReturnsExactTruth) {
  OracleAnnotator oracle(0);
  video::SceneSpec spec;
  std::vector<video::Frame> frames = video::GenerateFrames(spec, 5, 32, 7);
  for (const video::Frame& f : frames) {
    video::FrameTruth truth = oracle.Annotate(f);
    EXPECT_EQ(truth.objects.size(), f.truth.objects.size());
    EXPECT_EQ(truth.CarCount(), f.truth.CarCount());
  }
}

TEST(OracleAnnotatorTest, WorkloadDoesNotChangeLabels) {
  OracleAnnotator heavy(64);
  EXPECT_EQ(heavy.work_dim(), 64);
  video::SceneSpec spec;
  std::vector<video::Frame> frames = video::GenerateFrames(spec, 3, 32, 8);
  for (const video::Frame& f : frames) {
    EXPECT_EQ(heavy.Annotate(f).CarCount(), f.truth.CarCount());
  }
}

}  // namespace
}  // namespace vdrift::detect
