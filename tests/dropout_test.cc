// Tests for the Dropout layer and Monte-Carlo-dropout inference.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "detect/annotator.h"
#include "detect/image_classifier.h"
#include "nn/dropout.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "tensor/tensor.h"
#include "video/datasets.h"
#include "video/stream.h"

namespace vdrift::nn {
namespace {

using stats::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(DropoutTest, EvalModeIsIdentity) {
  // Eval mode is Infer: the identity, drawing no randomness.
  Rng rng(1);
  Dropout dropout(0.5, &rng);
  Rng untouched(1);
  Tensor x(Shape{2, 8}, 1.5f);
  Tensor y = dropout.Infer(x);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 1.5f);
  EXPECT_EQ(rng.NextDouble(), untouched.NextDouble());
}

TEST(DropoutTest, RateZeroIsIdentityInTraining) {
  Rng rng(2);
  Dropout dropout(0.0, &rng);
  Tensor x(Shape{1, 16}, 0.7f);
  Tensor y = dropout.Forward(x);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 0.7f);
}

TEST(DropoutTest, ZeroesApproximatelyRateFraction) {
  Rng rng(3);
  Dropout dropout(0.3, &rng);
  Tensor x(Shape{1, 20000}, 1.0f);
  Tensor y = dropout.Forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++zeros;
  }
  double fraction = static_cast<double>(zeros) / static_cast<double>(y.size());
  EXPECT_NEAR(fraction, 0.3, 0.02);
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  Rng rng(4);
  Dropout dropout(0.4, &rng);
  Tensor x(Shape{1, 50000}, 1.0f);
  Tensor y = dropout.Forward(x);
  double sum = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) sum += y[i];
  EXPECT_NEAR(sum / static_cast<double>(y.size()), 1.0, 0.02);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(5);
  Dropout dropout(0.5, &rng);
  Tensor x(Shape{1, 64}, 1.0f);
  Tensor y = dropout.Forward(x);
  Tensor g(Shape{1, 64}, 1.0f);
  Tensor gx = dropout.Backward(g);
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      EXPECT_FLOAT_EQ(gx[i], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(gx[i], 2.0f);  // 1/(1-0.5)
    }
  }
}

TEST(DropoutDeathTest, RejectsBadRate) {
  Rng rng(6);
  EXPECT_DEATH(Dropout(1.0, &rng), "rate");
  EXPECT_DEATH(Dropout(-0.1, &rng), "rate");
}

TEST(McDropoutTest, WithoutDropoutEqualsPredictProba) {
  Rng rng(7);
  detect::ClassifierConfig config;
  config.num_classes = 4;
  config.base_filters = 4;
  detect::ImageClassifier model(config, &rng);
  Tensor frame(Shape{1, 32, 32}, 0.5f);
  std::vector<float> a = model.PredictProba(frame);
  std::vector<float> b = model.PredictProbaMcDropout(frame, 5);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(McDropoutTest, StochasticPassesVaryAndAverageNormalises) {
  Rng rng(8);
  detect::ClassifierConfig config;
  config.num_classes = 4;
  config.base_filters = 4;
  config.dropout_rate = 0.4;
  detect::ImageClassifier model(config, &rng);
  Tensor frame(Shape{1, 32, 32}, 0.5f);
  std::vector<float> p1 = model.PredictProbaMcDropout(frame, 1);
  std::vector<float> p2 = model.PredictProbaMcDropout(frame, 1);
  double diff = 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < p1.size(); ++i) {
    diff += std::abs(p1[i] - p2[i]);
    sum += p1[i];
  }
  EXPECT_GT(diff, 1e-6) << "MC passes should be stochastic";
  EXPECT_NEAR(sum, 1.0, 1e-4);
  std::vector<float> avg = model.PredictProbaMcDropout(frame, 16);
  double avg_sum = 0.0;
  for (float v : avg) avg_sum += v;
  EXPECT_NEAR(avg_sum, 1.0, 1e-4);
}

TEST(McDropoutTest, DeterministicEvalAfterMcPasses) {
  // PredictProba must stay deterministic even after stochastic MC passes
  // ran the training tape.
  Rng rng(9);
  detect::ClassifierConfig config;
  config.num_classes = 3;
  config.base_filters = 4;
  config.dropout_rate = 0.3;
  detect::ImageClassifier model(config, &rng);
  Tensor frame(Shape{1, 32, 32}, 0.4f);
  std::vector<float> before = model.PredictProba(frame);
  (void)model.PredictProbaMcDropout(frame, 4);
  std::vector<float> after = model.PredictProba(frame);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(McDropoutTest, DropoutClassifierStillTrains) {
  Rng rng(10);
  video::SyntheticDataset ds = video::MakeBddSynthetic(0.004);
  std::vector<video::Frame> frames =
      video::GenerateFrames(ds.SpecOf("Day"), 120, 32, 11);
  std::vector<tensor::Tensor> pixels = video::PixelsOf(frames);
  std::vector<int> labels;
  for (const video::Frame& f : frames) {
    labels.push_back(detect::CountLabel(f.truth, 8));
  }
  detect::ClassifierConfig config;
  config.num_classes = 8;
  config.base_filters = 6;
  config.dropout_rate = 0.2;
  detect::ImageClassifier model(config, &rng);
  detect::ClassifierTrainConfig tc;
  tc.epochs = 8;
  std::vector<double> losses =
      model.Train(pixels, labels, tc, &rng).ValueOrDie();
  EXPECT_LT(losses.back(), losses.front());
}

}  // namespace
}  // namespace vdrift::nn
