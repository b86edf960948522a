// Tests for the query layer: count query, spatial query, accuracy tracker.

#include <memory>

#include <gtest/gtest.h>

#include "detect/annotator.h"
#include "query/query.h"
#include "video/frame.h"

namespace vdrift::query {
namespace {

// A classifier that always predicts a fixed class.
class ConstantClassifier : public nn::ProbabilisticClassifier {
 public:
  ConstantClassifier(int num_classes, int prediction)
      : num_classes_(num_classes), prediction_(prediction) {}
  std::vector<float> PredictProba(const tensor::Tensor&) const override {
    std::vector<float> p(static_cast<size_t>(num_classes_), 0.0f);
    p[static_cast<size_t>(prediction_)] = 1.0f;
    return p;
  }
  int Predict(const tensor::Tensor&) const override { return prediction_; }
  int num_classes() const override { return num_classes_; }

 private:
  int num_classes_;
  int prediction_;
};

video::Frame MakeFrame(int cars, bool bus_left) {
  video::Frame frame;
  frame.pixels = tensor::Tensor(tensor::Shape{1, 8, 8});
  for (int i = 0; i < cars; ++i) {
    video::ObjectTruth car;
    car.cls = video::ObjectClass::kCar;
    car.cx = 0.8f;
    frame.truth.objects.push_back(car);
  }
  if (bus_left) {
    video::ObjectTruth bus;
    bus.cls = video::ObjectClass::kBus;
    bus.cx = 0.1f;
    frame.truth.objects.push_back(bus);
  }
  return frame;
}

TEST(CountQueryTest, MatchesBucketedTruth) {
  // 7 cars -> bucket 7/3 = 2.
  CountQuery query(std::make_shared<ConstantClassifier>(8, 2));
  QueryResult result = query.Evaluate(MakeFrame(7, false));
  EXPECT_EQ(result.truth, 7 / detect::kCountBinWidth);
  EXPECT_EQ(result.predicted, 2);
  EXPECT_TRUE(result.correct);
}

TEST(CountQueryTest, MismatchDetected) {
  CountQuery query(std::make_shared<ConstantClassifier>(8, 5));
  QueryResult result = query.Evaluate(MakeFrame(2, false));
  EXPECT_FALSE(result.correct);
}

TEST(CountQueryTest, DeploySwapsModel) {
  CountQuery query(std::make_shared<ConstantClassifier>(8, 0));
  EXPECT_TRUE(query.Evaluate(MakeFrame(1, false)).correct);
  query.Deploy(std::make_shared<ConstantClassifier>(8, 7));
  EXPECT_FALSE(query.Evaluate(MakeFrame(1, false)).correct);
}

TEST(SpatialQueryTest, PredicateEvaluation) {
  SpatialQuery yes(std::make_shared<ConstantClassifier>(2, 1));
  EXPECT_TRUE(yes.Evaluate(MakeFrame(1, true)).correct);
  EXPECT_FALSE(yes.Evaluate(MakeFrame(1, false)).correct);
  SpatialQuery no(std::make_shared<ConstantClassifier>(2, 0));
  EXPECT_TRUE(no.Evaluate(MakeFrame(1, false)).correct);
}

TEST(SpatialQueryDeathTest, RejectsNonBinaryModel) {
  EXPECT_DEATH(SpatialQuery(std::make_shared<ConstantClassifier>(5, 0)),
               "binary");
}

TEST(AccuracyTrackerTest, ComputesAq) {
  AccuracyTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.Aq(), 0.0);
  tracker.Add(true);
  tracker.Add(true);
  tracker.Add(false);
  tracker.Add(true);
  EXPECT_EQ(tracker.total(), 4);
  EXPECT_EQ(tracker.correct(), 3);
  EXPECT_DOUBLE_EQ(tracker.Aq(), 0.75);
  QueryResult r;
  r.correct = false;
  tracker.Add(r);
  EXPECT_DOUBLE_EQ(tracker.Aq(), 0.6);
}

}  // namespace
}  // namespace vdrift::query
