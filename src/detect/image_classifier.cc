#include "detect/image_classifier.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "nn/dropout.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "vae/vae.h"

namespace vdrift::detect {

using tensor::Shape;
using tensor::Tensor;

ImageClassifier::ImageClassifier(const ClassifierConfig& config,
                                 stats::Rng* rng)
    : config_(config),
      dropout_rng_(std::make_unique<stats::Rng>(rng->Split())) {
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config.image_size % 4 == 0);
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config.num_classes >= 2);
  int f = config.base_filters;
  int s4 = config.image_size / 4;
  net_.Add<nn::Conv2d>(config.channels, f, 3, 2, 1, rng);
  net_.Add<nn::ReLU>();
  net_.Add<nn::Conv2d>(f, 2 * f, 3, 2, 1, rng);
  net_.Add<nn::ReLU>();
  net_.Add<nn::Conv2d>(2 * f, 2 * f, 3, 1, 1, rng);
  net_.Add<nn::ReLU>();
  net_.Add<nn::Flatten>();
  if (config.dropout_rate > 0.0) {
    net_.Add<nn::Dropout>(config.dropout_rate, dropout_rng_.get());
  }
  net_.Add<nn::Linear>(2 * f * s4 * s4, config.num_classes, rng);
}

Result<std::vector<double>> ImageClassifier::Train(
    const std::vector<Tensor>& frames, const std::vector<int>& labels,
    const ClassifierTrainConfig& train_config, stats::Rng* rng) {
  if (frames.empty()) {
    return Status::InvalidArgument("classifier training needs frames");
  }
  if (frames.size() != labels.size()) {
    return Status::InvalidArgument("frames/labels size mismatch");
  }
  for (int label : labels) {
    if (label < 0 || label >= config_.num_classes) {
      return Status::OutOfRange("label outside [0, num_classes)");
    }
  }
  nn::Adam optimizer(net_.Params(), train_config.learning_rate);
  std::vector<int> order(frames.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<double> epoch_losses;
  for (int epoch = 0; epoch < train_config.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(
        &obs::Global().GetHistogram("vdrift.train.classifier.epoch_seconds"));
    rng->Shuffle(&order);
    double total = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(train_config.batch_size)) {
      size_t end =
          std::min(order.size(),
                   start + static_cast<size_t>(train_config.batch_size));
      std::vector<Tensor> batch_frames;
      std::vector<int> batch_labels;
      for (size_t i = start; i < end; ++i) {
        batch_frames.push_back(frames[static_cast<size_t>(order[i])]);
        batch_labels.push_back(labels[static_cast<size_t>(order[i])]);
      }
      Tensor batch = vae::StackFrames(batch_frames);
      optimizer.ZeroGrad();
      Tensor logits = net_.Forward(batch);
      nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, batch_labels);
      if (!std::isfinite(loss.loss)) {
        return Status::Internal(
            "classifier training loss became non-finite at epoch " +
            std::to_string(epoch));
      }
      net_.Backward(loss.grad);
      optimizer.Step();
      total += loss.loss;
      ++batches;
    }
    epoch_losses.push_back(total / std::max(1, batches));
    obs::Global()
        .GetGauge("vdrift.train.classifier.epoch_loss")
        .Set(epoch_losses.back());
    obs::Global().GetCounter("vdrift.train.classifier.epochs").Increment();
  }
  return epoch_losses;
}

Tensor ImageClassifier::ForwardBatch(const Tensor& batch) const {
  return net_.Infer(batch);
}

std::vector<float> ImageClassifier::PredictProba(const Tensor& frame) const {
  Tensor batch = vae::StackFrames({frame});
  Tensor probs = nn::Softmax(net_.Infer(batch));
  return std::vector<float>(probs.data(), probs.data() + probs.size());
}

std::vector<float> ImageClassifier::PredictProbaMcDropout(const Tensor& frame,
                                                          int passes) {
  // vdrift-lint: allow(no-data-dependent-check): API precondition
  VDRIFT_CHECK(passes >= 1);
  if (config_.dropout_rate <= 0.0) return PredictProba(frame);
  Tensor batch = vae::StackFrames({frame});
  std::vector<float> mixture(static_cast<size_t>(config_.num_classes), 0.0f);
  for (int pass = 0; pass < passes; ++pass) {
    Tensor probs = nn::Softmax(net_.Forward(batch));
    for (size_t i = 0; i < mixture.size(); ++i) mixture[i] += probs[static_cast<int64_t>(i)];
  }
  float inv = 1.0f / static_cast<float>(passes);
  for (float& v : mixture) v *= inv;
  return mixture;
}

int ImageClassifier::Predict(const Tensor& frame) const {
  std::vector<float> probs = PredictProba(frame);
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

double ImageClassifier::Accuracy(const std::vector<Tensor>& frames,
                                 const std::vector<int>& labels) const {
  // vdrift-lint: allow(no-data-dependent-check): caller-size contract
  VDRIFT_CHECK(frames.size() == labels.size());
  if (frames.empty()) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (Predict(frames[i]) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(frames.size());
}

}  // namespace vdrift::detect
