#ifndef VDRIFT_DETECT_IMAGE_CLASSIFIER_H_
#define VDRIFT_DETECT_IMAGE_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "nn/classifier.h"
#include "nn/sequential.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::detect {

/// \brief Architecture knobs of the per-distribution classifiers.
///
/// These CNNs stand in for the paper's VGG-19 count classifiers and OD-CLF
/// spatial filters (§6.3) at laptop scale. `base_filters` controls compute
/// cost: the drift-oblivious YOLOv7 stand-in uses a wider trunk so its
/// per-frame cost realistically dominates the light per-sequence models.
struct ClassifierConfig {
  int image_size = 32;
  int channels = 1;
  int num_classes = 10;
  int base_filters = 8;
  /// When > 0 a Dropout layer is inserted before the classifier head,
  /// enabling Monte-Carlo-dropout uncertainty (the Bayesian-approximation
  /// alternative of [18] that the paper contrasts with deep ensembles).
  double dropout_rate = 0.0;
};

/// \brief Training hyperparameters for a classifier.
struct ClassifierTrainConfig {
  int epochs = 6;
  int batch_size = 16;
  float learning_rate = 2e-3f;
};

/// \brief A small CNN classifier over frames.
class ImageClassifier : public nn::ProbabilisticClassifier {
 public:
  ImageClassifier(const ClassifierConfig& config, stats::Rng* rng);

  ImageClassifier(const ImageClassifier&) = delete;
  ImageClassifier& operator=(const ImageClassifier&) = delete;
  ImageClassifier(ImageClassifier&&) = default;
  ImageClassifier& operator=(ImageClassifier&&) = default;

  /// Trains on ([C,H,W] frame, integer label) pairs with softmax
  /// cross-entropy + Adam; returns the per-epoch average loss.
  Result<std::vector<double>> Train(const std::vector<tensor::Tensor>& frames,
                                    const std::vector<int>& labels,
                                    const ClassifierTrainConfig& train_config,
                                    stats::Rng* rng);

  std::vector<float> PredictProba(const tensor::Tensor& frame) const override;
  int Predict(const tensor::Tensor& frame) const override;
  int num_classes() const override { return config_.num_classes; }

  /// Monte-Carlo-dropout predictive distribution: averages `passes`
  /// stochastic training-tape passes, so dropout samples a mask each
  /// time. With config.dropout_rate == 0 it equals PredictProba.
  std::vector<float> PredictProbaMcDropout(const tensor::Tensor& frame,
                                           int passes);

  /// Batched logits for evaluation ([N, K]).
  tensor::Tensor ForwardBatch(const tensor::Tensor& batch) const;

  /// Fraction of frames whose argmax prediction matches the label.
  double Accuracy(const std::vector<tensor::Tensor>& frames,
                  const std::vector<int>& labels) const;

  const ClassifierConfig& config() const { return config_; }
  /// The underlying network (parameter serialisation and tests).
  nn::Sequential* net() { return &net_; }

 private:
  ClassifierConfig config_;
  nn::Sequential net_;
  // Heap-held so the Dropout layer's pointer to it survives moves.
  std::unique_ptr<stats::Rng> dropout_rng_;
};

}  // namespace vdrift::detect

#endif  // VDRIFT_DETECT_IMAGE_CLASSIFIER_H_
