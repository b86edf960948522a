#ifndef VDRIFT_NN_CLASSIFIER_H_
#define VDRIFT_NN_CLASSIFIER_H_

#include <vector>

#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Interface of a probabilistic image classifier.
///
/// The model-selection layer (MSBO's deep ensembles, the query models in
/// the registry) works against this interface so it stays independent of
/// the concrete network architecture. Predictions are const and store
/// nothing, so one classifier object serves any number of threads and
/// every stream of a fleet shares the published instance.
class ProbabilisticClassifier {
 public:
  virtual ~ProbabilisticClassifier() = default;

  /// Class probabilities for one frame ([C, H, W]); sums to 1.
  virtual std::vector<float> PredictProba(
      const tensor::Tensor& frame) const = 0;

  /// Argmax class for one frame.
  virtual int Predict(const tensor::Tensor& frame) const = 0;

  /// Number of classes K.
  virtual int num_classes() const = 0;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_CLASSIFIER_H_
