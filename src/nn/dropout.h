#ifndef VDRIFT_NN_DROPOUT_H_
#define VDRIFT_NN_DROPOUT_H_

#include <string>

#include "nn/layer.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Inverted dropout.
///
/// Forward, the training tape, zeroes each activation with probability
/// `rate` and scales survivors by 1/(1-rate); Infer is the identity.
/// Provided both as a regulariser and as the substrate for
/// Monte-Carlo-dropout uncertainty — the Bayesian-approximation
/// alternative the paper's related work cites ([18] Gal & Ghahramani)
/// before arguing for deep ensembles.
class Dropout : public Layer {
 public:
  /// `rng` must outlive the layer.
  Dropout(double rate, stats::Rng* rng);

  tensor::Tensor Infer(const tensor::Tensor& input) const override {
    return input;
  }
  /// Samples a fresh mask per call (when rate > 0); MC dropout runs
  /// Forward at inference time.
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

  double rate() const { return rate_; }

 private:
  double rate_;
  stats::Rng* rng_;
  tensor::Tensor mask_;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_DROPOUT_H_
