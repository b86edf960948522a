#include "nn/dropout.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace vdrift::nn {

Dropout::Dropout(double rate, stats::Rng* rng) : rate_(rate), rng_(rng) {
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate must be in [0,1)";
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(rng_ != nullptr);
}

tensor::Tensor Dropout::Forward(const tensor::Tensor& input) {
  if (rate_ == 0.0) {
    mask_ = tensor::Tensor();
    return Infer(input);
  }
  tensor::Tensor out = input;
  mask_ = tensor::Tensor(input.shape());
  float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (int64_t i = 0; i < out.size(); ++i) {
    if (rng_->NextDouble() < rate_) {
      mask_[i] = 0.0f;
      out[i] = 0.0f;
    } else {
      mask_[i] = keep_scale;
      out[i] *= keep_scale;
    }
  }
  return out;
}

tensor::Tensor Dropout::Backward(const tensor::Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  return tensor::Mul(grad_output, mask_);
}

}  // namespace vdrift::nn
