#include "nn/sequential.h"

namespace vdrift::nn {

tensor::Tensor Sequential::Infer(const tensor::Tensor& input) const {
  tensor::Tensor x = input;
  for (const auto& layer : layers_) {
    x = layer->Infer(x);
  }
  return x;
}

tensor::Tensor Sequential::Forward(const tensor::Tensor& input) {
  tensor::Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->Forward(x);
  }
  return x;
}

tensor::Tensor Sequential::Backward(const tensor::Tensor& grad_output) {
  tensor::Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) params.push_back(p);
  }
  return params;
}

int64_t Sequential::NumParameters() {
  int64_t total = 0;
  for (Parameter* p : Params()) total += p->value.size();
  return total;
}

}  // namespace vdrift::nn
