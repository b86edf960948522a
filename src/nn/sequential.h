#ifndef VDRIFT_NN_SEQUENTIAL_H_
#define VDRIFT_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief A linear chain of layers with joint forward/backward.
///
/// Owns its layers. Also usable as a sub-network inside composite models
/// (the VAE composes three Sequentials: encoder trunk, latent heads, and
/// decoder).
class Sequential : public Layer {
 public:
  Sequential() = default;

  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer (builder style): `seq.Add<Linear>(4, 2, &rng)`.
  template <typename L, typename... Args>
  L* Add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  /// Appends an already-constructed layer.
  void AddLayer(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  /// Chains every layer's Forward, so each caches its own tape.
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> Params() override;
  std::string name() const override { return "Sequential"; }

  /// Number of layers.
  size_t size() const { return layers_.size(); }

  /// Total number of trainable scalars.
  int64_t NumParameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_SEQUENTIAL_H_
