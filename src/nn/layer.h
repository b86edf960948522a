#ifndef VDRIFT_NN_LAYER_H_
#define VDRIFT_NN_LAYER_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief A trainable parameter: value plus accumulated gradient.
struct Parameter {
  tensor::Tensor value;
  tensor::Tensor grad;

  explicit Parameter(tensor::Shape shape)
      : value(shape), grad(std::move(shape)) {}

  /// Resets the accumulated gradient to zero.
  void ZeroGrad() { grad.Zero(); }
};

/// \brief Base class for differentiable layers.
///
/// Inference and training share one forward computation. Infer is const:
/// it takes any batch and stores nothing, so one layer object may run
/// Infer on many threads at once. Forward is the training tape: it calls
/// Infer and keeps what Backward needs. The stack uses explicit,
/// caller-driven backpropagation rather than a taped autograd: Backward
/// maps the gradient w.r.t. the output of the last Forward to the
/// gradient w.r.t. its input and *accumulates* parameter gradients. A
/// training step is therefore:
/// ZeroGrad -> Forward -> loss -> Backward (in reverse) -> optimizer step.
/// Forward and Backward are single-threaded per object; Infer calls in
/// between leave the tape alone.
///
/// Convention: 2-D activations are [batch, features]; 4-D activations are
/// [batch, channels, height, width].
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer on a batch without touching any state.
  virtual tensor::Tensor Infer(const tensor::Tensor& input) const = 0;

  /// Runs the layer on a batch (as Infer), caching state for Backward.
  virtual tensor::Tensor Forward(const tensor::Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after the matching Forward.
  virtual tensor::Tensor Backward(const tensor::Tensor& grad_output) = 0;

  /// The layer's trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Params() { return {}; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_LAYER_H_
