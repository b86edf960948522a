#ifndef VDRIFT_NN_LAYERS_H_
#define VDRIFT_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::nn {

/// \brief Fully connected layer: y = x W^T + b.
///
/// Input [N, in_features]; output [N, out_features]. Weight is stored
/// [out_features, in_features].
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, stats::Rng* rng);

  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Parameter weight_;
  Parameter bias_;
  tensor::Tensor cached_input_;
};

/// \brief 2-D convolution over [N, C, H, W] batches.
///
/// Forward and Backward are implicit GEMMs (tensor::Conv2dForward and
/// tensor::Conv2dBackward) that read each sample's receptive fields from a
/// padded copy of it, so neither builds a patch (im2col) matrix. Weight
/// is stored [out_channels, in_channels * kh * kw].
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         stats::Rng* rng);

  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  // The input, from which Backward builds each sample's padded copy and
  // reads the geometry. Caching the padded copies that Forward builds
  // instead would hold them in every model instance between calls.
  tensor::Tensor cached_input_;
};

/// \brief Elementwise ReLU.
class ReLU : public Layer {
 public:
  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor cached_input_;
};

/// \brief Elementwise logistic sigmoid.
class Sigmoid : public Layer {
 public:
  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  tensor::Tensor cached_output_;
};

/// \brief Elementwise tanh.
class Tanh : public Layer {
 public:
  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor cached_output_;
};

/// \brief Flattens [N, C, H, W] (or any >=2-D) into [N, features].
class Flatten : public Layer {
 public:
  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_shape_;
};

/// \brief Nearest-neighbour 2x spatial upsampling of [N, C, H, W].
///
/// The VAE decoder pairs Upsample2x with Conv2d to reconstruct frames
/// ("1 FC layer followed by 3 convolutional layers", paper §4.2.2) without
/// needing a transposed-convolution kernel.
class Upsample2x : public Layer {
 public:
  tensor::Tensor Infer(const tensor::Tensor& input) const override;
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Upsample2x"; }

 private:
  tensor::Shape cached_shape_;
};

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_LAYERS_H_
