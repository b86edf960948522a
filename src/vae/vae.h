#ifndef VDRIFT_VAE_VAE_H_
#define VDRIFT_VAE_VAE_H_

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::vae {

/// \brief Reshapes a flat [N, C*S*S] activation into [N, C, S, S].
///
/// The decoder's FC layer produces a flat feature vector; this layer gives
/// it back its spatial layout before the convolutional reconstruction.
class DecoderReshape : public nn::Layer {
 public:
  DecoderReshape(int channels, int spatial)
      : channels_(channels), spatial_(spatial) {}

  tensor::Tensor Infer(const tensor::Tensor& input) const override {
    int64_t n = input.shape().dim(0);
    return input.Reshaped(
        tensor::Shape{n, channels_, spatial_, spatial_});
  }
  tensor::Tensor Forward(const tensor::Tensor& input) override {
    return Infer(input);
  }
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override {
    int64_t n = grad_output.shape().dim(0);
    return grad_output.Reshaped(tensor::Shape{
        n, static_cast<int64_t>(channels_) * spatial_ * spatial_});
  }
  std::string name() const override { return "DecoderReshape"; }

 private:
  int channels_;
  int spatial_;
};

/// \brief Architecture hyperparameters of the VAE.
///
/// Defaults follow the paper (§4.2.2) at laptop scale: a 3-convolution
/// encoder followed by two fully connected heads (mean and log-variance),
/// and a decoder made of one fully connected layer followed by 3
/// convolutions (each preceded by nearest-neighbour upsampling).
struct VaeConfig {
  int image_size = 32;   ///< Square input side; must be divisible by 8.
  int channels = 1;      ///< Input channels (grayscale frames by default).
  int latent_dim = 8;    ///< Dimension of the latent code z.
  int base_filters = 8;  ///< Filters in the first conv layer.
  /// beta-VAE weight on the KL term. With a low-dimensional latent under
  /// a 1024-pixel reconstruction term, a full-weight KL collapses the
  /// posterior (mu carries no signal and Sigma_Ti becomes an uninformative
  /// N(0,1) cloud, blinding the Drift Inspector). 0.1 keeps the latent
  /// informative while still regularising; set to 1.0 for the textbook
  /// objective.
  double kl_weight = 0.1;
};

/// \brief Variational autoencoder over video frames.
///
/// Role in the system (paper §4.2): video frames in a stream are temporally
/// correlated, but conformal p-values require i.i.d. inputs. A VAE trained
/// on the training data T_i of model M_i gives (a) an encoder used to embed
/// incoming frames into latent space, and (b) a generator of i.i.d. latent
/// samples Sigma_Ti drawn from the learned posterior, against which the
/// Drift Inspector computes non-conformity scores.
class Vae {
 public:
  Vae(const VaeConfig& config, stats::Rng* rng);

  Vae(const Vae&) = delete;
  Vae& operator=(const Vae&) = delete;
  Vae(Vae&&) = default;
  Vae& operator=(Vae&&) = default;

  /// Activations produced by one training forward pass.
  struct ForwardResult {
    tensor::Tensor recon;   ///< [N, C, H, W] reconstruction in (0,1).
    tensor::Tensor mu;      ///< [N, latent_dim] posterior means.
    tensor::Tensor logvar;  ///< [N, latent_dim] posterior log-variances.
    tensor::Tensor z;       ///< [N, latent_dim] reparameterised samples.
    tensor::Tensor eps;     ///< [N, latent_dim] the Gaussian noise used.
  };

  /// Full forward pass with reparameterised sampling (training path).
  ForwardResult Forward(const tensor::Tensor& batch, stats::Rng* rng);

  /// Loss decomposition of one step.
  struct Losses {
    double reconstruction = 0.0;  ///< BCE summed per sample, batch-averaged.
    double kl = 0.0;              ///< KL(q(z|x) || N(0,I)), batch-averaged.
    double total() const { return reconstruction + kl; }
  };

  /// One optimization step on a batch: forward, BCE + KL backward, update.
  /// `optimizer` must have been constructed over this model's Params().
  Losses TrainStep(const tensor::Tensor& batch, nn::Optimizer* optimizer,
                   stats::Rng* rng);

  /// Encodes a single frame [C, H, W] (or batch of one) to its posterior
  /// mean — the latent representation used for non-conformity scoring.
  std::vector<float> EncodeMean(const tensor::Tensor& frame) const;

  /// Encodes a frame and samples z ~ N(mu, sigma^2) — one i.i.d. draw from
  /// the learned posterior, used to build Sigma_Ti.
  std::vector<float> EncodeSample(const tensor::Tensor& frame,
                                  stats::Rng* rng) const;

  /// Decodes a latent vector to an image [C, H, W].
  tensor::Tensor Decode(const std::vector<float>& z) const;

  /// All trainable parameters (encoder trunk, heads, decoder).
  std::vector<nn::Parameter*> Params();

  const VaeConfig& config() const { return config_; }

 private:
  // Runs the trunk and heads on a [N,C,H,W] batch without touching the
  // training tape.
  void EncodeBatch(const tensor::Tensor& batch, tensor::Tensor* mu,
                   tensor::Tensor* logvar) const;

  VaeConfig config_;
  int trunk_features_ = 0;  // flattened size after the conv trunk
  int dec_spatial_ = 0;     // decoder's initial spatial side
  int dec_channels_ = 0;    // decoder's initial channel count
  nn::Sequential encoder_trunk_;
  std::unique_ptr<nn::Linear> fc_mu_;
  std::unique_ptr<nn::Linear> fc_logvar_;
  nn::Sequential decoder_;
};

/// Stacks equally-shaped [C, H, W] frames into an [N, C, H, W] batch.
tensor::Tensor StackFrames(const std::vector<tensor::Tensor>& frames);

}  // namespace vdrift::vae

#endif  // VDRIFT_VAE_VAE_H_
