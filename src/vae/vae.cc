#include "vae/vae.h"

#include <algorithm>
#include <cmath>

#include "nn/layers.h"
#include "nn/loss.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace vdrift::vae {

using nn::Conv2d;
using nn::Flatten;
using nn::Linear;
using nn::ReLU;
using nn::Sigmoid;
using nn::Upsample2x;
using tensor::Shape;
using tensor::Tensor;

Vae::Vae(const VaeConfig& config, stats::Rng* rng) : config_(config) {
  VDRIFT_CHECK(config.image_size % 8 == 0)
      << "image_size must be divisible by 8, got " << config.image_size;
  int f = config.base_filters;
  // Encoder: 3 stride-2 convolutions halving the spatial extent each time,
  // then two FC heads fed by the flattened trunk output (paper Fig. 2).
  encoder_trunk_.Add<Conv2d>(config.channels, f, 3, 2, 1, rng);
  encoder_trunk_.Add<ReLU>();
  encoder_trunk_.Add<Conv2d>(f, 2 * f, 3, 2, 1, rng);
  encoder_trunk_.Add<ReLU>();
  encoder_trunk_.Add<Conv2d>(2 * f, 2 * f, 3, 2, 1, rng);
  encoder_trunk_.Add<ReLU>();
  encoder_trunk_.Add<Flatten>();
  dec_spatial_ = config.image_size / 8;
  dec_channels_ = 2 * f;
  trunk_features_ = dec_channels_ * dec_spatial_ * dec_spatial_;
  fc_mu_ = std::make_unique<Linear>(trunk_features_, config.latent_dim, rng);
  fc_logvar_ =
      std::make_unique<Linear>(trunk_features_, config.latent_dim, rng);
  // Start the posterior narrow (sigma ~ exp(-2) ~ 0.14): early Sigma_Ti
  // draws then track the (reconstruction-driven) means instead of being
  // swamped by unit-variance noise.
  fc_logvar_->Params()[1]->value.Fill(-4.0f);
  // Decoder: one FC layer then 3 convolutions, each preceded by 2x
  // upsampling, terminating in a sigmoid so outputs live in (0,1).
  decoder_.Add<Linear>(config.latent_dim, trunk_features_, rng);
  decoder_.Add<ReLU>();
  decoder_.AddLayer(std::make_unique<DecoderReshape>(dec_channels_,
                                                     dec_spatial_));
  decoder_.Add<Upsample2x>();
  decoder_.Add<Conv2d>(dec_channels_, dec_channels_, 3, 1, 1, rng);
  decoder_.Add<ReLU>();
  decoder_.Add<Upsample2x>();
  decoder_.Add<Conv2d>(dec_channels_, f, 3, 1, 1, rng);
  decoder_.Add<ReLU>();
  decoder_.Add<Upsample2x>();
  decoder_.Add<Conv2d>(f, config.channels, 3, 1, 1, rng);
  decoder_.Add<Sigmoid>();
}

namespace {

// Clamps the log-variance head's output for numerical stability of exp().
Tensor ClampLogvar(Tensor logvar) {
  for (int64_t i = 0; i < logvar.size(); ++i) {
    logvar[i] = std::clamp(logvar[i], -8.0f, 8.0f);
  }
  return logvar;
}

}  // namespace

void Vae::EncodeBatch(const Tensor& batch, Tensor* mu,
                      Tensor* logvar) const {
  Tensor h = encoder_trunk_.Infer(batch);
  *mu = fc_mu_->Infer(h);
  *logvar = ClampLogvar(fc_logvar_->Infer(h));
}

Vae::ForwardResult Vae::Forward(const Tensor& batch, stats::Rng* rng) {
  ForwardResult result;
  Tensor h = encoder_trunk_.Forward(batch);
  result.mu = fc_mu_->Forward(h);
  result.logvar = ClampLogvar(fc_logvar_->Forward(h));
  result.eps = Tensor(result.mu.shape());
  result.z = Tensor(result.mu.shape());
  for (int64_t i = 0; i < result.z.size(); ++i) {
    float e = static_cast<float>(rng->NextGaussian());
    result.eps[i] = e;
    result.z[i] =
        result.mu[i] + std::exp(0.5f * result.logvar[i]) * e;
  }
  result.recon = decoder_.Forward(result.z);
  return result;
}

Vae::Losses Vae::TrainStep(const Tensor& batch, nn::Optimizer* optimizer,
                           stats::Rng* rng) {
  int64_t n = batch.shape().dim(0);
  optimizer->ZeroGrad();
  ForwardResult fwd = Forward(batch, rng);
  // Reconstruction: pixel-wise BCE, summed per sample, averaged over batch.
  nn::LossResult bce = nn::BinaryCrossEntropy(fwd.recon, batch);
  // KL(q(z|x) || N(0, I)) = -1/2 sum(1 + logvar - mu^2 - exp(logvar)).
  // Per-latent-unit grads are elementwise; the KL sum reduces with fixed
  // chunking so every thread count produces the same bits.
  Tensor grad_mu(fwd.mu.shape());
  Tensor grad_logvar(fwd.logvar.shape());
  float inv_n = 1.0f / static_cast<float>(n);
  float beta = static_cast<float>(config_.kl_weight);
  double kl = runtime::ParallelReduce<double>(
      0, fwd.mu.size(), 1 << 14, 0.0,
      [&](int64_t begin, int64_t end) {
        double partial = 0.0;
        for (int64_t i = begin; i < end; ++i) {
          float m = fwd.mu[i];
          float lv = fwd.logvar[i];
          float ev = std::exp(lv);
          partial += -0.5 * (1.0 + lv - m * m - ev);
          grad_mu[i] = beta * m * inv_n;
          grad_logvar[i] = beta * 0.5f * (ev - 1.0f) * inv_n;
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
  kl = config_.kl_weight * kl / static_cast<double>(n);

  // Backward: decoder -> dL/dz -> reparameterisation -> heads -> trunk.
  Tensor grad_z = decoder_.Backward(bce.grad);
  runtime::ParallelFor(
      0, grad_z.size(), 1 << 14, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          grad_mu[i] += grad_z[i];
          grad_logvar[i] +=
              grad_z[i] * fwd.eps[i] * 0.5f * std::exp(0.5f * fwd.logvar[i]);
        }
      });
  Tensor grad_h = fc_mu_->Backward(grad_mu);
  tensor::AddInPlace(&grad_h, fc_logvar_->Backward(grad_logvar));
  encoder_trunk_.Backward(grad_h);
  optimizer->Step();

  Losses losses;
  losses.reconstruction = bce.loss;
  losses.kl = kl;
  return losses;
}

namespace {

Tensor AsBatchOfOne(const Tensor& frame) {
  if (frame.shape().ndim() == 4) {
    VDRIFT_CHECK(frame.shape().dim(0) == 1);
    return frame;
  }
  VDRIFT_CHECK(frame.shape().ndim() == 3);
  return frame.Reshaped(Shape{1, frame.shape().dim(0), frame.shape().dim(1),
                              frame.shape().dim(2)});
}

}  // namespace

std::vector<float> Vae::EncodeMean(const Tensor& frame) const {
  Tensor mu;
  Tensor logvar;
  EncodeBatch(AsBatchOfOne(frame), &mu, &logvar);
  return std::vector<float>(mu.data(), mu.data() + mu.size());
}

std::vector<float> Vae::EncodeSample(const Tensor& frame,
                                     stats::Rng* rng) const {
  Tensor mu;
  Tensor logvar;
  EncodeBatch(AsBatchOfOne(frame), &mu, &logvar);
  std::vector<float> z(static_cast<size_t>(mu.size()));
  for (int64_t i = 0; i < mu.size(); ++i) {
    z[static_cast<size_t>(i)] =
        mu[i] + std::exp(0.5f * logvar[i]) *
                    static_cast<float>(rng->NextGaussian());
  }
  return z;
}

Tensor Vae::Decode(const std::vector<float>& z) const {
  VDRIFT_CHECK(static_cast<int>(z.size()) == config_.latent_dim);
  Tensor zt(Shape{1, config_.latent_dim});
  for (size_t i = 0; i < z.size(); ++i) zt[static_cast<int64_t>(i)] = z[i];
  Tensor out = decoder_.Infer(zt);
  return out.Reshaped(Shape{out.shape().dim(1), out.shape().dim(2),
                            out.shape().dim(3)});
}

std::vector<nn::Parameter*> Vae::Params() {
  std::vector<nn::Parameter*> params = encoder_trunk_.Params();
  for (nn::Parameter* p : fc_mu_->Params()) params.push_back(p);
  for (nn::Parameter* p : fc_logvar_->Params()) params.push_back(p);
  for (nn::Parameter* p : decoder_.Params()) params.push_back(p);
  return params;
}

Tensor StackFrames(const std::vector<Tensor>& frames) {
  VDRIFT_CHECK(!frames.empty());
  const Shape& fs = frames[0].shape();
  VDRIFT_CHECK(fs.ndim() == 3);
  int64_t n = static_cast<int64_t>(frames.size());
  Tensor batch(Shape{n, fs.dim(0), fs.dim(1), fs.dim(2)});
  int64_t stride = fs.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    VDRIFT_CHECK(frames[static_cast<size_t>(i)].shape() == fs);
  }
  // Pure per-sample copies into disjoint batch slices.
  runtime::ParallelFor(0, n, runtime::GrainForCost(stride),
                       [&](int64_t begin, int64_t end) {
                         for (int64_t i = begin; i < end; ++i) {
                           const Tensor& f = frames[static_cast<size_t>(i)];
                           std::copy(f.data(), f.data() + stride,
                                     batch.data() + i * stride);
                         }
                       });
  return batch;
}

}  // namespace vdrift::vae
