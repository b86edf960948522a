#ifndef VDRIFT_CORE_PROFILE_H_
#define VDRIFT_CORE_PROFILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/point_set.h"
#include "stats/rng.h"
#include "tensor/tensor.h"
#include "vae/trainer.h"
#include "vae/vae.h"

namespace vdrift::conformal {

/// \brief Everything DI and MSBI need to know about one distribution F_i.
///
/// Bundles the VAE A_Ti trained on T_i, the i.i.d. latent sample Sigma_Ti
/// drawn from it, and the precomputed non-conformity scores A_i (paper
/// Table 1). Built once when the distribution is first provisioned; the
/// VAE is never re-trained (§4.2.2).
class DistributionProfile {
 public:
  /// Build options.
  struct Options {
    vae::VaeConfig vae;           ///< Architecture of A_Ti.
    vae::TrainerConfig trainer;   ///< VAE training hyperparameters.
    int sigma_size = 200;         ///< |Sigma_Ti|: latent samples to draw.
    int k = 5;                    ///< K for the K-NN non-conformity score.
    /// Weight on the *standardized* global frame statistics appended to
    /// the VAE latent to form the scoring embedding. The paper admits any
    /// image distance for the non-conformity score (§4.2.3); at this
    /// library's laptop scale the small contractive encoder alone maps
    /// unseen conditions near the latent centroid, so photometric
    /// statistics (see video/frame_stats.h) carry the drift signal
    /// alongside the latent. Each statistic is centred and scaled by its
    /// mean/std over the training frames, so one unit of distance equals
    /// one within-distribution standard deviation. 0 disables
    /// augmentation.
    double stats_weight = 1.0;
  };

  /// Trains the VAE on `training_frames` ([C,H,W] pixel tensors), draws
  /// Sigma_Ti from the learned posterior, and precomputes A_i.
  static Result<std::unique_ptr<DistributionProfile>> Build(
      std::string name, const std::vector<tensor::Tensor>& training_frames,
      const Options& options, stats::Rng* rng);

  /// Wraps an already-trained VAE (shared with other components) plus a
  /// ready point set. Used by tests and by the model registry when the VAE
  /// is reused across DI and MSBI.
  /// `stats_weight`, `stats_mean` and `stats_scale` must match how
  /// `sigma` was built (weight 0 when the point set holds raw latents).
  DistributionProfile(std::string name, std::shared_ptr<vae::Vae> vae,
                      PointSet sigma, double stats_weight = 0.0,
                      std::vector<float> stats_mean = {},
                      std::vector<float> stats_scale = {});

  /// The distribution's name.
  const std::string& name() const { return name_; }
  /// The reference sample with precomputed scores.
  const PointSet& sigma() const { return sigma_; }
  /// The VAE. Encoding through it is const and thread-safe; the pointer is
  /// mutable only so that serialisation can read Params(). No one writes
  /// to a VAE once its profile is in a registry.
  vae::Vae* vae() const { return vae_.get(); }

  /// Encodes a frame to its deterministic scoring embedding: posterior
  /// mean plus weighted global statistics. Used by the ODIN baseline's
  /// shared encoder (same representation as DI, for a fair comparison).
  std::vector<float> Encode(const tensor::Tensor& pixels) const;

  /// Length of every vector Encode and EncodeSampled return: the VAE
  /// latent plus, when augmented, the video::kNumFrameStats statistics.
  int encoded_dim() const;

  /// Encodes a frame the same way Sigma_Ti was generated — one sampled
  /// posterior draw. The Drift Inspector scores incoming frames with this
  /// so that, on the profile's own distribution, a_f is exchangeable with
  /// the precomputed A_i and the conformal p-values are exactly uniform.
  std::vector<float> EncodeSampled(const tensor::Tensor& pixels,
                                   stats::Rng* rng) const;

 private:
  // Appends weighted global statistics to a latent vector.
  std::vector<float> Augment(std::vector<float> latent,
                             const tensor::Tensor& pixels) const;

  std::string name_;
  std::shared_ptr<vae::Vae> vae_;
  PointSet sigma_;
  double stats_weight_ = 0.0;
  std::vector<float> stats_mean_;
  std::vector<float> stats_scale_;
};

}  // namespace vdrift::conformal

#endif  // VDRIFT_CORE_PROFILE_H_
