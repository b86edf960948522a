#include "core/profile.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "stats/moments.h"
#include "video/frame_stats.h"

namespace vdrift::conformal {

DistributionProfile::DistributionProfile(std::string name,
                                         std::shared_ptr<vae::Vae> vae,
                                         PointSet sigma, double stats_weight,
                                         std::vector<float> stats_mean,
                                         std::vector<float> stats_scale)
    : name_(std::move(name)),
      vae_(std::move(vae)),
      sigma_(std::move(sigma)),
      stats_weight_(stats_weight),
      stats_mean_(std::move(stats_mean)),
      stats_scale_(std::move(stats_scale)) {
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(vae_ != nullptr);
  if (stats_weight_ != 0.0) {
    // vdrift-lint: allow(no-data-dependent-check): ctor config contract
    VDRIFT_CHECK(stats_mean_.size() ==
                     static_cast<size_t>(video::kNumFrameStats) &&
                 stats_scale_.size() == stats_mean_.size())
        << "augmented profile needs standardisation parameters";
  }
}

std::vector<float> DistributionProfile::Augment(
    std::vector<float> latent, const tensor::Tensor& pixels) const {
  if (stats_weight_ == 0.0) return latent;
  std::vector<float> stats = video::GlobalFrameStats(pixels);
  latent.reserve(latent.size() + stats.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    latent.push_back(static_cast<float>(stats_weight_) *
                     (stats[i] - stats_mean_[i]) / stats_scale_[i]);
  }
  return latent;
}

Result<std::unique_ptr<DistributionProfile>> DistributionProfile::Build(
    std::string name, const std::vector<tensor::Tensor>& training_frames,
    const Options& options, stats::Rng* rng) {
  if (training_frames.empty()) {
    return Status::InvalidArgument("DistributionProfile needs frames");
  }
  if (options.sigma_size < options.k + 1) {
    return Status::InvalidArgument("sigma_size must exceed k");
  }
  auto vae = std::make_shared<vae::Vae>(options.vae, rng);
  vae::VaeTrainer trainer(options.trainer);
  VDRIFT_RETURN_NOT_OK(trainer.Train(vae.get(), training_frames, rng).status());
  // Standardisation parameters of the global statistics over T_i: one
  // distance unit along each stat equals one within-distribution std.
  std::vector<float> stats_mean(video::kNumFrameStats, 0.0f);
  std::vector<float> stats_scale(video::kNumFrameStats, 1.0f);
  if (options.stats_weight != 0.0) {
    std::vector<stats::RunningMoments> moments(video::kNumFrameStats);
    for (const tensor::Tensor& frame : training_frames) {
      std::vector<float> s = video::GlobalFrameStats(frame);
      for (int i = 0; i < video::kNumFrameStats; ++i) {
        moments[static_cast<size_t>(i)].Add(s[static_cast<size_t>(i)]);
      }
    }
    constexpr float kScaleFloor = 0.01f;
    for (int i = 0; i < video::kNumFrameStats; ++i) {
      stats_mean[static_cast<size_t>(i)] =
          static_cast<float>(moments[static_cast<size_t>(i)].mean());
      stats_scale[static_cast<size_t>(i)] = std::max(
          kScaleFloor,
          static_cast<float>(moments[static_cast<size_t>(i)].stddev()));
    }
  }
  auto standardize = [&](std::vector<float> z, const tensor::Tensor& frame) {
    if (options.stats_weight == 0.0) return z;
    std::vector<float> s = video::GlobalFrameStats(frame);
    for (size_t i = 0; i < s.size(); ++i) {
      z.push_back(static_cast<float>(options.stats_weight) *
                  (s[i] - stats_mean[i]) / stats_scale[i]);
    }
    return z;
  };
  // Sigma_Ti: one posterior sample per randomly drawn training frame, each
  // augmented with that frame's standardized global statistics so incoming
  // frames (encoded the same way) are exchangeable with the reference.
  std::vector<std::vector<float>> points;
  points.reserve(static_cast<size_t>(options.sigma_size));
  for (int i = 0; i < options.sigma_size; ++i) {
    const tensor::Tensor& frame = training_frames[static_cast<size_t>(
        rng->NextInt(0, static_cast<int>(training_frames.size()) - 1))];
    points.push_back(standardize(vae->EncodeSample(frame, rng), frame));
  }
  VDRIFT_ASSIGN_OR_RETURN(PointSet sigma,
                          PointSet::Build(std::move(points), options.k));
  return std::make_unique<DistributionProfile>(
      std::move(name), std::move(vae), std::move(sigma), options.stats_weight,
      std::move(stats_mean), std::move(stats_scale));
}

std::vector<float> DistributionProfile::Encode(
    const tensor::Tensor& pixels) const {
  return Augment(vae_->EncodeMean(pixels), pixels);
}

int DistributionProfile::encoded_dim() const {
  return vae_->config().latent_dim +
         (stats_weight_ == 0.0 ? 0 : video::kNumFrameStats);
}

std::vector<float> DistributionProfile::EncodeSampled(
    const tensor::Tensor& pixels, stats::Rng* rng) const {
  return Augment(vae_->EncodeSample(pixels, rng), pixels);
}

}  // namespace vdrift::conformal
