#include "baseline/odin.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "stats/distance.h"
#include "stats/histogram.h"
#include "stats/moments.h"

namespace vdrift::baseline {

OdinCluster::OdinCluster(int dim, const OdinConfig& config)
    : config_(config), centroid_(static_cast<size_t>(dim), 0.0f) {}

void OdinCluster::Add(std::span<const float> latent) {
  VDRIFT_DCHECK(latent.size() == centroid_.size());
  double n = static_cast<double>(distances_.size());
  // Running-mean centroid update.
  for (size_t i = 0; i < centroid_.size(); ++i) {
    centroid_[i] = static_cast<float>(
        (centroid_[i] * n + latent[i]) / (n + 1.0));
  }
  double dist = DistanceTo(latent);
  distances_.push_back(dist);
  hist_range_ = std::max(hist_range_, dist * 1.5 + 1e-9);
  RecomputeBand();
}

double OdinCluster::DistanceTo(std::span<const float> latent) const {
  return stats::Euclidean(latent, centroid_);
}

bool OdinCluster::Accepts(double distance) const {
  if (distances_.empty()) return false;
  return distance <= band_upper_ * config_.band_slack;
}

void OdinCluster::RecomputeBand() {
  // The density band encloses the central `delta` fraction of member
  // distances: quantiles at (1 -/+ delta)/2.
  double lo_q = (1.0 - config_.delta) / 2.0;
  double hi_q = 1.0 - lo_q;
  band_lower_ = stats::Quantile(distances_, lo_q);
  band_upper_ = stats::Quantile(distances_, hi_q);
}

std::vector<double> OdinCluster::Pmf() const {
  stats::Histogram hist =
      stats::Histogram::Make(0.0, hist_range_, config_.histogram_bins)
          .ValueOrDie();
  for (double d : distances_) hist.Add(d);
  return hist.Pmf();
}

double OdinCluster::KlAfterAdding(double distance) const {
  if (distances_.empty()) return 1e9;
  std::vector<double> before = Pmf();
  stats::Histogram hist =
      stats::Histogram::Make(0.0, hist_range_, config_.histogram_bins)
          .ValueOrDie();
  for (double d : distances_) hist.Add(d);
  hist.Add(std::min(distance, hist_range_ * (1.0 - 1e-9)));
  return stats::KlDivergence(hist.Pmf(), before);
}

OdinDetect::OdinDetect(const OdinConfig& config, int dim)
    : config_(config), dim_(dim) {
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(dim_ > 0);
}

int OdinDetect::AddPermanentCluster(
    const std::vector<std::vector<float>>& latents, int model_index) {
  // vdrift-lint: allow(no-data-dependent-check): caller seeds every cluster
  VDRIFT_CHECK(!latents.empty());
  for (const auto& z : latents) {
    // vdrift-lint: allow(no-data-dependent-check): encoder wiring contract
    VDRIFT_CHECK(static_cast<int>(z.size()) == dim_)
        << "latent width " << z.size() << " != cluster width " << dim_;
  }
  OdinCluster cluster(dim_, config_);
  for (const auto& z : latents) cluster.Add(z);
  cluster.set_model_index(model_index);
  clusters_.push_back(std::move(cluster));
  return static_cast<int>(clusters_.size()) - 1;
}

OdinObservation OdinDetect::Observe(std::span<const float> latent) {
  // Per-frame ODIN-Detect latency (post-encode): the all-clusters scan
  // plus band/KL bookkeeping that drives the Table 6 comparison. A span
  // so the flight recorder captures it on the timeline.
  obs::TraceSpan span(&obs::Global(), "vdrift.odin.observe_seconds");
  obs::Global().GetCounter("vdrift.odin.frames").Increment();
  // vdrift-lint: allow(no-data-dependent-check): encoder wiring contract
  VDRIFT_CHECK(static_cast<int>(latent.size()) == dim_)
      << "latent width " << latent.size() << " != cluster width " << dim_;
  OdinObservation observation;
  // Try every permanent cluster (this per-cluster scan is ODIN's per-frame
  // cost driver — §6.2.2 reports ~3.2 ms per cluster per frame).
  for (size_t c = 0; c < clusters_.size(); ++c) {
    double dist = clusters_[c].DistanceTo(latent);
    if (clusters_[c].Accepts(dist)) {
      observation.assigned_clusters.push_back(static_cast<int>(c));
    }
  }
  if (!observation.assigned_clusters.empty()) {
    for (int c : observation.assigned_clusters) {
      clusters_[static_cast<size_t>(c)].Add(latent);
      int model = clusters_[static_cast<size_t>(c)].model_index();
      if (std::find(observation.models.begin(), observation.models.end(),
                    model) == observation.models.end()) {
        observation.models.push_back(model);
      }
    }
    return observation;
  }
  // No permanent cluster takes the frame: temporary-cluster path.
  observation.in_temporary = true;
  if (temporary_ == nullptr) {
    temporary_ = std::make_unique<OdinCluster>(dim_, config_);
  }
  double kl = 1e9;
  if (temporary_->size() >= config_.min_temporary_size) {
    kl = temporary_->KlAfterAdding(temporary_->DistanceTo(latent));
  }
  temporary_->Add(latent);
  if (temporary_->size() > config_.min_temporary_size &&
      kl < config_.kl_threshold) {
    // The temporary cluster's distance distribution has stabilized:
    // promote it — ODIN's drift declaration.
    temporary_->set_model_index(next_model_index_);
    clusters_.push_back(std::move(*temporary_));
    temporary_.reset();
    observation.drift = true;
    observation.promoted_cluster = static_cast<int>(clusters_.size()) - 1;
    obs::Global().GetCounter("vdrift.odin.promotions").Increment();
  }
  return observation;
}

}  // namespace vdrift::baseline
