#ifndef VDRIFT_CORE_DRIFT_INSPECTOR_H_
#define VDRIFT_CORE_DRIFT_INSPECTOR_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "core/betting.h"
#include "core/martingale.h"
#include "core/profile.h"
#include "core/pvalue.h"
#include "core/threshold.h"
#include "obs/episode_trace.h"
#include "stats/rng.h"
#include "tensor/tensor.h"

namespace vdrift::conformal {

/// \brief Hyperparameters of the Drift Inspector (paper Table 1: W, r, K).
struct DriftInspectorConfig {
  int window = 3;      ///< W — observation window of the rate test.
  double r = 0.5;      ///< Significance level of the drift test.
  ThresholdPolicy threshold = ThresholdPolicy::kPaper;
  /// Betting function; null selects the library default (power-log 0.5).
  std::shared_ptr<const BettingFunction> betting;
};

/// \brief The Drift Inspector (Algorithm 1).
///
/// Monitors a stream against one DistributionProfile: each frame is
/// encoded by the profile's VAE, scored by K-NN average distance against
/// Sigma_Ti, converted to a conformal p-value (Eq. 1), and folded into the
/// conformal martingale; a drift is declared when the martingale's
/// windowed rate of change exceeds the threshold (Eq. 15). K is carried by
/// the profile's PointSet (it was fixed when A_i was precomputed).
class DriftInspector {
 public:
  /// `profile` must outlive the inspector.
  DriftInspector(const DistributionProfile* profile,
                 const DriftInspectorConfig& config, uint64_t seed = 1234);

  /// Per-frame output of Algorithm 1.
  struct Observation {
    double nonconformity = 0.0;  ///< a_f.
    double p_value = 0.0;        ///< Eq. 1.
    double bet = 0.0;            ///< Betting-function increment b(p).
    double martingale = 0.0;     ///< S[iter].
    double window_delta = 0.0;   ///< |S[iter] - S[iter-window]|.
    bool drift = false;
  };

  /// Processes one frame ([C, H, W] pixels). Aborts on non-finite scores;
  /// callers holding untrusted stream data use TryObserve instead.
  Observation Observe(const tensor::Tensor& pixels);

  /// Processes an already-encoded latent vector. Lets callers that share
  /// one encoding across detectors (MSBI runs m inspectors over the same
  /// window) avoid redundant VAE passes — only valid when the latent came
  /// from *this profile's* VAE.
  Observation ObserveLatent(std::span<const float> latent);

  /// Status-guarded Observe for untrusted frames: a NaN/Inf pixel makes
  /// the non-conformity score non-finite, which is rejected with
  /// kInvalidArgument *before* touching the martingale (the inspector's
  /// state, including its RNG, is left exactly as it was, so a rejected
  /// frame is invisible to the detection trajectory). Rejections bump the
  /// `vdrift.di.nonfinite_rejected` counter.
  Result<Observation> TryObserve(const tensor::Tensor& pixels);

  /// TryObserve for an already-encoded latent.
  Result<Observation> TryObserveLatent(std::span<const float> latent);

  /// Frames processed since construction or the last Reset.
  int64_t frames_seen() const { return frames_seen_; }

  /// The martingale's current value.
  double martingale_value() const { return martingale_.value(); }

  /// The decision threshold tau(W, r).
  double threshold() const { return martingale_.threshold(); }

  /// The monitored profile.
  const DistributionProfile& profile() const { return *profile_; }

  /// Clears the martingale state (after a drift has been handled).
  void Reset();

  /// \brief Complete serializable detector state (checkpointing): the
  /// martingale trajectory plus the RNG that drives sampled encoding and
  /// p-value tie-breaks. The monitored profile is NOT part of the state —
  /// a restored inspector must be constructed against the same profile,
  /// which the pipeline checkpoint guarantees via its registry fingerprint.
  struct State {
    int64_t frames_seen = 0;
    stats::Rng::State rng;
    ConformalMartingale::State martingale;

    bool operator==(const State&) const = default;
  };

  /// Captures the current state.
  State SaveState() const;

  /// Restores a captured state.
  void RestoreState(const State& state);

  /// Streams every observation into `recorder` (null disables; default).
  /// The recorder must outlive the inspector; the pipeline shares one
  /// recorder across the inspectors it re-arms so episodes survive
  /// redeployments.
  void set_recorder(obs::EpisodeRecorder* recorder) { recorder_ = recorder; }

 private:
  // Shared tail of ObserveLatent/TryObserveLatent: p-value, martingale
  // update, telemetry. `score` must already be validated/finite.
  Observation Ingest(double score);

  const DistributionProfile* profile_;
  std::shared_ptr<const BettingFunction> betting_;
  ConformalMartingale martingale_;
  stats::Rng rng_;
  int64_t frames_seen_ = 0;
  obs::EpisodeRecorder* recorder_ = nullptr;
};

}  // namespace vdrift::conformal

#endif  // VDRIFT_CORE_DRIFT_INSPECTOR_H_
