#ifndef VDRIFT_CORE_MARTINGALE_H_
#define VDRIFT_CORE_MARTINGALE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/betting.h"
#include "core/threshold.h"

namespace vdrift::conformal {

/// \brief The conformal-martingale statistic of Algorithm 1.
///
/// Maintains S with the update S <- max(0, S + b(p)) (line 10; the
/// max(0, .) is a reflecting barrier that keeps the statistic ready to
/// react — without it the product martingale decays towards zero during
/// long exchangeable stretches and reacts sluggishly, the §4.2.3 concern)
/// and answers the windowed rate-of-change test of line 13 / Eq. 15:
/// |S[i] - S[i-W]| > tau(W, r).
class ConformalMartingale {
 public:
  /// `betting` must outlive the martingale.
  ConformalMartingale(const BettingFunction* betting, int window, double r,
                      ThresholdPolicy policy = ThresholdPolicy::kPaper);

  /// Feeds one p-value; returns true if the windowed test fires.
  /// Precondition: p is finite (aborts on NaN/Inf — use TryUpdate when p
  /// comes from untrusted data; p=0 is tolerated because every betting
  /// function clamps at its p_floor).
  bool Update(double p);

  /// Status-guarded Update: rejects NaN/Inf and out-of-range p-values with
  /// kInvalidArgument, leaving the martingale state untouched, instead of
  /// folding a poisoned bet into S (one NaN would stick forever: NaN
  /// propagates through every subsequent max/add).
  Result<bool> TryUpdate(double p);

  /// The current statistic S.
  double value() const { return current_; }
  /// Number of p-values consumed.
  int64_t count() const { return count_; }
  /// The test threshold tau(W, r).
  double threshold() const { return threshold_; }
  /// The most recent windowed difference |S[i] - S[i-W]|.
  double last_window_delta() const { return last_delta_; }
  /// The betting-function increment b(p) of the most recent Update —
  /// exposed so the drift-episode telemetry can record what the
  /// martingale actually staked on each frame.
  double last_bet() const { return last_bet_; }

  /// Clears all state (used after a drift is handled).
  void Reset();

  /// \brief The martingale's complete serializable state (checkpointing).
  struct State {
    double current = 0.0;
    int64_t count = 0;
    double last_delta = 0.0;
    double last_bet = 0.0;
    std::vector<double> history;  ///< Front-to-back copy of the S window.

    bool operator==(const State&) const = default;
  };

  /// Captures the current state.
  State SaveState() const;

  /// Restores a captured state. The window/threshold configuration is not
  /// part of the state — the restoring martingale must be constructed with
  /// the same config, which the checkpoint layer guarantees by rebuilding
  /// from the same PipelineConfig.
  void RestoreState(const State& state);

 private:
  const BettingFunction* betting_;
  int window_;
  double threshold_;
  double current_ = 0.0;
  int64_t count_ = 0;
  double last_delta_ = 0.0;
  double last_bet_ = 0.0;
  // S values of the last `window_` + 1 observations; front is S[i - W].
  std::deque<double> history_;
};

}  // namespace vdrift::conformal

#endif  // VDRIFT_CORE_MARTINGALE_H_
