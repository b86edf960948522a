#ifndef VDRIFT_CORE_MSBO_H_
#define VDRIFT_CORE_MSBO_H_

#include <vector>

#include "common/result.h"
#include "core/ensemble.h"
#include "core/registry.h"

namespace vdrift::select {

/// \brief Per-model uncertainty baseline used by MSBO's acceptance test.
///
/// Calibrated offline (§5.2.2): for every distribution i, a random sample
/// S_Ti of its training data is scored by every *other* ensemble j != i.
/// pc_avg[j] is ensemble j's mean Brier over all foreign samples — how
/// uncertain model j typically is on data it was not trained for — and
/// sigma[j] the standard deviation of those scores. MSBO accepts a model
/// only if its uncertainty on the new data is at least one sigma *below*
/// its foreign-data baseline, i.e. the model is markedly more confident
/// than it ever is off-distribution.
struct MsboCalibration {
  std::vector<double> pc_avg;
  std::vector<double> sigma;
  /// The paper's global baseline h (§5.2.2): pc^i_avg is the average
  /// uncertainty of the *foreign* ensembles on sample S_Ti; h is one
  /// standard deviation below the mean of the pc^i_avg over i = 1..m.
  double global_h = 1.0;

  bool operator==(const MsboCalibration&) const = default;
};

/// Runs the calibration. `samples[i]` is the labeled sample S_Ti of
/// distribution i (same order as the registry). Every registry entry must
/// carry an ensemble and no sample may be empty; both are checked before
/// any model runs. Each foreign (ensemble, frame) pair is scored once —
/// m(m-1)·|S|·L member forwards, with ensembles scoring in parallel — and
/// the result is bit-identical at every thread count.
Result<MsboCalibration> CalibrateMsbo(
    const ModelRegistry& registry,
    const std::vector<std::vector<LabeledFrame>>& samples);

/// \brief Which acceptance threshold MSBO applies to the winning model.
enum class MsboThresholdRule {
  /// The §5.2.2 prose: accept iff the winner's Brier <= the global h
  /// (mean minus one std of the cross-distribution pc^i_avg). Default.
  kGlobalH,
  /// Algorithm 3 as printed: accept iff the winner's Brier <=
  /// pc_avg[k] - sigma[k] for the winning model k. Stricter; provided for
  /// the ablation bench.
  kPerModelSigma,
};

/// \brief Hyperparameters of Model Selection Based on Output (Alg. 3).
struct MsboConfig {
  int window_t = 10;  ///< W_T — post-drift frames to evaluate on.
  MsboThresholdRule rule = MsboThresholdRule::kGlobalH;
};

/// \brief Model Selection Based on Output (paper §5.2, Algorithm 3).
///
/// Accumulates a window W_T of labeled frames past the drift point,
/// computes each provisioned ensemble's average Brier score on it, and
/// selects the lowest-uncertainty model provided it clears the calibrated
/// threshold pc_avg[k] - sigma[k]; otherwise a new model must be trained.
/// Labels come from the annotation oracle (Mask R-CNN in the paper), which
/// is why MSBO is the supervised half of the MSBI/MSBO trade-off (§5.3).
class Msbo {
 public:
  /// `registry` must outlive the selector.
  Msbo(const ModelRegistry* registry, MsboCalibration calibration,
       const MsboConfig& config);

  /// Selects a model for the labeled window collected after a drift.
  Result<Selection> Select(const std::vector<LabeledFrame>& window) const;

  const MsboCalibration& calibration() const { return calibration_; }

 private:
  const ModelRegistry* registry_;
  MsboCalibration calibration_;
  MsboConfig config_;
};

}  // namespace vdrift::select

#endif  // VDRIFT_CORE_MSBO_H_
