#include "core/msbo.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "runtime/parallel.h"
#include "stats/moments.h"

namespace vdrift::select {

Result<MsboCalibration> CalibrateMsbo(
    const ModelRegistry& registry,
    const std::vector<std::vector<LabeledFrame>>& samples) {
  if (registry.empty()) {
    return Status::FailedPrecondition("registry is empty");
  }
  const int m = registry.size();
  if (static_cast<int>(samples.size()) != m) {
    return Status::InvalidArgument("need one sample set per model");
  }
  for (int j = 0; j < m; ++j) {
    if (registry.at(j).ensemble == nullptr) {
      return Status::FailedPrecondition("model '" + registry.at(j).name +
                                        "' has no ensemble");
    }
  }
  for (const std::vector<LabeledFrame>& sample : samples) {
    if (sample.empty()) {
      return Status::InvalidArgument("empty calibration sample");
    }
  }
  obs::TraceSpan span(&obs::Global(), "vdrift.select.msbo.calibrate_seconds");
  // scores[j][i][f]: ensemble j's Brier on frame f of sample S_Ti, for
  // every foreign pair i != j — or, in a single-model registry, the lone
  // model on its own sample. Each pair is scored once; ensembles score in
  // parallel (inference is const, as in Select), and every aggregate
  // below folds in the serial order on this thread, so the calibration is
  // bit-identical at every thread count.
  using Scores = std::vector<std::vector<double>>;
  std::vector<Scores> scores(static_cast<size_t>(m),
                             Scores(static_cast<size_t>(m)));
  runtime::ParallelFor(0, m, 1, [&](int64_t begin, int64_t end) {
    for (int64_t j = begin; j < end; ++j) {
      const DeepEnsemble& ensemble = *registry.at(static_cast<int>(j)).ensemble;
      for (int i = 0; i < m; ++i) {
        if (i == j && m > 1) continue;
        std::vector<double>& row =
            scores[static_cast<size_t>(j)][static_cast<size_t>(i)];
        for (const LabeledFrame& lf : samples[static_cast<size_t>(i)]) {
          row.push_back(ensemble.BrierScore(lf.pixels, lf.label));
        }
      }
    }
  });
  int64_t forwards = 0;
  for (int j = 0; j < m; ++j) {
    for (const std::vector<double>& row : scores[static_cast<size_t>(j)]) {
      forwards += static_cast<int64_t>(row.size()) *
                  registry.at(j).ensemble->size();
    }
  }
  obs::Global()
      .GetCounter("vdrift.select.msbo.calibration_invocations")
      .Increment(forwards);
  // Ensemble j's average Brier on S_Ti, summed as AverageBrier does.
  auto average = [&](int j, int i) {
    double total = 0.0;
    for (double s : scores[static_cast<size_t>(j)][static_cast<size_t>(i)]) {
      total += s;
    }
    return total / static_cast<double>(samples[static_cast<size_t>(i)].size());
  };

  MsboCalibration calibration;
  calibration.pc_avg.assign(static_cast<size_t>(m), 1.0);
  calibration.sigma.assign(static_cast<size_t>(m), 0.0);
  if (m == 1) {
    // Single-model registry: no foreign data to calibrate against, so the
    // baseline comes from the lone model's own-distribution uncertainty —
    // new data is accepted only while the model stays roughly as
    // confident as it is at home (1.5x its own average Brier) — and
    // pc_avg/sigma keep a permissive 1/0.
    calibration.global_h = 1.5 * average(0, 0);
    return calibration;
  }
  // Global h (§5.2.2): average foreign-ensemble uncertainty per sample.
  stats::RunningMoments sample_moments;
  for (int i = 0; i < m; ++i) {
    stats::RunningMoments foreign;
    for (int j = 0; j < m; ++j) {
      if (i != j) foreign.Add(average(j, i));
    }
    sample_moments.Add(foreign.mean());
  }
  calibration.global_h = sample_moments.mean() - sample_moments.stddev();
  for (int j = 0; j < m; ++j) {
    stats::RunningMoments moments;
    for (int i = 0; i < m; ++i) {
      if (i == j) continue;
      for (double s : scores[static_cast<size_t>(j)][static_cast<size_t>(i)]) {
        moments.Add(s);
      }
    }
    calibration.pc_avg[static_cast<size_t>(j)] = moments.mean();
    calibration.sigma[static_cast<size_t>(j)] = moments.stddev();
  }
  return calibration;
}

Msbo::Msbo(const ModelRegistry* registry, MsboCalibration calibration,
           const MsboConfig& config)
    : registry_(registry),
      calibration_(std::move(calibration)),
      config_(config) {
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(registry_ != nullptr);
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config_.window_t >= 1);
  // Calibration/registry agreement is data-dependent (the calibration may
  // come from a checkpoint or a stale Recalibrate) — validated per Select
  // with a Status, not a crash, so the pipeline can fall back.
}

Result<Selection> Msbo::Select(const std::vector<LabeledFrame>& window) const {
  if (window.empty()) {
    return Status::InvalidArgument("MSBO needs a non-empty window");
  }
  obs::TraceSpan span(&obs::Global(), "vdrift.select.msbo.select_seconds");
  obs::Global().GetCounter("vdrift.select.msbo.selections").Increment();
  if (registry_->empty()) {
    Selection selection;
    selection.train_new_model = true;
    return selection;
  }
  if (static_cast<int>(calibration_.pc_avg.size()) != registry_->size() ||
      calibration_.sigma.size() != calibration_.pc_avg.size()) {
    return Status::FailedPrecondition(
        "MSBO calibration covers " +
        std::to_string(calibration_.pc_avg.size()) + " models but registry has " +
        std::to_string(registry_->size()) + "; recalibrate first");
  }
  for (int i = 0; i < registry_->size(); ++i) {
    if (registry_->at(i).ensemble == nullptr) {
      return Status::FailedPrecondition("MSBO requires an ensemble for model " +
                                        registry_->at(i).name);
    }
  }
  int limit = std::min<int>(config_.window_t,
                            static_cast<int>(window.size()));
  std::vector<LabeledFrame> eval(window.begin(), window.begin() + limit);

  Selection selection;
  selection.frames_examined = limit;
  // Candidate models score independently (inference is const and stores
  // nothing); the argmin folds in registry order afterwards, so the winner
  // and tie-breaks match the serial sweep.
  std::vector<double> briers(static_cast<size_t>(registry_->size()), 0.0);
  runtime::ParallelFor(
      0, registry_->size(), 1, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const ModelEntry& entry = registry_->at(static_cast<int>(i));
          briers[static_cast<size_t>(i)] = entry.ensemble->AverageBrier(eval);
        }
      });
  int best = -1;
  double best_brier = 0.0;
  for (int i = 0; i < registry_->size(); ++i) {
    // Each frame is evaluated by every ensemble member (Alg. 3 lines 5-11).
    selection.invocations += limit * registry_->at(i).ensemble->size();
    double brier = briers[static_cast<size_t>(i)];
    if (best < 0 || brier < best_brier) {
      best = i;
      best_brier = brier;
    }
  }
  selection.score = best_brier;
  double threshold =
      config_.rule == MsboThresholdRule::kGlobalH
          ? calibration_.global_h
          : calibration_.pc_avg[static_cast<size_t>(best)] -
                calibration_.sigma[static_cast<size_t>(best)];
  if (best_brier <= threshold) {
    selection.model_index = best;
  } else {
    // Even the most confident model is no more certain than it typically
    // is on foreign data: unseen distribution (Alg. 3 line 17).
    selection.train_new_model = true;
    obs::Global().GetCounter("vdrift.select.msbo.train_new").Increment();
  }
  obs::Global()
      .GetCounter("vdrift.select.msbo.invocations")
      .Increment(selection.invocations);
  obs::Global().GetGauge("vdrift.select.msbo.best_brier").Set(best_brier);
  return selection;
}

}  // namespace vdrift::select
