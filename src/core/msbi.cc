#include "core/msbi.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "runtime/parallel.h"

namespace vdrift::select {

Msbi::Msbi(const ModelRegistry* registry, const MsbiConfig& config)
    : registry_(registry), config_(config) {
  // vdrift-lint: allow(no-data-dependent-check): null-wiring bug, not data
  VDRIFT_CHECK(registry_ != nullptr);
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config_.window_n >= 1);
  // vdrift-lint: allow(no-data-dependent-check): ctor config contract
  VDRIFT_CHECK(config_.r > 0.0 && config_.r <= 1.0);
}

std::vector<int> Msbi::Round(const std::vector<tensor::Tensor>& window,
                             const std::vector<int>& candidates, double r,
                             int* invocations) const {
  // Candidates are independent: each runs its own seeded DriftInspector
  // over its own profile (encoding is const, so concurrent Observe calls
  // share no mutable state). Per-candidate
  // verdicts land in fixed slots and fold in candidate order below, so
  // survivors and invocation counts match the serial sweep exactly.
  struct CandidateResult {
    bool drift = false;
    int invocations = 0;
  };
  std::vector<CandidateResult> results(candidates.size());
  int limit =
      std::min<int>(config_.window_n, static_cast<int>(window.size()));
  runtime::ParallelFor(
      0, static_cast<int64_t>(candidates.size()), 1,
      [&](int64_t begin, int64_t end) {
        for (int64_t c = begin; c < end; ++c) {
          int index = candidates[static_cast<size_t>(c)];
          const ModelEntry& entry = registry_->at(index);
          conformal::DriftInspectorConfig di_config;
          di_config.window = config_.di_window;
          di_config.r = r;
          di_config.threshold = config_.threshold;
          di_config.betting = config_.betting;
          conformal::DriftInspector inspector(
              entry.profile.get(), di_config,
              config_.seed + static_cast<uint64_t>(index));
          CandidateResult& result = results[static_cast<size_t>(c)];
          for (int i = 0; i < limit; ++i) {
            ++result.invocations;
            // TryObserve rejects frames whose non-conformity is non-finite
            // (NaN/Inf pixels) without touching inspector state; every
            // candidate skips exactly the same frames, so the elimination
            // stays deterministic under corrupted windows.
            Result<conformal::DriftInspector::Observation> observation =
                inspector.TryObserve(window[static_cast<size_t>(i)]);
            if (!observation.ok()) continue;
            if (observation.value().drift) {
              result.drift = true;
              break;  // profile rejected; no need to finish the window
            }
          }
        }
      });
  std::vector<int> survivors;
  for (size_t c = 0; c < candidates.size(); ++c) {
    *invocations += results[c].invocations;
    if (!results[c].drift) survivors.push_back(candidates[c]);
  }
  return survivors;
}

Result<Selection> Msbi::Select(
    const std::vector<tensor::Tensor>& window) const {
  if (window.empty()) {
    return Status::InvalidArgument("MSBI needs a non-empty window");
  }
  obs::TraceSpan span(&obs::Global(), "vdrift.select.msbi.select_seconds");
  obs::Global().GetCounter("vdrift.select.msbi.selections").Increment();
  if (registry_->empty()) {
    Selection selection;
    selection.train_new_model = true;
    return selection;
  }
  std::vector<int> candidates(static_cast<size_t>(registry_->size()));
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<int>(i);
  }
  Selection selection;
  selection.frames_examined =
      std::min<int>(config_.window_n, static_cast<int>(window.size()));
  double r = config_.r;
  while (true) {
    obs::Global().GetCounter("vdrift.select.msbi.rounds").Increment();
    std::vector<int> survivors =
        Round(window, candidates, r, &selection.invocations);
    if (survivors.empty()) {
      // Every profile rejected the new data: unseen distribution (Alg. 2
      // lines 9-10).
      selection.train_new_model = true;
      selection.score = r;
      break;
    }
    if (survivors.size() == 1 || r + config_.r_step > config_.r_max) {
      // Unique survivor, or r saturated: break ties arbitrarily (§5.1:
      // "we break ties arbitrarily or progressively by increasing the
      // significance level").
      selection.model_index = survivors.front();
      selection.score = r;
      break;
    }
    candidates = std::move(survivors);
    r += config_.r_step;
  }
  obs::Global()
      .GetCounter("vdrift.select.msbi.invocations")
      .Increment(selection.invocations);
  if (selection.train_new_model) {
    obs::Global().GetCounter("vdrift.select.msbi.train_new").Increment();
  }
  return selection;
}

}  // namespace vdrift::select
