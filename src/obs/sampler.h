#ifndef VDRIFT_OBS_SAMPLER_H_
#define VDRIFT_OBS_SAMPLER_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace vdrift::obs {

/// \brief One sampling window: what changed in the registry between two
/// consecutive Sample() calls.
///
/// Counters carry both the window delta and the cumulative total at the
/// window's end, so a consumer can verify that the deltas of a run's
/// windows sum exactly to the final totals (the JSONL invariant the
/// sampler tests assert). Histograms are *windowed*: the
/// snapshot holds the bucket/count/sum deltas of the window, so
/// Quantile() answers "p99 of this window", not of the whole run.
struct MetricsWindow {
  int64_t index = 0;       ///< 0-based window sequence number.
  double start_time = 0.0; ///< Sampler time at the previous Sample().
  double end_time = 0.0;   ///< Sampler time at this Sample().
  std::map<std::string, int64_t> counter_deltas;
  std::map<std::string, int64_t> counter_totals;
  std::map<std::string, double> gauges;  ///< Value at the window's end.
  std::map<std::string, Histogram::Snapshot> histograms;  ///< Window deltas.

  /// One compact JSON object (one JSONL line). Histograms with an empty
  /// window are omitted, and quantile keys are never emitted for them.
  std::string ToJson() const;
};

/// \brief Periodic registry snapshotter producing per-window deltas.
///
/// Deterministic in whatever clock the caller passes to Sample() — the
/// drift-aware pipeline passes its admitted-frame count, so two runs over
/// the same stream produce bit-identical window series regardless of wall
/// time (the design note in DESIGN.md "Sampler determinism"). A bounded
/// ring of recent windows is retained for in-memory consumers (the SLO
/// watchdog, tests); when a JSONL path is configured every window is also
/// appended to that file as it is taken, so the exported time series is
/// complete even after the ring drops old windows.
///
/// The watched registry must outlive the sampler. Do not call
/// MetricsRegistry::Reset() on a registry a live sampler watches —
/// re-create the sampler instead (deltas would go negative).
class MetricsSampler {
 public:
  struct Options {
    int max_windows = 1024;  ///< Ring capacity (oldest dropped first).
    /// Append-only JSONL sink, one window per line ("" disables). Opened
    /// lazily at the first Sample(); a failed open logs once and disables
    /// the sink rather than failing the run.
    std::string jsonl_path;
  };

  explicit MetricsSampler(const MetricsRegistry* registry);
  MetricsSampler(const MetricsRegistry* registry, const Options& options);

  /// Snapshots the registry and closes the current window at time `now`
  /// (monotonically non-decreasing across calls). Returns the new window.
  MetricsWindow Sample(double now);

  /// Retained windows, oldest first (at most options.max_windows).
  std::vector<MetricsWindow> windows() const;
  /// Total windows taken since construction (including dropped ones).
  int64_t windows_sampled() const;
  /// Time passed to the most recent Sample() (0 before the first).
  double last_sample_time() const;

  /// Retained windows as JSONL (one line per window). The configured
  /// jsonl_path sink is the complete series; this is the in-memory tail.
  std::string ToJsonl() const;

 private:
  const MetricsRegistry* registry_;
  const Options options_;
  mutable Mutex mutex_;
  std::map<std::string, int64_t> prev_counters_ VDRIFT_GUARDED_BY(mutex_);
  std::map<std::string, Histogram::Snapshot> prev_histograms_
      VDRIFT_GUARDED_BY(mutex_);
  std::deque<MetricsWindow> windows_ VDRIFT_GUARDED_BY(mutex_);
  int64_t taken_ VDRIFT_GUARDED_BY(mutex_) = 0;
  double last_time_ VDRIFT_GUARDED_BY(mutex_) = 0.0;
  /// Lazily opened sink.
  std::unique_ptr<std::ofstream> jsonl_ VDRIFT_GUARDED_BY(mutex_);
  bool jsonl_failed_ VDRIFT_GUARDED_BY(mutex_) = false;
};

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_SAMPLER_H_
