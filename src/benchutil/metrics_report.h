#ifndef VDRIFT_BENCHUTIL_METRICS_REPORT_H_
#define VDRIFT_BENCHUTIL_METRICS_REPORT_H_

#include <string>

#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace vdrift::benchutil {

/// Renders the registry as human-readable tables (counters/gauges, then
/// histograms with count/mean/p50/p90/p99/sum) and prints them to stdout.
/// Empty histograms show "-" for the shape columns instead of a fake 0.
void PrintMetricsTable(const obs::MetricsRegistry& registry);

/// Writes the JSON metrics report (registry, plus the episode trace and the
/// SLO watchdog's alert log when non-null) to `path` — resolved from the
/// VDRIFT_METRICS_JSON env var when set and non-empty, `default_path`
/// otherwise — and prints where it went. Returns the path written (empty
/// on failure, with the error printed).
std::string EmitMetricsJson(const obs::MetricsRegistry& registry,
                            const obs::EpisodeRecorder* episodes,
                            const obs::HealthWatchdog* watchdog,
                            const std::string& default_path);

/// Writes the registry in OpenMetrics text exposition format when the
/// VDRIFT_METRICS_OPENMETRICS env var names a path (no-op otherwise,
/// mirroring how VDRIFT_TRACE_JSON gates the flight recorder). Returns the
/// path written ("" when unset or on failure, with the error printed).
std::string EmitOpenMetrics(const obs::MetricsRegistry& registry);

}  // namespace vdrift::benchutil

#endif  // VDRIFT_BENCHUTIL_METRICS_REPORT_H_
