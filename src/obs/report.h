#ifndef VDRIFT_OBS_REPORT_H_
#define VDRIFT_OBS_REPORT_H_

#include <string>

#include "common/status.h"
#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace vdrift::obs {

/// The full metrics report: the registry's counters/gauges/histograms plus
/// the drift-episode trace under an "episodes" key and the SLO watchdog's
/// alert log under an "alerts" key. Either source may be null; its key
/// then holds []. This is the document the bench harnesses emit and
/// tools/check_metrics.sh validates (alerts empty on clean runs, non-empty
/// under injected faults).
std::string MetricsReportJson(const MetricsRegistry& registry,
                              const EpisodeRecorder* episodes,
                              const HealthWatchdog* watchdog);

/// Writes MetricsReportJson to `path` (trailing newline included).
Status WriteMetricsJson(const MetricsRegistry& registry,
                        const EpisodeRecorder* episodes,
                        const HealthWatchdog* watchdog,
                        const std::string& path);

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_REPORT_H_
