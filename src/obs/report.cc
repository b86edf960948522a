#include "obs/report.h"

#include <fstream>

namespace vdrift::obs {

std::string MetricsReportJson(const MetricsRegistry& registry,
                              const EpisodeRecorder* episodes,
                              const HealthWatchdog* watchdog) {
  std::string metrics = registry.ToJson();
  // Splice "episodes" and "alerts" into the registry's top-level object.
  metrics.pop_back();  // trailing '}'
  metrics += ",\"episodes\":";
  metrics += episodes == nullptr ? "[]" : episodes->ToJson();
  metrics += ",\"alerts\":";
  metrics += watchdog == nullptr ? "[]" : watchdog->AlertsJson();
  metrics += "}";
  return metrics;
}

Status WriteMetricsJson(const MetricsRegistry& registry,
                        const EpisodeRecorder* episodes,
                        const HealthWatchdog* watchdog,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open metrics report for writing: " + path);
  }
  out << MetricsReportJson(registry, episodes, watchdog) << "\n";
  out.flush();
  if (!out) return Status::IoError("failed writing metrics report: " + path);
  return Status::OK();
}

}  // namespace vdrift::obs
