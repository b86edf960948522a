#include "benchutil/metrics_report.h"

#include <cstdio>
#include <fstream>

#include "benchutil/table.h"
#include "common/env.h"
#include "common/status.h"
#include "obs/openmetrics.h"

namespace vdrift::benchutil {

namespace {

// Seconds-scale values span micros to minutes; %.6g keeps both readable.
std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

void PrintMetricsTable(const obs::MetricsRegistry& registry) {
  auto counters = registry.Counters();
  auto gauges = registry.Gauges();
  if (!counters.empty() || !gauges.empty()) {
    Table scalars({"metric", "value"});
    for (const auto& [name, value] : counters) {
      scalars.AddRow({name, std::to_string(value)});
    }
    for (const auto& [name, value] : gauges) {
      scalars.AddRow({name, Num(value)});
    }
    Banner("metrics: counters & gauges");
    scalars.Print();
  }
  auto histograms = registry.Histograms();
  if (!histograms.empty()) {
    Table dist({"histogram", "count", "mean", "p50", "p90", "p99", "sum"});
    for (const auto& [name, snap] : histograms) {
      if (snap.count == 0) {
        // An empty distribution has no shape; "-" beats a fake 0.
        dist.AddRow({name, "0", "-", "-", "-", "-", Num(snap.sum)});
        continue;
      }
      dist.AddRow({name, std::to_string(snap.count), Num(snap.Mean()),
                   Num(snap.Quantile(0.5)), Num(snap.Quantile(0.9)),
                   Num(snap.Quantile(0.99)), Num(snap.sum)});
    }
    Banner("metrics: latency/value histograms");
    dist.Print();
  }
}

std::string MetricsReportJson(const obs::MetricsRegistry& registry,
                              const obs::EpisodeRecorder* episodes,
                              const obs::HealthWatchdog* watchdog) {
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

std::string EmitMetricsJson(const obs::MetricsRegistry& registry,
                            const obs::EpisodeRecorder* episodes,
                            const obs::HealthWatchdog* watchdog,
                            const std::string& default_path) {
  std::string path = env::String("VDRIFT_METRICS_JSON", default_path);
  std::ofstream out(path, std::ios::trunc);
  out << MetricsReportJson(registry, episodes, watchdog) << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "metrics report not written: cannot write %s\n",
                 path.c_str());
    return "";
  }
  std::printf("metrics report written to %s\n", path.c_str());
  return path;
}

std::string EmitOpenMetrics(const obs::MetricsRegistry& registry) {
  std::string path = env::String("VDRIFT_METRICS_OPENMETRICS");
  if (path.empty()) return "";
  Status status = obs::WriteOpenMetrics(registry, path);
  if (!status.ok()) {
    std::fprintf(stderr, "openmetrics export not written: %s\n",
                 status.ToString().c_str());
    return "";
  }
  std::printf("openmetrics export written to %s\n", path.c_str());
  return path;
}

}  // namespace vdrift::benchutil
