#include "benchutil/metrics_report.h"

#include <cstdio>
#include <cstdlib>

#include "benchutil/table.h"
#include "common/status.h"
#include "obs/openmetrics.h"
#include "obs/report.h"

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

std::string EmitMetricsJson(const obs::MetricsRegistry& registry,
                            const obs::EpisodeRecorder* episodes,
                            const obs::HealthWatchdog* watchdog,
                            const std::string& default_path) {
  // vdrift-lint: allow(no-ambient-nondeterminism): documented export knob
  const char* override_path = std::getenv("VDRIFT_METRICS_JSON");
  std::string path = override_path != nullptr && override_path[0] != '\0'
                         ? override_path
                         : default_path;
  Status status = obs::WriteMetricsJson(registry, episodes, watchdog, path);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics report not written: %s\n",
                 status.ToString().c_str());
    return "";
  }
  std::printf("metrics report written to %s\n", path.c_str());
  return path;
}

std::string EmitOpenMetrics(const obs::MetricsRegistry& registry) {
  // vdrift-lint: allow(no-ambient-nondeterminism): documented export knob
  const char* path = std::getenv("VDRIFT_METRICS_OPENMETRICS");
  if (path == nullptr || path[0] == '\0') return "";
  Status status = obs::WriteOpenMetrics(registry, path);
  if (!status.ok()) {
    std::fprintf(stderr, "openmetrics export not written: %s\n",
                 status.ToString().c_str());
    return "";
  }
  std::printf("openmetrics export written to %s\n", path);
  return path;
}

}  // namespace vdrift::benchutil
