// Table 6 — Drift detection time performance (seconds).
//
// Time to monitor the full stream for drifts: DI (VAE encode + K-NN score
// + p-value + martingale per frame) vs ODIN-Detect (VAE encode + per-
// cluster distance/band bookkeeping + KL check per frame). The detector is
// re-armed on the current sequence's profile after each detection, as in
// the paper's protocol where detection restarts once recovery completes —
// which also yields a drift-episode trace per detection.
// Paper: BDD 293.4 vs 636.2, Detrac 97.3 vs 235.8, Tokyo 194.8 vs 294 —
// DI at least ~2x faster. Absolute numbers differ on CPU; the ratio is
// the reproduced shape.
//
// Runs on the BenchHarness: VDRIFT_BENCH_{SMOKE,DATASET,SEED,LEDGER} steer
// the run and one table6_detection_time ledger record is appended;
// VDRIFT_METRICS_JSON overrides the metrics report path. A drift-aware
// pipeline pass over the last dataset is appended when any of the deeper
// observability surfaces is armed:
//   - VDRIFT_TRACE_JSON: flight-recorder trace with the nested
//     detect/select/query stage spans around the tensor-op events,
//   - VDRIFT_SAMPLE_INTERVAL (+ VDRIFT_METRICS_JSONL / VDRIFT_SLO_SPEC):
//     windowed time-series sampling and the SLO health watchdog, whose
//     alerts land in the metrics report's "alerts" array,
//   - VDRIFT_FAULT_SPEC: the pass runs against a FaultyStream + injector,
//     so the watchdog can be proven to surface injected faults.
// VDRIFT_METRICS_OPENMETRICS additionally exports the global registry in
// the OpenMetrics text exposition format.

#include <cstdio>
#include <memory>
#include <string>

#include "benchutil/bench_harness.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "core/drift_inspector.h"
#include "baseline/odin.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace_log.h"
#include "pipeline/pipeline.h"
#include "video/stream.h"

namespace {

struct PaperRow {
  const char* dataset;
  double di;
  double odin;
};

constexpr PaperRow kPaper[] = {
    {"BDD", 293.4, 636.2}, {"Detrac", 97.3, 235.8}, {"Tokyo", 194.8, 294.0}};

}  // namespace

int main() {
  using namespace vdrift;
  benchutil::Banner("Table 6: drift detection time (s), DI vs ODIN-Detect");
  benchutil::BenchHarness harness("table6_detection_time");
  benchutil::WorkbenchOptions options = harness.MakeWorkbenchOptions();
  benchutil::Table table({"Dataset", "Drift Inspector", "ODIN-Detect",
                          "speedup", "paper (DI / ODIN)"});
  obs::EpisodeRecorder episodes;
  benchutil::Workbench* last_bench = nullptr;
  std::unique_ptr<benchutil::Workbench> kept_bench;
  for (const PaperRow& paper : kPaper) {
    if (!harness.ShouldRunDataset(paper.dataset)) continue;
    auto bench = benchutil::BuildWorkbench(paper.dataset, options)
                     .ValueOrDie();
    std::string prefix = paper.dataset;
    obs::Histogram& di_hist = harness.StageHistogram(prefix + ".di_frame");
    obs::Histogram& odin_hist =
        harness.StageHistogram(prefix + ".odin_frame");
    harness.SetPrimaryStage(prefix + ".di_frame");

    // --- DI over the whole stream, re-armed after each detection. ---
    video::StreamGenerator stream = bench->dataset.MakeStream();
    video::Frame frame;
    int current = 0;
    auto inspector = std::make_unique<conformal::DriftInspector>(
        bench->registry.at(0).profile.get(),
        conformal::DriftInspectorConfig{}, 7);
    inspector->set_recorder(&episodes);
    int detections = 0;
    while (stream.Next(&frame)) {
      current = frame.truth.sequence_id;
      conformal::DriftInspector::Observation observation;
      {
        // Through the harness (not a bare ScopedTimer) so the run ledger
        // gets raw per-frame samples, not just histogram quantiles.
        const double t0 = obs::MonotonicSeconds();
        observation = inspector->Observe(frame.pixels);
        harness.RecordStageSeconds(prefix + ".di_frame",
                                   obs::MonotonicSeconds() - t0);
      }
      if (observation.drift) {
        ++detections;
        // Recovery complete: restart detection against the distribution
        // the stream is now in, as the paper's protocol does.
        episodes.AnnotateDecision("table6." + prefix + ".rearm.seq" +
                                  std::to_string(current));
        inspector = std::make_unique<conformal::DriftInspector>(
            bench->registry.at(current).profile.get(),
            conformal::DriftInspectorConfig{},
            7 + static_cast<uint64_t>(detections));
        inspector->set_recorder(&episodes);
      }
    }
    double di_seconds = di_hist.sum();
    // One labeled series per dataset: same metric family, the dataset is a
    // dimension instead of being mangled into the name.
    obs::Global()
        .GetCounter("vdrift.di.detections", {{"dataset", prefix}})
        .Increment(detections);

    // --- ODIN-Detect over the whole stream (all clusters seeded). ---
    const conformal::DistributionProfile& encoder =
        *bench->registry.at(0).profile;
    baseline::OdinDetect odin(baseline::OdinConfig{},
                              static_cast<int>(
                                  encoder.Encode(bench->training_frames[0][0]
                                                     .pixels)
                                      .size()));
    for (int i = 0; i < bench->registry.size(); ++i) {
      std::vector<std::vector<float>> latents;
      for (const video::Frame& f :
           bench->training_frames[static_cast<size_t>(i)]) {
        latents.push_back(encoder.Encode(f.pixels));
      }
      odin.AddPermanentCluster(latents, i);
    }
    stream.Reset();
    while (stream.Next(&frame)) {
      const double t0 = obs::MonotonicSeconds();
      std::vector<float> z = encoder.Encode(frame.pixels);
      odin.Observe(z);
      harness.RecordStageSeconds(prefix + ".odin_frame",
                                 obs::MonotonicSeconds() - t0);
    }
    double odin_seconds = odin_hist.sum();

    char ref[64];
    std::snprintf(ref, sizeof(ref), "%.1f / %.1f", paper.di, paper.odin);
    table.AddRow({paper.dataset, benchutil::Fmt(di_seconds, 2),
                  benchutil::Fmt(odin_seconds, 2),
                  benchutil::Fmt(odin_seconds / di_seconds, 2) + "x", ref});
    kept_bench = std::move(bench);
    last_bench = kept_bench.get();
  }
  table.Print();

  // With any deeper observability surface armed, append one drift-aware
  // pipeline pass: the flight-recorder trace gets the nested pipeline
  // stage spans, the sampler gets a real windowed run to export, and the
  // SLO watchdog gets evaluated against it (with VDRIFT_FAULT_SPEC set,
  // against an injected-fault run). Last so the trace events survive any
  // ring wraparound from the long loops above.
  pipeline::PipelineObsOptions obs_options =
      pipeline::PipelineObsOptions::FromEnv();
  fault::FaultPlan fault_plan = fault::FaultPlan::FromEnv();
  std::shared_ptr<obs::HealthWatchdog> watchdog;
  bool pass_armed = obs::TraceLog::Instance().enabled() ||
                    obs_options.sample_interval_frames > 0 ||
                    !fault_plan.empty();
  if (last_bench != nullptr && pass_armed) {
    pipeline::PipelineConfig config;
    config.selector = pipeline::PipelineConfig::Selector::kMsbi;
    config.allow_training_new = false;
    config.provision = options.provision;
    config.obs = obs_options;
    fault::FaultInjector injector(fault_plan, harness.config().seed);
    if (!fault_plan.empty()) config.injector = &injector;
    video::StreamGenerator inner = last_bench->dataset.MakeStream();
    fault::FaultyStream faulty(&inner, &injector);
    video::FrameSource* stream =
        fault_plan.empty() ? static_cast<video::FrameSource*>(&inner)
                           : &faulty;
    pipeline::DriftAwarePipeline traced(&last_bench->registry,
                                        last_bench->calibration_samples,
                                        config);
    pipeline::PipelineMetrics run = traced.Run(stream).ValueOrDie();
    watchdog = run.watchdog;
    std::printf("pipeline pass: %lld frames", (long long)run.frames);
    if (run.sampler != nullptr) {
      std::printf(", %lld sampled window(s)",
                  (long long)run.sampler->windows_sampled());
    }
    if (run.watchdog != nullptr) {
      std::printf(", %lld SLO alert(s)",
                  (long long)run.watchdog->total_alerts());
    }
    std::printf("\n");
  }

  benchutil::PrintMetricsTable(obs::Global());
  benchutil::EmitMetricsJson(obs::Global(), &episodes, watchdog.get(),
                             "metrics_table6.json");
  benchutil::EmitOpenMetrics(obs::Global());
  harness.WriteReport();
  return 0;
}
