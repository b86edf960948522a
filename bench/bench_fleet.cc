// Fleet serving bench — the multi-stream drift service (src/serve) over
// N concurrent Tokyo replica streams on the deterministic thread pool.
//
// Reports per-fleet wall time, throughput, scheduling tallies
// (rounds/backpressure waits), and the shared-registry publication and
// adoption counts. Smoke mode (--smoke or VDRIFT_BENCH_SMOKE=1) runs the
// 2-stream fleet only on the tiny workbench — the CI liveness and TSan
// gate. VDRIFT_FLEET_FAULT_SPEC (ParsePerStreamFaultSpec grammar, e.g.
// "s1@nan_frame:p=0.02;selector_fail:p=0.5") arms per-stream fault
// injection; VDRIFT_METRICS_JSON captures the fleet's metrics registry —
// per-stream {stream=...} series plus the unlabeled aggregates that
// tools/check_metrics.sh cross-validates.
//
// Self-healing knobs: VDRIFT_FLEET_CHECKPOINT_DIR arms per-shard
// checkpointing (and with it restart/quarantine recovery);
// VDRIFT_FLEET_CHAOS_SEED arms a seed-driven chaos campaign (shard kills
// + checkpoint corruption) against the fleet; FleetOptions::ApplyEnv
// overlays VDRIFT_FLEET_MANIFEST / VDRIFT_FLEET_MAX_RESTARTS /
// VDRIFT_FLEET_BACKOFF_BASE.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/bench_harness.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "serve/fleet.h"
#include "serve/supervisor.h"
#include "video/stream.h"

int main(int argc, char** argv) {
  using namespace vdrift;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      setenv("VDRIFT_BENCH_SMOKE", "1", 1);
    }
  }
  benchutil::Banner("Fleet serving: N concurrent drift-aware streams");
  benchutil::BenchHarness harness("fleet_serving");
  benchutil::WorkbenchOptions options = harness.MakeWorkbenchOptions();
  auto bench = benchutil::BuildWorkbench("Tokyo", options).ValueOrDie();

  std::vector<fault::StreamFaultPlan> fault_plans;
  const char* fault_env = std::getenv("VDRIFT_FLEET_FAULT_SPEC");
  if (fault_env != nullptr && fault_env[0] != '\0') {
    fault_plans = fault::ParsePerStreamFaultSpec(fault_env).ValueOrDie();
    std::printf("  [fault] per-stream spec armed: %s\n", fault_env);
  }

  std::vector<int> fleet_sizes =
      harness.config().smoke ? std::vector<int>{2} : std::vector<int>{2, 4, 8};
  benchutil::Table table({"Streams", "Frames", "Rounds", "Waits", "Published",
                          "Rejected", "Adopted", "Restarts", "Quarantined",
                          "Seconds", "fps"});
  std::shared_ptr<obs::MetricsRegistry> last_registry;
  std::shared_ptr<obs::HealthWatchdog> last_watchdog;
  for (int n : fleet_sizes) {
    serve::FleetOptions fleet_options;
    fleet_options.pipeline.selector =
        pipeline::PipelineConfig::Selector::kMsbo;
    fleet_options.pipeline.provision = options.provision;
    fleet_options.pipeline.allow_training_new = false;
    fleet_options.pipeline.seed = harness.config().seed;
    fleet_options.slice_frames = 64;
    fleet_options.max_concurrent = 4;
    fleet_options.sample_interval_rounds = 2;
    fleet_options.slo_spec = "default";
    const char* ckpt_dir = std::getenv("VDRIFT_FLEET_CHECKPOINT_DIR");
    if (ckpt_dir != nullptr && ckpt_dir[0] != '\0') {
      fleet_options.checkpoint_dir = ckpt_dir;
    }
    fleet_options.ApplyEnv();
    const char* chaos_env = std::getenv("VDRIFT_FLEET_CHAOS_SEED");
    if (chaos_env != nullptr && chaos_env[0] != '\0') {
      std::vector<std::string> labels;
      for (int i = 0; i < n; ++i) labels.push_back("s" + std::to_string(i));
      fleet_options.chaos = fault::ChaosPlan::FromSeed(
          std::strtoull(chaos_env, nullptr, 10), labels,
          /*horizon_rounds=*/16);
      std::printf("  [chaos] campaign armed: %s\n",
                  fleet_options.chaos.ToString().c_str());
    }
    serve::DriftFleet fleet(fleet_options);
    VDRIFT_CHECK_OK(fleet.AddBaseModels(bench->registry,
                                        bench->calibration_samples));
    // Tokyo replicas: same drift truth, distinct render seeds per stream.
    std::vector<std::unique_ptr<video::StreamGenerator>> streams;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::vector<std::unique_ptr<fault::FaultyStream>> wrapped;
    for (int i = 0; i < n; ++i) {
      std::string label = "s" + std::to_string(i);
      streams.push_back(std::make_unique<video::StreamGenerator>(
          bench->dataset.segments, bench->dataset.image_size,
          bench->dataset.seed + 100 + static_cast<uint64_t>(i)));
      serve::StreamSpec spec;
      spec.label = label;
      spec.stream = streams.back().get();
      for (const fault::StreamFaultPlan& plan : fault_plans) {
        if (plan.stream != label) continue;
        injectors.push_back(std::make_unique<fault::FaultInjector>(
            plan.plan, harness.config().seed));
        spec.injector = injectors.back().get();
        wrapped.push_back(std::make_unique<fault::FaultyStream>(
            streams.back().get(), spec.injector));
        spec.stream = wrapped.back().get();
      }
      VDRIFT_CHECK_OK(fleet.AddStream(spec));
    }
    auto start = std::chrono::steady_clock::now();
    serve::FleetReport report = fleet.Run().ValueOrDie();
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    int64_t frames = 0;
    int quarantined = 0;
    for (const serve::StreamReport& stream : report.streams) {
      frames += stream.metrics.frames;
      if (stream.health == serve::HealthState::kQuarantined) {
        quarantined += 1;
        std::printf("  [warn] stream %s quarantined (%s): %ld frames "
                    "unserved but accounted\n",
                    stream.label.c_str(), stream.status.ToString().c_str(),
                    static_cast<long>(stream.quarantined_frames));
      } else if (!stream.status.ok()) {
        std::printf("  [warn] stream %s failed: %s\n", stream.label.c_str(),
                    stream.status.ToString().c_str());
      }
    }
    double fps = seconds > 0.0 ? static_cast<double>(frames) / seconds : 0.0;
    std::string stage = "tokyo.fleet" + std::to_string(n);
    harness.RecordStageSeconds(stage + ".total", seconds);
    table.AddRow({std::to_string(n), std::to_string(frames),
                  std::to_string(report.rounds),
                  std::to_string(report.backpressure_waits),
                  std::to_string(report.models_published),
                  std::to_string(report.publish_rejected),
                  std::to_string(report.models_adopted),
                  std::to_string(report.shard_restarts),
                  std::to_string(quarantined),
                  benchutil::Fmt(seconds, 2), benchutil::Fmt(fps, 0)});
    harness.SetThroughputFps(fps);
    last_registry = fleet.registry();
    last_watchdog = fleet.watchdog();
  }
  table.Print();
  harness.SetPrimaryStage("tokyo.fleet" +
                          std::to_string(fleet_sizes.back()) + ".total");
  if (last_registry != nullptr) {
    benchutil::EmitMetricsJson(*last_registry, nullptr, last_watchdog.get(),
                               "metrics_fleet.json");
    benchutil::EmitOpenMetrics(*last_registry);
  }
  harness.WriteReport();
  return 0;
}
