// Micro benchmarks — per-component costs behind the paper's §6.1.2 /
// §6.2.2 per-frame millisecond breakdowns: frame rendering, VAE encode,
// K-NN non-conformity score, conformal p-value, martingale update, one
// full DI observation, one ODIN-Detect observation, classifier inference,
// and ensemble Brier evaluation.
//
// Runs on the BenchHarness: each component is a stage of per-call latency
// samples (BenchConfig::repeats scales how many), reported with
// p50/p90/p99 in the micro_components ledger record.

#include <memory>
#include <string>
#include <vector>

#include "baseline/odin.h"
#include "benchutil/bench_harness.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "core/betting.h"
#include "core/drift_inspector.h"
#include "core/martingale.h"
#include "core/pvalue.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "stats/rng.h"
#include "video/renderer.h"
#include "video/stream.h"

namespace {

using namespace vdrift;

// Per-call samples collected per stage, per configured repeat: enough for
// stable p50/p90 at full scale, one quick burst in smoke mode.
int SamplesPerRepeat(const benchutil::BenchConfig& config) {
  return config.smoke ? 10 : 60;
}

// Runs `fn` untimed config.warmup times, then records
// config.repeats * SamplesPerRepeat per-call latencies into `stage`.
template <typename Fn>
void MicroBench(benchutil::BenchHarness* harness, const std::string& stage,
                Fn&& fn) {
  const benchutil::BenchConfig& config = harness->config();
  for (int i = 0; i < config.warmup; ++i) fn();
  int samples = config.repeats * SamplesPerRepeat(config);
  for (int i = 0; i < samples; ++i) {
    // Through RecordStageSeconds (not a ScopedTimer straight into the
    // histogram) so the raw per-call latencies reach the report's
    // "samples" arrays for the statistical gate.
    double start = obs::MonotonicSeconds();
    fn();
    harness->RecordStageSeconds(stage, obs::MonotonicSeconds() - start);
  }
}

}  // namespace

int main() {
  using namespace vdrift;
  benchutil::Banner("Micro: per-component latency (see §6.1.2 / §6.2.2)");
  benchutil::BenchHarness harness("micro_components");
  benchutil::WorkbenchOptions options = harness.MakeWorkbenchOptions();
  // One workbench serves every component; BDD matches the paper's primary
  // dataset, smoke mode swaps in the filtered (cheapest) one.
  std::string dataset = "BDD";
  if (!harness.ShouldRunDataset(dataset) &&
      !harness.config().dataset_filter.empty()) {
    dataset = harness.config().dataset_filter;
  }
  auto bench = benchutil::BuildWorkbench(dataset, options).ValueOrDie();

  video::Frame frame = video::GenerateFrames(bench->dataset.segments[0].spec,
                                             1, bench->dataset.image_size,
                                             424242)[0];
  const conformal::DistributionProfile& profile =
      *bench->registry.at(0).profile;

  {
    video::Renderer renderer(bench->dataset.image_size);
    stats::Rng rng(1);
    video::SceneSpec spec = bench->dataset.segments[0].spec;
    MicroBench(&harness, "render_frame", [&] {
      benchutil::DoNotOptimize(renderer.Render(spec, &rng));
    });
  }

  MicroBench(&harness, "vae_encode", [&] {
    benchutil::DoNotOptimize(profile.Encode(frame.pixels));
  });

  {
    std::vector<float> z = profile.Encode(frame.pixels);
    MicroBench(&harness, "knn_score", [&] {
      benchutil::DoNotOptimize(profile.sigma().KnnScore(z));
    });
  }

  {
    stats::Rng rng(2);
    double a_f = profile.sigma().sorted_scores()[
        profile.sigma().sorted_scores().size() / 2];
    MicroBench(&harness, "p_value", [&] {
      benchutil::DoNotOptimize(
          conformal::ComputePValue(a_f, profile.sigma().sorted_scores(),
                                   &rng));
    });
  }

  {
    auto betting = conformal::MakeDefaultBetting();
    conformal::ConformalMartingale martingale(betting.get(), 3, 0.5);
    stats::Rng rng(3);
    MicroBench(&harness, "martingale_update", [&] {
      benchutil::DoNotOptimize(martingale.Update(rng.NextDouble()));
    });
  }

  {
    conformal::DriftInspector inspector(bench->registry.at(0).profile.get(),
                                        conformal::DriftInspectorConfig{}, 4);
    MicroBench(&harness, "di_observe", [&] {
      benchutil::DoNotOptimize(inspector.Observe(frame.pixels));
    });
  }

  {
    std::vector<float> z = profile.Encode(frame.pixels);
    baseline::OdinDetect odin(baseline::OdinConfig{},
                              static_cast<int>(z.size()));
    for (int i = 0; i < bench->registry.size(); ++i) {
      std::vector<std::vector<float>> latents;
      for (const video::Frame& f :
           bench->training_frames[static_cast<size_t>(i)]) {
        latents.push_back(profile.Encode(f.pixels));
      }
      odin.AddPermanentCluster(latents, i);
    }
    MicroBench(&harness, "odin_observe", [&] {
      benchutil::DoNotOptimize(odin.Observe(z));
    });
  }

  MicroBench(&harness, "classifier_predict", [&] {
    benchutil::DoNotOptimize(
        bench->registry.at(0).count_model->Predict(frame.pixels));
  });

  MicroBench(&harness, "ensemble_brier", [&] {
    benchutil::DoNotOptimize(
        bench->registry.at(0).ensemble->BrierScore(frame.pixels, 3));
  });

  harness.SetPrimaryStage("di_observe");
  benchutil::PrintMetricsTable(harness.registry());
  benchutil::EmitMetricsJson(obs::Global(), nullptr, nullptr,
                             "metrics_micro.json");
  harness.WriteReport();
  return 0;
}
