// Quickstart — the smallest end-to-end use of the library:
//
//   1. render training frames for a "daytime highway" distribution,
//   2. build a DistributionProfile (VAE + Sigma_Ti + precomputed scores),
//   3. arm a Drift Inspector on it,
//   4. stream day frames (no drift), then night frames (drift),
//   5. observe the detection and the exact frame it fires on,
//   6. export the metrics + drift-episode telemetry the run produced.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/drift_inspector.h"
#include "core/profile.h"
#include "obs/episode_trace.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "stats/rng.h"
#include "video/datasets.h"
#include "video/stream.h"

int main() {
  using namespace vdrift;
  stats::Rng rng(7);

  // 1. Training data: 200 frames of the BDD-style Day distribution.
  video::SyntheticDataset bdd = video::MakeBddSynthetic(/*scale=*/0.01);
  std::vector<video::Frame> training =
      video::GenerateFrames(bdd.SpecOf("Day"), 200, bdd.image_size, 1);
  std::printf("rendered %zu training frames (%d objects in frame 0)\n",
              training.size(),
              static_cast<int>(training[0].truth.objects.size()));

  // 2. Profile: trains the VAE on T_Day, samples Sigma_T, precomputes A.
  conformal::DistributionProfile::Options options;
  options.trainer.epochs = 15;
  auto profile = conformal::DistributionProfile::Build(
                     "Day", video::PixelsOf(training), options, &rng)
                     .ValueOrDie();
  std::printf("profile ready: |Sigma|=%d, scoring dim=%d\n",
              profile->sigma().size(), profile->sigma().dim());

  // 3. Drift Inspector with the paper's defaults (W=3, r=0.5, K=5). The
  //    episode recorder keeps a ring of the martingale/p-value/bet values
  //    around each detection.
  conformal::DriftInspector inspector(profile.get(),
                                      conformal::DriftInspectorConfig{});
  obs::EpisodeRecorder episodes;
  inspector.set_recorder(&episodes);
  std::printf("drift threshold tau(W=3, r=0.5) = %.3f\n",
              inspector.threshold());

  // 4. Stream: 300 Day frames, then the distribution flips to Night.
  video::StreamGenerator stream(
      {{bdd.SpecOf("Day"), 300}, {bdd.SpecOf("Night"), 100}},
      bdd.image_size, /*seed=*/99);
  std::printf("ground-truth drift at frame %lld\n",
              static_cast<long long>(stream.drift_points()[0]));

  // 5. Monitor.
  bool detected = false;
  video::Frame frame;
  while (stream.Next(&frame)) {
    conformal::DriftInspector::Observation observation =
        inspector.Observe(frame.pixels);
    if (observation.drift) {
      std::printf(
          "DRIFT detected at frame %lld (martingale %.2f, p-value %.3f) — "
          "%lld frames after the change point\n",
          static_cast<long long>(frame.truth.frame_index),
          observation.martingale, observation.p_value,
          static_cast<long long>(frame.truth.frame_index -
                                 stream.drift_points()[0] + 1));
      episodes.AnnotateDecision("quickstart:night-drift");
      detected = true;
      break;
    }
  }
  if (!detected) std::printf("no drift detected (unexpected)\n");

  // 6. Telemetry: DI recorded its per-frame latency into the process-wide
  //    registry; the recorder holds the episode around the detection.
  obs::Histogram::Snapshot di = obs::Global()
                                    .GetHistogram("vdrift.di.observe_seconds")
                                    .snapshot();
  std::printf("DI observe latency over %lld frames: p50=%.6fs p99=%.6fs\n",
              static_cast<long long>(di.count), di.Quantile(0.5),
              di.Quantile(0.99));
  Status written = obs::WriteMetricsJson(obs::Global(), &episodes, nullptr,
                                         "metrics_quickstart.json");
  if (written.ok()) {
    std::printf("metrics report written to metrics_quickstart.json "
                "(%zu episodes)\n",
                episodes.episodes().size());
  }
  return detected ? 0 : 1;
}
