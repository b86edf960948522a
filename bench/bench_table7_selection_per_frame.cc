// Table 7 — Per-frame model selection time.
//
// MSBO / MSBI spend real compute per examined frame (ensembles / DI runs
// across all profiles) but look at only ~10 frames per drift; ODIN-Select
// is cheap per frame but runs on *every* frame. Paper (Detrac): MSBO 830
// ms/frame, MSBI 640 ms/frame, ODIN-Select 17.8 ms/frame. The reproduced
// shape: MS per-frame cost is 1-2 orders of magnitude above ODIN's.

#include <cstdio>
#include <vector>

#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "core/msbi.h"
#include "core/msbo.h"
#include "detect/annotator.h"
#include "obs/timer.h"
#include "baseline/odin.h"
#include "video/stream.h"

namespace {
// Milliseconds per frame since `start`, an obs::MonotonicSeconds reading.
double MsPerFrame(double start, double frames) {
  return (vdrift::obs::MonotonicSeconds() - start) * 1000.0 / frames;
}
}  // namespace

int main() {
  using namespace vdrift;
  benchutil::Banner("Table 7: per-frame model selection time (ms), Detrac");
  benchutil::WorkbenchOptions options = benchutil::DefaultWorkbenchOptions();
  auto bench = benchutil::BuildWorkbench("Detrac", options).ValueOrDie();

  // A 10-frame window from Angle 2 (post-drift frames).
  std::vector<video::Frame> window = video::GenerateFrames(
      bench->dataset.segments[1].spec, 10, bench->dataset.image_size, 8100);
  std::vector<select::LabeledFrame> labeled;
  std::vector<tensor::Tensor> pixels;
  for (const video::Frame& f : window) {
    labeled.push_back({f.pixels, detect::CountLabel(f.truth, 8)});
    pixels.push_back(f.pixels);
  }
  const int kRepeats = 20;

  select::Msbo msbo(&bench->registry,
                    select::CalibrateMsbo(bench->registry,
                                          bench->calibration_samples)
                        .ValueOrDie(),
                    select::MsboConfig{});
  double t0 = obs::MonotonicSeconds();
  for (int i = 0; i < kRepeats; ++i) {
    (void)msbo.Select(labeled).ValueOrDie();
  }
  double msbo_ms = MsPerFrame(t0, kRepeats * 10);

  select::Msbi msbi(&bench->registry, select::MsbiConfig{});
  t0 = obs::MonotonicSeconds();
  for (int i = 0; i < kRepeats; ++i) {
    (void)msbi.Select(pixels).ValueOrDie();
  }
  double msbi_ms = MsPerFrame(t0, kRepeats * 10);

  // ODIN-Select: per-frame cluster assignment over all 5 clusters.
  const conformal::DistributionProfile& encoder =
      *bench->registry.at(0).profile;
  baseline::OdinDetect odin(baseline::OdinConfig{}, encoder.encoded_dim());
  for (int i = 0; i < bench->registry.size(); ++i) {
    std::vector<std::vector<float>> latents;
    for (const video::Frame& f :
         bench->training_frames[static_cast<size_t>(i)]) {
      latents.push_back(encoder.Encode(f.pixels));
    }
    odin.AddPermanentCluster(latents, i);
  }
  std::vector<video::Frame> odin_frames = video::GenerateFrames(
      bench->dataset.segments[1].spec, 200, bench->dataset.image_size, 8200);
  t0 = obs::MonotonicSeconds();
  for (const video::Frame& f : odin_frames) {
    std::vector<float> z = encoder.Encode(f.pixels);
    odin.Observe(z);
  }
  double odin_ms = MsPerFrame(t0, static_cast<double>(odin_frames.size()));

  benchutil::Table table({"Algorithm", "ms/frame", "paper ms/frame"});
  table.AddRow({"MSBO", benchutil::Fmt(msbo_ms, 3), "830"});
  table.AddRow({"MSBI", benchutil::Fmt(msbi_ms, 3), "640"});
  table.AddRow({"ODIN-Select", benchutil::Fmt(odin_ms, 3), "17.8"});
  table.Print();
  std::printf("\nMS/ODIN per-frame ratio: MSBO %.0fx, MSBI %.0fx (paper: "
              "47x / 36x)\n",
              msbo_ms / odin_ms, msbi_ms / odin_ms);
  return 0;
}
