// Table 8 — Model selection time performance (seconds).
//
// Total time spent choosing models over each dataset's stream: MSBO/MSBI
// run once per drift on a small window; ODIN-Select performs a per-frame
// cluster assignment for *every* frame. Paper: BDD 5.0 / 22.4 / 764.4,
// Detrac 8.3 / 19.6 / 446.8, Tokyo 4.6 / 13.4 / 656.1 — MS one order of
// magnitude faster overall. Absolute values differ at CPU scale; the
// orders-of-magnitude gap is the reproduced shape.
//
// Runs on the BenchHarness: VDRIFT_BENCH_{SMOKE,DATASET,SEED,LEDGER} steer
// the run and one table8_selection_time ledger record is appended;
// VDRIFT_METRICS_JSON overrides the metrics report path.

#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/bench_harness.h"
#include "benchutil/metrics_report.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "core/msbi.h"
#include "core/msbo.h"
#include "detect/annotator.h"
#include "baseline/odin.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "video/stream.h"

namespace {

struct PaperRow {
  const char* dataset;
  double msbo;
  double msbi;
  double odin;
};

constexpr PaperRow kPaper[] = {{"BDD", 5.015, 22.36, 764.4},
                               {"Detrac", 8.34, 19.57, 446.8},
                               {"Tokyo", 4.63, 13.44, 656.1}};

}  // namespace

int main() {
  using namespace vdrift;
  benchutil::Banner("Table 8: model selection time (s) per dataset");
  benchutil::BenchHarness harness("table8_selection_time");
  benchutil::WorkbenchOptions options = harness.MakeWorkbenchOptions();
  benchutil::Table table({"Dataset", "Models", "MSBO", "MSBI", "ODIN-Select",
                          "paper (MSBO/MSBI/ODIN)"});
  for (const PaperRow& paper : kPaper) {
    if (!harness.ShouldRunDataset(paper.dataset)) continue;
    auto bench =
        benchutil::BuildWorkbench(paper.dataset, options).ValueOrDie();
    int m = bench->registry.size();
    std::string prefix = paper.dataset;
    obs::Histogram& msbo_hist =
        harness.StageHistogram(prefix + ".msbo_select");
    obs::Histogram& msbi_hist =
        harness.StageHistogram(prefix + ".msbi_select");
    obs::Histogram& odin_hist =
        harness.StageHistogram(prefix + ".odin_frame");
    harness.SetPrimaryStage(prefix + ".odin_frame");

    // MSBO / MSBI: one selection per drift (m-1 drifts in the stream).
    select::Msbo msbo(&bench->registry, bench->calibration,
                      select::MsboConfig{});
    select::Msbi msbi(&bench->registry, select::MsbiConfig{});
    for (int target = 1; target < m; ++target) {
      std::vector<video::Frame> window = video::GenerateFrames(
          bench->dataset.segments[static_cast<size_t>(target)].spec, 10,
          bench->dataset.image_size, 8800 + static_cast<uint64_t>(target));
      std::vector<select::LabeledFrame> labeled;
      std::vector<tensor::Tensor> pixels;
      for (const video::Frame& f : window) {
        labeled.push_back({f.pixels, detect::CountLabel(f.truth, 8)});
        pixels.push_back(f.pixels);
      }
      {
        // Through the harness (not a bare ScopedTimer) so the run ledger
        // gets raw per-selection samples, not just histogram quantiles.
        const double t0 = obs::MonotonicSeconds();
        (void)msbo.Select(labeled).ValueOrDie();
        harness.RecordStageSeconds(prefix + ".msbo_select",
                                   obs::MonotonicSeconds() - t0);
      }
      {
        const double t0 = obs::MonotonicSeconds();
        (void)msbi.Select(pixels).ValueOrDie();
        harness.RecordStageSeconds(prefix + ".msbi_select",
                                   obs::MonotonicSeconds() - t0);
      }
    }
    double msbo_seconds = msbo_hist.sum();
    double msbi_seconds = msbi_hist.sum();

    // ODIN-Select: cluster assignment on every stream frame.
    const conformal::DistributionProfile& encoder =
        *bench->registry.at(0).profile;
    baseline::OdinDetect odin(
        baseline::OdinConfig{},
        static_cast<int>(
            encoder.Encode(bench->training_frames[0][0].pixels).size()));
    for (int i = 0; i < m; ++i) {
      std::vector<std::vector<float>> latents;
      for (const video::Frame& f :
           bench->training_frames[static_cast<size_t>(i)]) {
        latents.push_back(encoder.Encode(f.pixels));
      }
      odin.AddPermanentCluster(latents, i);
    }
    video::StreamGenerator stream = bench->dataset.MakeStream();
    video::Frame frame;
    while (stream.Next(&frame)) {
      const double t0 = obs::MonotonicSeconds();
      std::vector<float> z = encoder.Encode(frame.pixels);
      odin.Observe(z);
      harness.RecordStageSeconds(prefix + ".odin_frame",
                                 obs::MonotonicSeconds() - t0);
    }
    double odin_seconds = odin_hist.sum();

    char ref[96];
    std::snprintf(ref, sizeof(ref), "%.2f / %.2f / %.1f", paper.msbo,
                  paper.msbi, paper.odin);
    table.AddRow({paper.dataset, std::to_string(m),
                  benchutil::Fmt(msbo_seconds, 3),
                  benchutil::Fmt(msbi_seconds, 3),
                  benchutil::Fmt(odin_seconds, 3), ref});
  }
  table.Print();
  benchutil::PrintMetricsTable(obs::Global());
  benchutil::EmitMetricsJson(obs::Global(), nullptr, nullptr,
                             "metrics_table8.json");
  harness.WriteReport();
  return 0;
}
