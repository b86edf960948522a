// Table 9 — End-to-end time performance (seconds).
//
// Full streams processed by five systems: (DI, MSBO), (DI, MSBI),
// (ODIN-Detect, ODIN-Select), YOLOv7 (drift-oblivious wide detector), and
// Mask R-CNN (annotation oracle with a heavy per-frame workload). Paper:
// BDD 278.4 / 295.8 / 1400.6 / 1231 / 10680 — the proposed pipelines ~3x
// faster than ODIN, ~4x faster than YOLO, an order of magnitude faster
// than Mask R-CNN; the same ordering is the reproduced shape here.
//
// Runs on the BenchHarness: VDRIFT_BENCH_{SMOKE,DATASET,LEDGER} steer
// the run and one table9_end_to_end ledger record is appended. Each
// system contributes an `<ds>.<system>.total` stage plus its per-frame
// detect/select/query histograms, when it recorded any, as
// `<ds>.<system>.{detect,select,query}` stages.

#include <cstdio>
#include <string>

#include "benchutil/bench_harness.h"
#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "fault/fault.h"
#include "fault/faulty_stream.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "stats/rng.h"
#include "video/stream.h"

namespace {

using vdrift::benchutil::BenchHarness;
using vdrift::pipeline::PipelineMetrics;

struct PaperRow {
  const char* dataset;
  double msbo;
  double msbi;
  double odin;
  double yolo;
  double mask;
};

constexpr PaperRow kPaper[] = {
    {"BDD", 278.4, 295.8, 1400.6, 1231.0, 10680.0},
    {"Detrac", 105.6, 116.8, 682.6, 462.0, 4005.0},
    {"Tokyo", 169.2, 178.0, 950.1, 692.0, 6007.5}};

/// Simulated Mask R-CNN per-frame workload (dense GEMM side): sized so the
/// oracle lands roughly an order of magnitude above the DI+MS pipelines,
/// as in the paper's GPU numbers.
constexpr int kOracleWorkDim = 220;

// Folds one run into the report: the end-to-end total plus the pipeline's
// own per-frame stage histograms when it recorded any.
void Absorb(BenchHarness* harness, const std::string& prefix,
            const PipelineMetrics& metrics) {
  harness->RecordStageSeconds(prefix + ".total", metrics.total_seconds);
  const std::pair<const char*, const char*> kStages[] = {
      {"vdrift.pipeline.detect_seconds", ".detect"},
      {"vdrift.pipeline.select_seconds", ".select"},
      {"vdrift.pipeline.query_seconds", ".query"},
  };
  auto histograms = metrics.registry->Histograms();
  for (const auto& [source, suffix] : kStages) {
    auto it = histograms.find(source);
    if (it != histograms.end() && it->second.count > 0) {
      harness->ImportStage(prefix + suffix, it->second);
    }
  }
}

}  // namespace

int main() {
  using namespace vdrift;
  benchutil::Banner("Table 9: end-to-end time (s), count-query workload");
  benchutil::BenchHarness harness("table9_end_to_end");
  benchutil::WorkbenchOptions options = harness.MakeWorkbenchOptions();
  benchutil::Table table({"Dataset", "(DI,MSBO)", "(DI,MSBI)", "ODIN", "YOLO",
                          "MaskRCNN", "paper"});
  for (const PaperRow& paper : kPaper) {
    if (!harness.ShouldRunDataset(paper.dataset)) continue;
    auto bench =
        benchutil::BuildWorkbench(paper.dataset, options).ValueOrDie();
    std::string ds = paper.dataset;

    pipeline::PipelineConfig msbo_config;
    msbo_config.selector = pipeline::PipelineConfig::Selector::kMsbo;
    msbo_config.allow_training_new = false;
    msbo_config.provision = options.provision;
    video::StreamGenerator s1 = bench->dataset.MakeStream();
    // VDRIFT_FAULT_SPEC arms the fault harness on the MSBO run: the stream
    // gains the frame-level faults and the selector/annotator injection
    // points roll the same injector's dice. Unset (the default) leaves the
    // run untouched — the injector is never consulted.
    fault::FaultPlan fault_plan = fault::FaultPlan::FromEnv();
    fault::FaultInjector injector(fault_plan, options.seed);
    fault::FaultyStream faulty1(&s1, &injector);
    video::FrameSource* msbo_stream = &s1;
    if (!fault_plan.empty()) {
      msbo_config.injector = &injector;
      msbo_stream = &faulty1;
    }
    pipeline::DriftAwarePipeline msbo(&bench->registry,
                                      bench->calibration_samples,
                                      msbo_config);
    PipelineMetrics msbo_metrics = msbo.Run(msbo_stream).ValueOrDie();
    if (!fault_plan.empty()) {
      const pipeline::DegradationStats& deg = msbo_metrics.degradation;
      std::printf(
          "  [fault] %s msbo: injected=%lld dropped=%lld stream(drop=%lld "
          "dup=%lld stall=%lld) selector(fail=%lld retry=%lld "
          "incumbent=%lld) annotator(defer=%lld err=%lld) oblivious=%d\n",
          ds.c_str(), static_cast<long long>(injector.total_injected()),
          static_cast<long long>(deg.frames_dropped),
          static_cast<long long>(faulty1.dropped()),
          static_cast<long long>(faulty1.duplicated()),
          static_cast<long long>(faulty1.stalls()),
          static_cast<long long>(deg.selector_failures),
          static_cast<long long>(deg.selector_retries),
          static_cast<long long>(deg.incumbent_fallbacks),
          static_cast<long long>(deg.annotator_deferrals),
          static_cast<long long>(deg.annotator_errors),
          deg.drift_oblivious ? 1 : 0);
    }
    Absorb(&harness, ds + ".msbo", msbo_metrics);
    double msbo_s = msbo_metrics.total_seconds;

    // The other four rows run the same loop on a fresh stream each.
    auto run = [&](const std::string& system, select::ModelRegistry* registry,
                   std::vector<std::vector<select::LabeledFrame>> samples,
                   const pipeline::PipelineConfig& config) {
      video::StreamGenerator stream = bench->dataset.MakeStream();
      pipeline::DriftAwarePipeline row(registry, std::move(samples), config);
      PipelineMetrics metrics = row.Run(&stream).ValueOrDie();
      Absorb(&harness, ds + "." + system, metrics);
      return metrics.total_seconds;
    };
    pipeline::PipelineConfig msbi_config = msbo_config;
    msbi_config.selector = pipeline::PipelineConfig::Selector::kMsbi;
    double msbi_s = run("msbi", &bench->registry, bench->calibration_samples,
                        msbi_config);

    pipeline::PipelineConfig odin_config;
    odin_config.detector = pipeline::PipelineConfig::Detector::kOdin;
    double odin_s = run("odin", &bench->registry,
                        pipeline::LabelAll(bench->training_frames,
                                           options.provision.count_classes),
                        odin_config);

    stats::Rng rng(404);
    detect::ClassifierTrainConfig tc;
    tc.epochs = 8;
    select::ModelRegistry yolo;
    yolo.Add(pipeline::ProvisionDetector("YOLO", bench->training_frames[0],
                                         tc, &rng)
                 .ValueOrDie());
    pipeline::PipelineConfig yolo_config;
    yolo_config.detector = pipeline::PipelineConfig::Detector::kNone;
    double yolo_s = run("yolo", &yolo, {}, yolo_config);

    pipeline::PipelineConfig mask_config = yolo_config;
    mask_config.oracle_queries = true;
    mask_config.oracle_work_dim = kOracleWorkDim;
    mask_config.run_predicate = true;  // the oracle labels both queries
    double mask_s = run("mask_rcnn", &bench->registry, {}, mask_config);

    harness.SetPrimaryStage(ds + ".msbi.detect");

    char ref[128];
    std::snprintf(ref, sizeof(ref), "%.0f/%.0f/%.0f/%.0f/%.0f", paper.msbo,
                  paper.msbi, paper.odin, paper.yolo, paper.mask);
    table.AddRow({paper.dataset, benchutil::Fmt(msbo_s, 2),
                  benchutil::Fmt(msbi_s, 2), benchutil::Fmt(odin_s, 2),
                  benchutil::Fmt(yolo_s, 2), benchutil::Fmt(mask_s, 2), ref});
  }
  table.Print();
  std::printf("\nShape check: (DI,MSBO) <= (DI,MSBI) < ODIN ~ YOLO << "
              "MaskRCNN\n");
  harness.WriteReport();
  return 0;
}
