// Figure 8 — Spatial-constrained query accuracy on BDD.
//
// The query predicate is "bus is on the left side of a car"; A_q is the
// fraction of frames where the deployed predicate classifier matches the
// oracle truth. Paper: (DI,MSBO) outperforms ODIN by ~20% on every BDD
// sequence while being ~3x faster end to end.

#include <cstdio>

#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "stats/rng.h"
#include "video/stream.h"

int main() {
  using namespace vdrift;
  benchutil::Banner(
      "Figure 8: spatial query (bus left of car) accuracy on BDD");
  benchutil::WorkbenchOptions options = benchutil::DefaultWorkbenchOptions();
  auto bench = benchutil::BuildWorkbench("BDD", options).ValueOrDie();

  pipeline::PipelineConfig msbo_config;
  msbo_config.selector = pipeline::PipelineConfig::Selector::kMsbo;
  msbo_config.allow_training_new = false;
  msbo_config.provision = options.provision;
  msbo_config.run_predicate = true;
  video::StreamGenerator s1 = bench->dataset.MakeStream();
  pipeline::DriftAwarePipeline msbo(&bench->registry,
                                    bench->calibration_samples, msbo_config);
  pipeline::PipelineMetrics m_msbo = msbo.Run(&s1).ValueOrDie();

  // The other four rows run the same loop on a fresh stream each.
  auto run = [&](select::ModelRegistry* registry,
                 std::vector<std::vector<select::LabeledFrame>> samples,
                 const pipeline::PipelineConfig& config) {
    video::StreamGenerator stream = bench->dataset.MakeStream();
    pipeline::DriftAwarePipeline row(registry, std::move(samples), config);
    return row.Run(&stream).ValueOrDie();
  };
  pipeline::PipelineConfig msbi_config = msbo_config;
  msbi_config.selector = pipeline::PipelineConfig::Selector::kMsbi;
  pipeline::PipelineMetrics m_msbi =
      run(&bench->registry, bench->calibration_samples, msbi_config);

  pipeline::PipelineConfig odin_config;
  odin_config.detector = pipeline::PipelineConfig::Detector::kOdin;
  odin_config.run_predicate = true;
  pipeline::PipelineMetrics m_odin =
      run(&bench->registry,
          pipeline::LabelAll(bench->training_frames,
                             options.provision.count_classes),
          odin_config);

  stats::Rng rng(606);
  detect::ClassifierTrainConfig tc;
  tc.epochs = 10;
  select::ModelRegistry yolo;
  yolo.Add(pipeline::ProvisionDetector("YOLO", bench->training_frames[0], tc,
                                       &rng)
               .ValueOrDie());
  pipeline::PipelineConfig yolo_config;
  yolo_config.detector = pipeline::PipelineConfig::Detector::kNone;
  yolo_config.run_predicate = true;
  pipeline::PipelineMetrics m_yolo = run(&yolo, {}, yolo_config);

  pipeline::PipelineConfig mask_config = yolo_config;
  mask_config.oracle_queries = true;
  pipeline::PipelineMetrics m_mask = run(&bench->registry, {}, mask_config);

  benchutil::Table table(
      {"Sequence", "(DI,MSBO)", "(DI,MSBI)", "ODIN", "YOLO", "MaskRCNN"});
  for (int seq = 0; seq < bench->registry.size(); ++seq) {
    table.AddRow(
        {bench->registry.at(seq).name,
         benchutil::Fmt(m_msbo.per_sequence[seq].PredicateAq(), 3),
         benchutil::Fmt(m_msbi.per_sequence[seq].PredicateAq(), 3),
         benchutil::Fmt(m_odin.per_sequence[seq].PredicateAq(), 3),
         benchutil::Fmt(m_yolo.per_sequence[seq].PredicateAq(), 3),
         benchutil::Fmt(m_mask.per_sequence[seq].PredicateAq(), 3)});
  }
  table.Print();
  std::printf("\noverall: MSBO %.3f vs ODIN %.3f (paper: MSBO ~+20%%)\n",
              m_msbo.Totals().PredicateAq(), m_odin.Totals().PredicateAq());
  return 0;
}
