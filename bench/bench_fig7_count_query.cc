// Figure 7 — Count-query accuracy A_q on BDD, Detrac, and Tokyo.
//
// A_q = fraction of frames where the deployed model's car-count prediction
// matches ground truth, reported per sequence for the five systems. Paper
// findings to reproduce: (DI,MSBO) and (DI,MSBI) beat ODIN by ~40% and
// YOLO by ~50%; Mask R-CNN is the annotation oracle, so its accuracy is
// 1.0 by construction.

#include <cstdio>

#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "stats/rng.h"
#include "video/stream.h"

int main() {
  using namespace vdrift;
  benchutil::Banner("Figure 7: count query accuracy A_q per sequence");
  benchutil::WorkbenchOptions options = benchutil::DefaultWorkbenchOptions();
  for (const char* dataset : {"BDD", "Detrac", "Tokyo"}) {
    auto bench = benchutil::BuildWorkbench(dataset, options).ValueOrDie();

    pipeline::PipelineConfig msbo_config;
    msbo_config.selector = pipeline::PipelineConfig::Selector::kMsbo;
    msbo_config.allow_training_new = false;
    msbo_config.provision = options.provision;
    video::StreamGenerator s1 = bench->dataset.MakeStream();
    pipeline::DriftAwarePipeline msbo(&bench->registry,
                                      bench->calibration_samples,
                                      msbo_config);
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
    pipeline::PipelineMetrics m_odin =
        run(&bench->registry,
            pipeline::LabelAll(bench->training_frames,
                               options.provision.count_classes),
            odin_config);

    stats::Rng rng(505);
    detect::ClassifierTrainConfig tc;
    tc.epochs = 10;
    select::ModelRegistry yolo;
    yolo.Add(pipeline::ProvisionDetector("YOLO", bench->training_frames[0],
                                         tc, &rng)
                 .ValueOrDie());
    pipeline::PipelineConfig yolo_config;
    yolo_config.detector = pipeline::PipelineConfig::Detector::kNone;
    pipeline::PipelineMetrics m_yolo = run(&yolo, {}, yolo_config);

    pipeline::PipelineConfig mask_config = yolo_config;
    mask_config.oracle_queries = true;
    mask_config.run_predicate = true;  // the oracle labels both queries
    pipeline::PipelineMetrics m_mask =
        run(&bench->registry, {}, mask_config);

    benchutil::Table table({"Sequence", "(DI,MSBO)", "(DI,MSBI)", "ODIN",
                            "YOLO", "MaskRCNN"});
    for (int seq = 0; seq < bench->registry.size(); ++seq) {
      table.AddRow({bench->registry.at(seq).name,
                    benchutil::Fmt(m_msbo.per_sequence[seq].CountAq(), 3),
                    benchutil::Fmt(m_msbi.per_sequence[seq].CountAq(), 3),
                    benchutil::Fmt(m_odin.per_sequence[seq].CountAq(), 3),
                    benchutil::Fmt(m_yolo.per_sequence[seq].CountAq(), 3),
                    benchutil::Fmt(m_mask.per_sequence[seq].CountAq(), 3)});
    }
    pipeline::SequenceAccuracy t_msbo = m_msbo.Totals();
    pipeline::SequenceAccuracy t_odin = m_odin.Totals();
    pipeline::SequenceAccuracy t_yolo = m_yolo.Totals();
    std::printf("\n[%s]\n", dataset);
    table.Print();
    std::printf("overall: MSBO %.3f vs ODIN %.3f vs YOLO %.3f "
                "(paper: MS ~+40%% over ODIN, ~+50%% over YOLO)\n",
                t_msbo.CountAq(), t_odin.CountAq(), t_yolo.CountAq());
  }
  return 0;
}
