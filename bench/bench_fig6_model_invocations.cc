// Figure 6 — Model invocations per frame on BDD, Detrac, and Tokyo.
//
// MSBO and MSBI deploy exactly one model per frame after each drift; ODIN-
// Select assigns each frame to one or more clusters, invoking an ensemble
// when several accept. The paper reports exactly 1.0 invocations/frame for
// MSBO/MSBI everywhere and >1 for ODIN on overlapping sequences (e.g.
// 3.7% of BDD Night frames run a 2-model ensemble).

#include <cstdio>

#include "benchutil/table.h"
#include "benchutil/workbench.h"
#include "pipeline/pipeline.h"
#include "pipeline/provision.h"
#include "video/stream.h"

int main() {
  using namespace vdrift;
  benchutil::Banner("Figure 6: model invocations per frame");
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
    pipeline::PipelineMetrics msbo_metrics = msbo.Run(&s1).ValueOrDie();

    pipeline::PipelineConfig msbi_config = msbo_config;
    msbi_config.selector = pipeline::PipelineConfig::Selector::kMsbi;
    video::StreamGenerator s2 = bench->dataset.MakeStream();
    pipeline::DriftAwarePipeline msbi(&bench->registry,
                                      bench->calibration_samples,
                                      msbi_config);
    pipeline::PipelineMetrics msbi_metrics = msbi.Run(&s2).ValueOrDie();

    pipeline::PipelineConfig odin_config;
    odin_config.detector = pipeline::PipelineConfig::Detector::kOdin;
    video::StreamGenerator s3 = bench->dataset.MakeStream();
    pipeline::DriftAwarePipeline odin(
        &bench->registry,
        pipeline::LabelAll(bench->training_frames,
                           options.provision.count_classes),
        odin_config);
    pipeline::PipelineMetrics odin_metrics = odin.Run(&s3).ValueOrDie();

    benchutil::Table table(
        {"Sequence", "MSBO inv/frame", "MSBI inv/frame", "ODIN inv/frame"});
    for (int seq = 0; seq < bench->registry.size(); ++seq) {
      table.AddRow(
          {bench->registry.at(seq).name,
           benchutil::Fmt(msbo_metrics.per_sequence[seq].InvocationsPerFrame(),
                          3),
           benchutil::Fmt(msbi_metrics.per_sequence[seq].InvocationsPerFrame(),
                          3),
           benchutil::Fmt(odin_metrics.per_sequence[seq].InvocationsPerFrame(),
                          3)});
    }
    std::printf("\n[%s]  (paper: MSBO/MSBI exactly 1.0; ODIN > 1 where "
                "clusters overlap)\n",
                dataset);
    table.Print();
  }
  return 0;
}
