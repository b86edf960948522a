#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/workbench.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "timed_source.h"

namespace perfbench {

/// \brief One named workload: which pipeline runs over which streams.
struct WorkloadSpec {
  std::string name;
  std::string dataset;  ///< Workbench whose provisioned models are served.
  int threads = 1;      ///< VDRIFT_THREADS of the process.
  bool fleet = false;   ///< serve::DriftFleet instead of one pipeline.
  vdrift::pipeline::PipelineConfig::Selector selector =
      vdrift::pipeline::PipelineConfig::Selector::kMsbi;
  bool allow_training_new = false;
  int streams = 1;
  int64_t segment_frames = 0;  ///< Length of every stationary segment.
  int segments = 0;            ///< Segments per stream.
};

/// The benchmark's workloads, at full or smoke (seconds-scale) size.
std::vector<WorkloadSpec> Workloads(bool smoke);

/// Workbench recipe of the benchmark: the repository's bench defaults with
/// the fixed workbench seed, or the harness's smoke sizes.
vdrift::benchutil::WorkbenchOptions BenchWorkbenchOptions(
    bool smoke, const std::string& cache_dir);

/// Per-op deltas of the always-on `vdrift.ops.<scope>.<op>.*` probes.
struct OpDelta {
  int64_t calls = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  double seconds = 0.0;  ///< Only non-zero while kernel profiling is on.
};

/// \brief Everything one stream left behind in one pass.
struct StreamPass {
  std::string label;
  /// TimedSource stamps (see there).
  std::vector<double> calls, returns;
  std::vector<TimedSource::SliceMark> slice_marks;
  int resets = 0;
  /// Ground truth of the rendered stream: first frame and scene name of
  /// every segment.
  std::vector<int64_t> segment_starts;
  std::vector<std::string> segment_names;
  int64_t total_frames = 0;
  vdrift::pipeline::PipelineMetrics metrics;
  bool run_ok = true;
  std::string status;  ///< Failure text when !run_ok.
  int64_t quarantined_frames = 0;
  /// Seconds inside Run over the pass (the set-up Run excluded).
  double run_s = 0.0;
  /// The stream's `vdrift.pipeline.*_seconds` histograms over the pass.
  vdrift::obs::Histogram::Snapshot detect, select, query;
};

/// \brief One pass: set up the workload, then serve every stream to its end.
struct Pass {
  /// True when the pass loaded the workbench itself; otherwise it reused
  /// the previous pass's and `setup_s` covers only building the pipeline
  /// or fleet.
  bool full_setup = false;
  double setup_s = 0.0;
  double serve_start = 0.0;
  double serve_s = 0.0;  ///< Wall time of the serving loop.
  bool traced = false;
  bool loaded_from_cache = false;
  /// Scene names the workbench provisioned a model for.
  std::vector<std::string> provisioned;
  std::vector<StreamPass> streams;
  /// Fleet report (zero for a single pipeline).
  int64_t rounds = 0;
  int64_t backpressure_waits = 0;
  int64_t published = 0;
  int64_t adopted = 0;
  int64_t restarts = 0;
  bool halted_or_resumed = false;
  /// Labeled-series check: every fleet {stream=...} counter family sums to
  /// its unlabeled aggregate (empty when it does, or for one pipeline).
  std::string label_sum_error;
  std::map<std::string, OpDelta> ops;  ///< "tensor.matmul" -> delta.
};

struct PassContext {
  uint64_t seed = 0;
  bool smoke = false;
  bool traced = false;
  std::string cache_dir;
  std::string scratch_dir;  ///< Fleet checkpoints and manifest.
  double setup_origin = 0.0;  ///< Set-up clock start (process start for pass 0).
};

/// Runs one pass of `spec`, loading the workbench from the model cache into
/// `*bench` first when it is null. Fails only on wiring errors; stream
/// failures are recorded in the pass and judged by the caller's checks.
vdrift::Result<Pass> RunPass(
    const WorkloadSpec& spec, const PassContext& ctx,
    std::unique_ptr<vdrift::benchutil::Workbench>* bench);

/// Op-probe totals of the process-wide registry, keyed "<scope>.<op>".
std::map<std::string, OpDelta> ReadOps();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
