#ifndef VDRIFT_BENCHUTIL_BENCH_HARNESS_H_
#define VDRIFT_BENCHUTIL_BENCH_HARNESS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "benchutil/ledger.h"
#include "benchutil/workbench.h"
#include "obs/metrics.h"

namespace vdrift::benchutil {

/// \brief Resolved run parameters of one bench process.
///
/// Filled from the environment (common/env.h readers) so CI,
/// tools/run_bench_suite.sh and ad-hoc shells all steer benches the same
/// way:
///   VDRIFT_BENCH_SMOKE    flag => 1 repeat, no warmup, tiny workbench,
///                         dataset filter defaults to "Tokyo"
///   VDRIFT_BENCH_DATASET  only run datasets whose name matches exactly
///   VDRIFT_BENCH_LEDGER   run-ledger sink: a .jsonl file, or a directory
///                         (record appends to <dir>/<name>.jsonl). Unset =
///                         bench_<name>.jsonl in the working directory.
/// repeats, warmup and seed are fixed defaults (smoke shrinks the first
/// two); the ledger record carries all three.
struct BenchConfig {
  std::string name;
  int repeats = 5;
  int warmup = 1;
  uint64_t seed = 9001;
  bool smoke = false;
  std::string dataset_filter;  ///< Empty = run every dataset.
  std::string ledger_path;     ///< Resolved ledger file the record joins.
};

/// Keeps `value` observable so benchmarked expressions are not dead-code
/// eliminated (the classic empty-asm sink).
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// \brief The unified bench driver behind every bench run record.
///
/// One harness per bench binary. Stages are named latency histograms
/// (seconds); each run appends one LedgerRecord — per-stage quantiles and
/// raw repeat-level samples, the per-kernel op-probe table, the resolved
/// env knobs, the machine fingerprint and the git revision — to the run
/// ledger, the history tools/compare_bench.py gates regressions on.
class BenchHarness {
 public:
  explicit BenchHarness(const std::string& name);

  const BenchConfig& config() const { return config_; }
  /// The harness-local registry stage histograms live in; hand it to
  /// TraceSpan/ScopedTimer to record straight into a stage.
  obs::MetricsRegistry& registry() { return registry_; }

  /// True when `dataset` passes the configured filter.
  bool ShouldRunDataset(const std::string& dataset) const;
  /// Workbench options honouring the bench seed; smoke mode shrinks the
  /// dataset/training scale to seconds and uses a separate cache dir.
  WorkbenchOptions MakeWorkbenchOptions() const;

  /// The latency histogram of `stage` (registered on first use).
  obs::Histogram& StageHistogram(const std::string& stage);
  void RecordStageSeconds(const std::string& stage, double seconds);
  /// Runs `fn` config().warmup times unmeasured, then config().repeats
  /// times with wall time recorded into `stage`.
  void Repeat(const std::string& stage, const std::function<void()>& fn);
  /// Merges an externally collected histogram (e.g. a pipeline run's
  /// per-stage timings) into `stage`. Bucket layouts must match across
  /// imports of the same stage.
  void ImportStage(const std::string& stage,
                   const obs::Histogram::Snapshot& snapshot);

  /// The stage whose fps becomes the record's headline throughput_fps.
  /// Unset => the stage with the highest sample count.
  void SetPrimaryStage(const std::string& stage);
  /// Overrides the derived headline throughput.
  void SetThroughputFps(double fps);

  /// This run's ledger record: stages and kernels in sorted key order,
  /// env "threads" as the runtime resolved it.
  LedgerRecord MakeLedgerRecord() const;
  /// Appends MakeLedgerRecord() to config().ledger_path and prints where it
  /// went. Returns that path (empty on failure, with the error printed).
  std::string WriteReport() const;

  /// Raw repeat-level samples recorded for `stage` ([] when the stage was
  /// only imported from a histogram).
  const std::vector<double>& StageSamples(const std::string& stage) const;

 private:
  std::map<std::string, obs::Histogram::Snapshot> MergedStages() const;

  BenchConfig config_;
  obs::MetricsRegistry registry_;
  std::map<std::string, obs::Histogram::Snapshot> imported_;
  /// Raw per-repeat wall times per stage, in execution order (bounded per
  /// stage; see kMaxRawSamplesPerStage in the .cc).
  std::map<std::string, std::vector<double>> samples_;
  std::string primary_stage_;
  double throughput_override_ = -1.0;
};

/// The git revision baked into records: VDRIFT_GIT_REV when set, otherwise
/// `git rev-parse --short=12 HEAD`, otherwise "unknown".
std::string GitRevision();

}  // namespace vdrift::benchutil

#endif  // VDRIFT_BENCHUTIL_BENCH_HARNESS_H_
