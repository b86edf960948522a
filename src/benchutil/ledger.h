#ifndef VDRIFT_BENCHUTIL_LEDGER_H_
#define VDRIFT_BENCHUTIL_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace vdrift::benchutil {

/// \brief Where a bench run happened: the provenance fields that decide
/// whether two perf numbers are comparable at all.
///
/// PR 5's 28% msbo_select swing and PR 7's classifier_predict false
/// positive were both machine/layout effects, not code changes — a verdict
/// without the machine identity attached is a guess. The fingerprint is
/// recorded in every ledger record; the statistical gate
/// (tools/compare_bench.py) warns when it compares across fingerprints.
struct MachineFingerprint {
  std::string cpu_model;  ///< /proc/cpuinfo "model name" (or "unknown").
  int cores = 0;          ///< std::thread::hardware_concurrency().
  std::string governor;   ///< cpufreq scaling_governor (or "unknown").
  long page_size = 0;     ///< sysconf(_SC_PAGESIZE).

  /// Reads the identity of the machine we are running on.
  static MachineFingerprint Detect();
  /// Parses the "machine" object of a ledger record.
  static MachineFingerprint FromJson(const obs::json::Value& value);

  /// Short stable content hash of the fields — the id two runs must share
  /// for their latencies to be comparable.
  std::string Id() const;
  /// {"cores":...,"cpu_model":"...","governor":"...","id":"...",
  ///  "page_size":...} (sorted keys).
  std::string ToJson() const;

  bool operator==(const MachineFingerprint& other) const {
    return cpu_model == other.cpu_model && cores == other.cores &&
           governor == other.governor && page_size == other.page_size;
  }
};

/// Per-stage latency evidence of one run. `samples` holds the raw
/// repeat-level wall times (seconds, in execution order) when the stage
/// was driven by BenchHarness::Repeat / RecordStageSeconds — the unit the
/// statistical gate bootstraps over. Histogram-imported stages (per-frame
/// timers) carry only the summary; their repeat dimension is the ledger
/// history itself.
struct LedgerStage {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> samples;
};

/// Per-kernel op-probe attribution of one run (from the global
/// vdrift.ops.<scope>.<op>.{calls,flops,bytes} counters and .seconds
/// histogram). `seconds` is 0 when kernel profiling was off for the run.
struct LedgerKernel {
  int64_t calls = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  double seconds = 0.0;
};

/// \brief One appended line of a bench run ledger.
///
/// Every harness run appends one record (BenchHarness::WriteReport), so the
/// ledger accumulates the run-to-run distribution a single committed
/// baseline cannot express: the statistical gate estimates machine noise
/// from this history instead of trusting any single run.
struct LedgerRecord {
  int schema = 1;
  std::string bench;    ///< Harness name, e.g. "table6_detection_time".
  std::string git_rev;
  int64_t unix_time = 0;  ///< Wall-clock provenance (0 = unknown).
  MachineFingerprint machine;
  /// Resolved env knobs of the run (threads, smoke, repeats, warmup,
  /// seed, dataset_filter, kernel_profile).
  std::map<std::string, std::string> env;
  std::map<std::string, LedgerStage> stages;
  std::map<std::string, LedgerKernel> kernels;
  double throughput_fps = 0.0;

  /// One JSON line, sorted keys, no trailing newline.
  std::string ToJsonLine() const;
  static Result<LedgerRecord> FromJson(const obs::json::Value& value);
  static Result<LedgerRecord> FromJsonLine(const std::string& line);
};

/// A parsed ledger file. Corrupt lines (torn appends, truncation) are
/// skipped and counted, never fatal — a crash mid-append must not brick
/// the history.
struct LedgerHistory {
  std::vector<LedgerRecord> records;
  int corrupt_lines = 0;
};

/// Appends `record` as one line to `path`, creating parent directories as
/// needed. Appends are line-atomic in practice (single write + newline).
[[nodiscard]] Status AppendLedgerRecord(const std::string& path,
                                        const LedgerRecord& record);

/// Reads every parsable record of `path` (see LedgerHistory for the
/// corrupt-line contract). Missing file is an error.
Result<LedgerHistory> ReadLedger(const std::string& path);

/// Harvests per-kernel stats from `registry`'s vdrift.ops.* instruments,
/// keyed "<scope>.<op>".
std::map<std::string, LedgerKernel> CollectKernelStats(
    const obs::MetricsRegistry& registry);

}  // namespace vdrift::benchutil

#endif  // VDRIFT_BENCHUTIL_LEDGER_H_
