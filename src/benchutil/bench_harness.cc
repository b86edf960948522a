#include "benchutil/bench_harness.h"

#include <cstdio>
#include <ctime>

#include "common/env.h"
#include "common/logging.h"
#include "obs/timer.h"
#include "obs/trace_log.h"
#include "runtime/parallel.h"

namespace vdrift::benchutil {

namespace {

/// Raw repeat-level samples kept per stage. Repeat()-driven stages record
/// a handful; this bound only matters when a caller routes per-frame
/// timings through RecordStageSeconds — the summary histogram stays
/// exact, the raw tail is dropped.
constexpr size_t kMaxRawSamplesPerStage = 4096;

void MergeSnapshot(obs::Histogram::Snapshot* into,
                   const obs::Histogram::Snapshot& from) {
  if (from.count == 0) return;
  if (into->count == 0) {
    *into = from;
    return;
  }
  if (into->buckets.size() == from.buckets.size()) {
    for (size_t i = 0; i < from.buckets.size(); ++i) {
      into->buckets[i] += from.buckets[i];
    }
  } else {
    // Layout mismatch: quantiles of the merge are undefined, but totals
    // stay exact — keep them and say so rather than silently dropping.
    VDRIFT_LOG_WARNING
        << "merging stage snapshots with different bucket layouts; "
           "quantiles reflect only the first layout";
  }
  into->count += from.count;
  into->sum += from.sum;
  if (from.min < into->min) into->min = from.min;
  if (from.max > into->max) into->max = from.max;
}

/// The headline throughput: an explicit override wins, else the primary
/// stage's fps, else the fps of the busiest stage.
double HeadlineThroughput(
    const std::map<std::string, obs::Histogram::Snapshot>& stages,
    const std::string& primary_stage, double override_fps) {
  if (override_fps >= 0.0) return override_fps;
  const obs::Histogram::Snapshot* headline = nullptr;
  auto primary = stages.find(primary_stage);
  if (!primary_stage.empty() && primary != stages.end()) {
    headline = &primary->second;
  } else {
    for (const auto& [name, snap] : stages) {
      if (headline == nullptr || snap.count > headline->count) {
        headline = &snap;
      }
    }
  }
  if (headline == nullptr || headline->count == 0 || headline->sum <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(headline->count) / headline->sum;
}

}  // namespace

std::string GitRevision() {
  std::string rev = env::String("VDRIFT_GIT_REV");
  if (!rev.empty()) return rev;
  FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      rev = buf;
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
    }
    ::pclose(pipe);
  }
  return rev.empty() ? "unknown" : rev;
}

BenchHarness::BenchHarness(const std::string& name) {
  config_.name = name;
  config_.smoke = env::Flag("VDRIFT_BENCH_SMOKE");
  if (config_.smoke) {
    // Smoke mode is a liveness gate for CI, not a measurement: one pass,
    // no warmup, and the smallest dataset unless told otherwise.
    config_.repeats = 1;
    config_.warmup = 0;
    config_.dataset_filter = "Tokyo";
  }
  config_.dataset_filter =
      env::String("VDRIFT_BENCH_DATASET", config_.dataset_filter);
  // A .jsonl path is the ledger file itself; anything else is a directory
  // holding one ledger per bench.
  const std::string suffix = ".jsonl";
  std::string ledger =
      env::String("VDRIFT_BENCH_LEDGER", "bench_" + name + suffix);
  bool is_file = ledger.size() > suffix.size() &&
                 ledger.compare(ledger.size() - suffix.size(), suffix.size(),
                                suffix) == 0;
  config_.ledger_path = is_file ? ledger : ledger + "/" + name + suffix;
}

bool BenchHarness::ShouldRunDataset(const std::string& dataset) const {
  return config_.dataset_filter.empty() || config_.dataset_filter == dataset;
}

WorkbenchOptions BenchHarness::MakeWorkbenchOptions() const {
  WorkbenchOptions options = DefaultWorkbenchOptions();
  options.seed = config_.seed;
  if (config_.smoke) {
    // Seconds-scale training: tiny streams (Scaled() floors each sequence
    // at 64 frames), shallow models, and a cache dir of its own so smoke
    // artifacts never shadow full-scale ones.
    options.dataset_scale = 0.002;
    options.train_frames = 48;
    options.calibration_sample = 8;
    options.provision.profile.sigma_size = 64;
    options.provision.profile.trainer.epochs = 2;
    options.provision.classifier_train.epochs = 2;
    options.provision.ensemble_size = 2;
    options.provision.classifier_filters = 6;
    options.cache_dir = "vdrift_cache_smoke";
  }
  return options;
}

obs::Histogram& BenchHarness::StageHistogram(const std::string& stage) {
  return registry_.GetHistogram(stage);
}

void BenchHarness::RecordStageSeconds(const std::string& stage,
                                      double seconds) {
  StageHistogram(stage).Record(seconds);
  std::vector<double>& raw = samples_[stage];
  if (raw.size() < kMaxRawSamplesPerStage) raw.push_back(seconds);
}

void BenchHarness::Repeat(const std::string& stage,
                          const std::function<void()>& fn) {
  for (int i = 0; i < config_.warmup; ++i) fn();
  for (int i = 0; i < config_.repeats; ++i) {
    double start = obs::MonotonicSeconds();
    fn();
    RecordStageSeconds(stage, obs::MonotonicSeconds() - start);
  }
}

void BenchHarness::ImportStage(const std::string& stage,
                               const obs::Histogram::Snapshot& snapshot) {
  MergeSnapshot(&imported_[stage], snapshot);
}

void BenchHarness::SetPrimaryStage(const std::string& stage) {
  primary_stage_ = stage;
}

void BenchHarness::SetThroughputFps(double fps) {
  throughput_override_ = fps;
}

std::map<std::string, obs::Histogram::Snapshot> BenchHarness::MergedStages()
    const {
  // Assemble the full stage map: harness histograms plus imported
  // snapshots (std::map keeps every level in sorted key order, the
  // stability contract tools/compare_bench.py and tests rely on).
  std::map<std::string, obs::Histogram::Snapshot> stages;
  for (const auto& [name, snap] : registry_.Histograms()) {
    stages[name] = snap;
  }
  for (const auto& [name, snap] : imported_) {
    MergeSnapshot(&stages[name], snap);
  }
  return stages;
}

const std::vector<double>& BenchHarness::StageSamples(
    const std::string& stage) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(stage);
  return it == samples_.end() ? kEmpty : it->second;
}

LedgerRecord BenchHarness::MakeLedgerRecord() const {
  LedgerRecord record;
  record.bench = config_.name;
  record.git_rev = GitRevision();
  // vdrift-lint: allow(no-ambient-nondeterminism): run provenance stamp,
  // never fed back into any computation.
  record.unix_time = static_cast<int64_t>(::time(nullptr));
  record.machine = MachineFingerprint::Detect();
  record.env["dataset_filter"] = config_.dataset_filter;
  record.env["kernel_profile"] =
      obs::KernelProfilingEnabled() ? "1" : "0";
  record.env["repeats"] = std::to_string(config_.repeats);
  record.env["seed"] = std::to_string(config_.seed);
  record.env["smoke"] = config_.smoke ? "1" : "0";
  // The count the pool runs, not the raw knob: unset or 0 both mean
  // "every hardware thread".
  record.env["threads"] = std::to_string(runtime::CurrentPool().threads());
  record.env["warmup"] = std::to_string(config_.warmup);

  std::map<std::string, obs::Histogram::Snapshot> stages = MergedStages();
  for (const auto& [name, snap] : stages) {
    LedgerStage& stage = record.stages[name];
    stage.count = snap.count;
    stage.sum = snap.sum;
    if (snap.count > 0) {
      stage.min = snap.min;
      stage.max = snap.max;
      stage.p50 = snap.Quantile(0.50);
      stage.p90 = snap.Quantile(0.90);
      stage.p99 = snap.Quantile(0.99);
    }
    stage.samples = StageSamples(name);
  }
  record.kernels = CollectKernelStats(obs::Global());
  record.throughput_fps =
      HeadlineThroughput(stages, primary_stage_, throughput_override_);
  return record;
}

std::string BenchHarness::WriteReport() const {
  Status status = AppendLedgerRecord(config_.ledger_path, MakeLedgerRecord());
  if (!status.ok()) {
    std::fprintf(stderr, "bench record not written: %s\n",
                 status.ToString().c_str());
    return "";
  }
  std::printf("bench record appended to %s\n", config_.ledger_path.c_str());
  return config_.ledger_path;
}

}  // namespace vdrift::benchutil
