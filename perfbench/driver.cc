// End-to-end benchmark driver: serves one named workload through the public
// pipeline / fleet APIs, checks the outputs, and prints every metric.
//
//   perfbench_driver --workload <steady|churn|fleet_retrain> --seed N
//                    --seconds S --trace <0|1> --cache-dir DIR
//                    [--out-dir DIR] [--build-id ID] [--smoke]
//   perfbench_driver --provision --cache-dir DIR [--smoke]
//
// A measurement repeats passes (set up the workload, serve every stream to
// its end, closed loop) until the measured passes have served for S
// seconds. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 measured passes alternate between traced (kernel
// profiling on, slice clocks read) and untraced, the last line carries the
// per-layer metrics of the traced passes, and
// <out-dir>/<workload>.layers.json keeps them with the stamp.
// perfbench/run.py builds this driver, fills the model cache and runs it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "benchutil/bench_harness.h"
#include "benchutil/ledger.h"
#include "obs/json.h"
#include "timed_source.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace obs = vdrift::obs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool provision = false;
  std::string cache_dir;
  std::string out_dir = ".bench_out";
  std::string build_id = "unknown";
};

// Wall-clock guard: a measurement stops starting passes after this long so
// the process ends well inside its time limit.
constexpr double kMaxMeasureSeconds = 120.0;
// Passes that load the workbench from the model cache themselves; each is
// one set-up sample. Later passes reuse the last workbench and only build a
// fresh pipeline or fleet, so most of a run is spent serving.
constexpr size_t kFullSetups = 3;
constexpr int64_t kSliceFrames = 64;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--provision") {
      args->provision = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--build-id") {
      args->build_id = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->cache_dir.empty()) {
    std::fprintf(stderr, "--cache-dir is required\n");
    return false;
  }
  return true;
}

std::string Marker(const std::string& cache_dir, const std::string& dataset) {
  return cache_dir + "/provisioned_" + dataset;
}

double ReadProvisionColdSeconds(const std::string& cache_dir) {
  std::ifstream in(cache_dir + "/provision_cold_s");
  double seconds = -1.0;
  in >> seconds;
  return seconds;
}

// Trains (or loads) every workload's workbench into the cache and records
// how long that took. Runs before any timed pass.
int Provision(const Args& args) {
  std::set<std::string> datasets;
  for (const WorkloadSpec& spec : Workloads(args.smoke)) {
    datasets.insert(spec.dataset);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.cache_dir, ec);
  double total = 0.0;
  for (const std::string& dataset : datasets) {
    const double start = Now();
    auto bench = vdrift::benchutil::BuildWorkbench(
        dataset, BenchWorkbenchOptions(args.smoke, args.cache_dir));
    if (!bench.ok()) {
      std::fprintf(stderr, "provisioning %s failed: %s\n", dataset.c_str(),
                   bench.status().ToString().c_str());
      return 1;
    }
    const double seconds = Now() - start;
    total += seconds;
    std::ofstream(Marker(args.cache_dir, dataset)) << seconds << "\n";
    std::printf("provisioned %s in %.3f s\n", dataset.c_str(), seconds);
  }
  std::ofstream(args.cache_dir + "/provision_cold_s") << total << "\n";
  return 0;
}

// ---------------------------------------------------------------- stats

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Merges same-layout histogram snapshots (the pipeline's default layout).
obs::Histogram::Snapshot Merge(
    const std::vector<obs::Histogram::Snapshot>& parts) {
  obs::Histogram::Snapshot merged;
  for (const obs::Histogram::Snapshot& part : parts) {
    if (part.count == 0) continue;
    if (merged.count == 0) {
      merged = part;
      continue;
    }
    for (size_t i = 0; i < part.buckets.size() && i < merged.buckets.size();
         ++i) {
      merged.buckets[i] += part.buckets[i];
    }
    merged.count += part.count;
    merged.sum += part.sum;
    merged.min = std::min(merged.min, part.min);
    merged.max = std::max(merged.max, part.max);
  }
  return merged;
}

// ------------------------------------------------------------- episodes

// The truth segment frame `index` belongs to.
size_t SegmentOf(const StreamPass& stream, int64_t index) {
  size_t segment = 0;
  while (segment + 1 < stream.segment_starts.size() &&
         stream.segment_starts[segment + 1] <= index) {
    ++segment;
  }
  return segment;
}

bool IsLearned(const std::string& name) {
  return name.find("learned-") != std::string::npos;
}

// Name prefix of the models stream `stream` trains itself.
std::string OwnPrefix(const StreamPass& stream) {
  return stream.label.empty() ? "learned-" : stream.label + ".learned-";
}

/// One resolved drift episode of one stream.
struct Episode {
  int64_t drift = 0;    ///< Frame DI flagged.
  int64_t closing = 0;  ///< Last frame the recovery (or training) window took.
  bool trained = false;
  std::string selected;
};

std::vector<Episode> Episodes(const StreamPass& stream) {
  // Every workload runs PipelineConfig's default windows.
  const vdrift::pipeline::PipelineConfig defaults;
  std::vector<Episode> episodes;
  std::set<std::string> seen;
  const auto& metrics = stream.metrics;
  const size_t resolved =
      std::min(metrics.drift_frames.size(), metrics.selections.size());
  for (size_t k = 0; k < resolved; ++k) {
    Episode episode;
    episode.drift = metrics.drift_frames[k];
    episode.selected = metrics.selections[k];
    episode.trained = episode.selected.rfind(OwnPrefix(stream), 0) == 0 &&
                      seen.insert(episode.selected).second;
    episode.closing = episode.drift + (episode.trained
                                           ? defaults.new_model_window
                                           : defaults.recovery_window);
    episodes.push_back(episode);
  }
  return episodes;
}

// Wall time from the flagged frame's arrival to the end of service of the
// first frame served after redeployment (the call for the frame after it).
std::vector<double> RecoveryMs(const StreamPass& stream) {
  std::vector<double> samples;
  for (const Episode& e : Episodes(stream)) {
    const size_t end_call = static_cast<size_t>(e.closing + 2);
    if (end_call >= stream.calls.size()) continue;  // Stream ended first.
    samples.push_back((stream.calls[end_call] -
                       stream.returns[static_cast<size_t>(e.drift)]) *
                      1e3);
  }
  return samples;
}

std::vector<double> FrameServiceMs(const StreamPass& stream) {
  std::vector<double> samples;
  for (size_t i = 0; i + 1 < stream.calls.size() && i < stream.returns.size();
       ++i) {
    samples.push_back((stream.calls[i + 1] - stream.returns[i]) * 1e3);
  }
  return samples;
}

// --------------------------------------------------------------- slices

/// Wall extent of one fleet slice, from the stream's slice marks.
struct Slice {
  double start = 0.0;
  double duration = 0.0;
};

std::vector<Slice> Slices(const StreamPass& stream, double serve_start) {
  std::vector<Slice> slices;
  double start = serve_start;
  double prior = 0.0;
  for (const TimedSource::SliceMark& mark : stream.slice_marks) {
    slices.push_back({start, mark.prior_run_s - prior});
    start = mark.start;
    prior = mark.prior_run_s;
  }
  slices.push_back({start, stream.run_s - prior});
  return slices;
}

// ---------------------------------------------------------------- layers

using MetricMap = std::map<std::string, double>;

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndDefs() {
  return {{"fps", "frames/s"},    {"frame_ms_p50", "ms"},
          {"recovery_ms_p50", "ms"}, {"setup_s", "s"},
          {"peak_rss_mb", "MiB"},   {"count_aq", "ratio"}};
}

constexpr const char* kKernels[] = {
    "tensor.matmul",
    "tensor.im2col",
    "nn.conv2d_forward",
    "nn.linear_forward",
    "tensor.matmul_transposed_a",
    "tensor.matmul_transposed_b",
    "tensor.col2im",
    "nn.conv2d_backward",
};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs = {
      {"video.render_s", "s"},
      {"di.observe_s", "s"},
      {"di.observe_us_p50", "us"},
      {"di.alarms", "count"},
      {"di.false_alarms", "count"},
      {"di.detect_lag_frames_p50", "frames"},
      {"query.s", "s"},
      {"query.us_p50", "us"},
      {"select.s", "s"},
      {"select.calls", "count"},
      {"select.ms_p50", "ms"},
      {"select.invocations_per_call", "count"},
      {"select.correct_frac", "ratio"},
      {"train.models", "count"},
      {"train.s", "s"},
      {"fleet.slice_s", "s"},
      {"fleet.barrier_s", "s"},
      {"fleet.outside_s", "s"},
      {"fleet.parallel_eff", "ratio"},
      {"fleet.straggler_ms_p50", "ms"},
      {"fleet.rounds", "count"},
      {"fleet.backpressure_waits", "count"},
      {"fleet.published", "count"},
      {"fleet.adopted", "count"},
      {"fleet.adopt_ratio", "ratio"},
  };
  for (const char* kernel : kKernels) {
    const std::string base = std::string("kernel.") + kernel;
    defs.push_back({base + ".calls", "count"});
    defs.push_back({base + ".gflop", "GFLOP"});
    defs.push_back({base + ".s", "s"});
    defs.push_back({base + ".gflops", "GFLOP/s"});
  }
  for (const char* level : {"tensor", "nn"}) {
    const std::string base = std::string("kernel.") + level;
    defs.push_back({base + ".gflop", "GFLOP"});
    defs.push_back({base + ".gbytes", "GB"});
    defs.push_back({base + ".s", "s"});
  }
  defs.push_back({"kernel.gflop_per_frame", "GFLOP"});
  defs.push_back({"unattributed_s", "s"});
  defs.push_back({"trace.overhead_frac", "ratio"});
  return defs;
}

int64_t ServedFrames(const Pass& pass) {
  int64_t served = 0;
  for (const StreamPass& s : pass.streams) {
    served += s.metrics.Totals().count_total;
  }
  return served;
}

double PassFps(const Pass& pass) {
  return Ratio(static_cast<double>(ServedFrames(pass)), pass.serve_s);
}

int64_t TensorFlops(const Pass& pass) {
  int64_t flops = 0;
  for (const auto& [op, delta] : pass.ops) {
    if (op.rfind("tensor.", 0) == 0) flops += delta.flops;
  }
  return flops;
}

// Per-layer metrics of one traced pass. Seconds are stream-seconds: a
// fleet's streams each spend the whole serving wall time, so the identity
//   streams x wall = render + DI + query + select + train + outside
//                    + unattributed
// holds per stream, where `outside` is time a stream spent between its
// slices (barriers and waiting for the slowest shard).
MetricMap PassLayers(const Pass& pass, const WorkloadSpec& spec) {
  MetricMap m;
  std::vector<obs::Histogram::Snapshot> detect, select, query;
  std::vector<double> lags;
  int64_t selections = 0;
  int64_t correct = 0;
  int64_t invocations = 0;
  double outside = 0.0;
  for (const StreamPass& s : pass.streams) {
    for (size_t i = 0; i < s.returns.size(); ++i) {
      m["video.render_s"] += s.returns[i] - s.calls[i];
    }
    detect.push_back(s.detect);
    select.push_back(s.select);
    query.push_back(s.query);
    m["di.observe_s"] += s.detect.sum;
    m["query.s"] += s.query.sum;
    m["select.s"] += s.select.sum;
    m["select.calls"] += static_cast<double>(s.select.count);
    m["fleet.slice_s"] += s.run_s;
    outside += pass.serve_s - s.run_s;
    invocations += s.metrics.selection_invocations;
    m["train.models"] += s.metrics.new_models_trained;
    for (int64_t lag : s.metrics.detect_lags) {
      lags.push_back(static_cast<double>(lag));
    }

    // Alarms against truth change points: the first alarm after a change
    // is true, any further alarm before the next change is false.
    std::set<size_t> claimed;
    for (int64_t alarm : s.metrics.drift_frames) {
      m["di.alarms"] += 1;
      size_t segment = SegmentOf(s, alarm);
      if (segment == 0 || !claimed.insert(segment).second) {
        m["di.false_alarms"] += 1;
      }
    }

    // The gap after a closing frame also holds that frame's query; taking
    // the slowest query off keeps train.s a lower bound.
    const double query_max = s.query.count > 0 ? s.query.max : 0.0;
    std::vector<Slice> slices;
    if (spec.fleet) slices = Slices(s, pass.serve_start);
    for (const Episode& e : Episodes(s)) {
      const std::string& truth = s.segment_names[SegmentOf(
          s, std::min(e.closing, s.total_frames - 1))];
      const bool provisioned =
          std::find(pass.provisioned.begin(), pass.provisioned.end(),
                    truth) != pass.provisioned.end();
      selections += 1;
      if (e.selected == truth || (!provisioned && IsLearned(e.selected))) {
        correct += 1;
      }
      if (!e.trained) continue;
      // Training runs in the gap after the window's closing frame; a
      // fleet slice that ends on that frame stops the clock at slice end.
      const size_t next = static_cast<size_t>(e.closing + 1);
      if (next >= s.calls.size()) continue;
      double end = s.calls[next];
      if (spec.fleet) {
        const size_t k = static_cast<size_t>(e.closing / kSliceFrames);
        if (k < slices.size()) {
          end = std::min(end, slices[k].start + slices[k].duration);
        }
      }
      m["train.s"] += std::max(
          0.0, end - s.returns[static_cast<size_t>(e.closing)] - query_max);
    }
  }
  m["di.observe_us_p50"] = Merge(detect).Quantile(0.5) * 1e6;
  m["query.us_p50"] = Merge(query).Quantile(0.5) * 1e6;
  m["select.ms_p50"] = Merge(select).Quantile(0.5) * 1e3;
  m["di.detect_lag_frames_p50"] = Median(lags);
  m["select.invocations_per_call"] =
      Ratio(static_cast<double>(invocations), m["select.calls"]);
  m["select.correct_frac"] =
      Ratio(static_cast<double>(correct), static_cast<double>(selections));

  // Fleet rounds: every shard runs one slice per round (all streams are
  // admitted, max_concurrent >= streams), so slice r of each stream is
  // round r. A round's barrier is the gap between its slowest slice's end
  // and the next round's first Next (the serving loop's end for the last).
  if (spec.fleet) {
    std::vector<std::vector<Slice>> per_stream;
    size_t rounds = 0;
    for (const StreamPass& s : pass.streams) {
      per_stream.push_back(Slices(s, pass.serve_start));
      rounds = std::max(rounds, per_stream.back().size());
    }
    std::vector<double> stragglers;
    for (size_t r = 0; r < rounds; ++r) {
      double end = 0.0;
      double next = pass.serve_start + pass.serve_s;
      std::vector<double> durations;
      for (const std::vector<Slice>& slices : per_stream) {
        if (r < slices.size()) {
          end = std::max(end, slices[r].start + slices[r].duration);
          durations.push_back(slices[r].duration);
        }
        if (r + 1 < slices.size()) next = std::min(next, slices[r + 1].start);
      }
      m["fleet.barrier_s"] += std::max(0.0, next - end);
      stragglers.push_back(
          (*std::max_element(durations.begin(), durations.end()) -
           Median(durations)) *
          1e3);
    }
    m["fleet.straggler_ms_p50"] = Median(stragglers);
    m["fleet.outside_s"] = outside;
  }
  m["fleet.parallel_eff"] = Ratio(
      m["fleet.slice_s"], pass.serve_s * static_cast<double>(spec.threads));
  m["fleet.rounds"] = static_cast<double>(pass.rounds);
  m["fleet.backpressure_waits"] = static_cast<double>(pass.backpressure_waits);
  m["fleet.published"] = static_cast<double>(pass.published);
  m["fleet.adopted"] = static_cast<double>(pass.adopted);
  m["fleet.adopt_ratio"] =
      Ratio(static_cast<double>(pass.adopted),
            static_cast<double>(pass.adopted) + m["train.models"]);

  // Op probes, per kernel and per probe level. nn.* probes enclose the
  // tensor.* probes they call, so the levels are reported side by side and
  // never added together.
  for (const char* kernel : kKernels) {
    auto it = pass.ops.find(kernel);
    OpDelta d = it == pass.ops.end() ? OpDelta{} : it->second;
    const std::string base = std::string("kernel.") + kernel;
    m[base + ".calls"] = static_cast<double>(d.calls);
    m[base + ".gflop"] = static_cast<double>(d.flops) / 1e9;
    m[base + ".s"] = d.seconds;
    m[base + ".gflops"] = Ratio(static_cast<double>(d.flops) / 1e9, d.seconds);
  }
  for (const auto& [op, d] : pass.ops) {
    const std::string level = op.substr(0, op.find('.'));
    if (level != "tensor" && level != "nn") continue;
    m["kernel." + level + ".gflop"] += static_cast<double>(d.flops) / 1e9;
    m["kernel." + level + ".gbytes"] += static_cast<double>(d.bytes) / 1e9;
    m["kernel." + level + ".s"] += d.seconds;
  }
  m["kernel.gflop_per_frame"] =
      Ratio(static_cast<double>(TensorFlops(pass)) / 1e9,
            static_cast<double>(ServedFrames(pass)));

  const double stream_wall =
      pass.serve_s * static_cast<double>(pass.streams.size());
  m["unattributed_s"] =
      stream_wall - (m["video.render_s"] + m["di.observe_s"] + m["query.s"] +
                     m["select.s"] + m["train.s"] + outside);
  return m;
}

// ---------------------------------------------------------------- checks

uint64_t Fnv(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Digest of the outputs a pass must reproduce exactly: drift frames,
// selections and count-query accuracy of every stream.
uint64_t Digest(const Pass& pass) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const StreamPass& s : pass.streams) {
    hash = Fnv(hash, s.label.data(), s.label.size());
    for (int64_t frame : s.metrics.drift_frames) {
      hash = Fnv(hash, &frame, sizeof(frame));
    }
    for (const std::string& name : s.metrics.selections) {
      hash = Fnv(hash, name.data(), name.size() + 1);
    }
    const auto totals = s.metrics.Totals();
    hash = Fnv(hash, &totals.count_correct, sizeof(totals.count_correct));
    hash = Fnv(hash, &totals.count_total, sizeof(totals.count_total));
  }
  return hash;
}

class Checks {
 public:
  void Record(const std::string& name, bool ok, const std::string& detail) {
    Tally& tally = tallies_[name];
    if (ok) return;
    pass_failed_ = true;
    tally.failed_passes += 1;
    if (tally.first_failure.empty()) tally.first_failure = detail;
  }
  /// True when the current pass failed any check; resets for the next.
  bool TakePassFailed() {
    bool failed = pass_failed_;
    pass_failed_ = false;
    return failed;
  }
  bool AllPassed() const {
    for (const auto& [name, tally] : tallies_) {
      if (tally.failed_passes > 0) return false;
    }
    return true;
  }
  void Print() const {
    for (const auto& [name, tally] : tallies_) {
      if (tally.failed_passes == 0) {
        std::printf("check %-22s PASS\n", name.c_str());
      } else {
        std::printf("check %-22s FAIL in %d pass(es): %s\n", name.c_str(),
                    tally.failed_passes, tally.first_failure.c_str());
      }
    }
  }

 private:
  struct Tally {
    int failed_passes = 0;
    std::string first_failure;
  };
  std::map<std::string, Tally> tallies_;
  bool pass_failed_ = false;
};

void CheckPass(const Pass& pass, const WorkloadSpec& spec,
               const Pass& reference, const MetricMap* layers,
               Checks* checks) {
  checks->Record("model_cache_hit", pass.loaded_from_cache,
                 "workbench was trained instead of loaded from the cache");
  std::string run_error;
  for (const StreamPass& s : pass.streams) {
    if (!s.run_ok) run_error = s.label + ": " + s.status;
    if (s.resets != 0) run_error = s.label + " was reset mid-pass";
  }
  if (pass.restarts != 0 || pass.halted_or_resumed) {
    run_error = "fleet restarted, halted or resumed a shard";
  }
  checks->Record("runs_ok", run_error.empty(), run_error);

  std::string conservation;
  for (const StreamPass& s : pass.streams) {
    const int64_t accounted = s.metrics.Totals().count_total +
                              s.metrics.degradation.frames_dropped +
                              s.quarantined_frames;
    if (accounted != s.total_frames ||
        static_cast<int64_t>(s.returns.size()) != s.total_frames) {
      conservation = s.label + ": served " +
                     std::to_string(s.metrics.Totals().count_total) +
                     " + dropped + quarantined = " +
                     std::to_string(accounted) + ", pulled " +
                     std::to_string(s.returns.size()) + ", stream total " +
                     std::to_string(s.total_frames);
    }
  }
  checks->Record("frame_conservation", conservation.empty(), conservation);

  if (spec.fleet) {
    checks->Record("labeled_sums", pass.label_sum_error.empty(),
                   pass.label_sum_error);
    int64_t trained = 0;
    for (const StreamPass& s : pass.streams) {
      trained += s.metrics.new_models_trained;
    }
    checks->Record("fleet_train_and_adopt",
                   trained >= 1 && pass.published >= 1 && pass.adopted >= 1,
                   "trained " + std::to_string(trained) + ", published " +
                       std::to_string(pass.published) + ", adopted " +
                       std::to_string(pass.adopted));
  }
  checks->Record("digest_repeats", Digest(pass) == Digest(reference),
                 "drift frames, selections or count A_q differ from pass 0");
  checks->Record("tensor_flops_repeat",
                 TensorFlops(pass) == TensorFlops(reference),
                 "tensor.* FLOPs differ from pass 0");
  if (layers != nullptr) {
    const double unattributed = layers->at("unattributed_s");
    checks->Record("unattributed_nonneg", unattributed >= 0.0,
                   "unattributed_s = " + std::to_string(unattributed) +
                       " (time counted twice)");
  }
}

// ---------------------------------------------------------------- output

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const MetricMap& values) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    auto it = values.find(defs[i].name);
    out += "\"" + defs[i].name + "\": {\"value\": " +
           obs::json::FormatDouble(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const std::vector<MetricDef>& defs, const MetricMap& values) {
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    std::printf("%-40s %14.6g %s\n", def.name.c_str(),
                it == values.end() ? 0.0 : it->second, def.unit.c_str());
  }
}

std::string StampJson(const Args& args, const WorkloadSpec& spec) {
  std::string out = "{";
  out += "\"workload\": \"" + spec.name + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"threads\": " + std::to_string(spec.threads);
  out += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"machine\": " +
         vdrift::benchutil::MachineFingerprint::Detect().ToJson();
  out += ", \"git_rev\": \"" +
         obs::json::Escape(vdrift::benchutil::GitRevision()) + "\"";
  out += ", \"build\": \"" + obs::json::Escape(args.build_id) + "\"";
  out += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  return out + "}";
}

double PeakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// End-to-end metrics. Throughput and the median frame time are medians of
// the measured passes' own figures, so one pass slowed by a neighbour on
// the machine moves them little. The tail pools every measured frame (it
// needs at least ten samples beyond it), recovery pools every episode (a
// pass has only a few), and set-up is the median of the full set-ups
// among `checked`.
MetricMap EndToEnd(const std::vector<const Pass*>& measured,
                   const std::vector<const Pass*>& checked) {
  MetricMap m;
  std::vector<double> fps, p50, all_frames_ms, recovery_ms;
  for (const Pass* pass : measured) {
    fps.push_back(PassFps(*pass));
    std::vector<double> frame_ms;
    for (const StreamPass& s : pass->streams) {
      std::vector<double> f = FrameServiceMs(s);
      frame_ms.insert(frame_ms.end(), f.begin(), f.end());
      std::vector<double> r = RecoveryMs(s);
      recovery_ms.insert(recovery_ms.end(), r.begin(), r.end());
    }
    p50.push_back(Quantile(frame_ms, 0.5));
    all_frames_ms.insert(all_frames_ms.end(), frame_ms.begin(),
                         frame_ms.end());
  }
  std::vector<double> setup;
  double correct = 0.0;
  double total = 0.0;
  for (const Pass* pass : checked) {
    if (pass->full_setup) setup.push_back(pass->setup_s);
    for (const StreamPass& s : pass->streams) {
      correct += static_cast<double>(s.metrics.Totals().count_correct);
      total += static_cast<double>(s.metrics.Totals().count_total);
    }
  }
  m["fps"] = Median(fps);
  m["frame_ms_p50"] = Median(p50);
  m["frame_ms_p99"] = Quantile(all_frames_ms, 0.99);
  m["frame_ms_p999"] = Quantile(all_frames_ms, 0.999);
  m["recovery_ms_p50"] = Median(recovery_ms);
  m["setup_s"] = Median(setup);
  m["peak_rss_mb"] = PeakRssMiB();
  m["count_aq"] = Ratio(correct, total);
  m["frame_samples"] = static_cast<double>(all_frames_ms.size());
  m["recovery_samples"] = static_cast<double>(recovery_ms.size());
  return m;
}

int Measure(const Args& args, double origin) {
  const WorkloadSpec* spec = nullptr;
  std::vector<WorkloadSpec> workloads = Workloads(args.smoke);
  for (const WorkloadSpec& w : workloads) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!std::filesystem::exists(Marker(args.cache_dir, spec->dataset))) {
    std::fprintf(stderr, "model cache %s is not provisioned for %s\n",
                 args.cache_dir.c_str(), spec->dataset.c_str());
    return 2;
  }
  // Before the first parallel loop creates the process-wide pool.
  ::setenv("VDRIFT_THREADS", std::to_string(spec->threads).c_str(), 1);
  const std::string stamp = StampJson(args, *spec);
  std::printf("stamp %s\n", stamp.c_str());

  // Pass 0 warms caches and lazy set-up; it is checked but not measured.
  std::vector<Pass> passes;
  std::unique_ptr<vdrift::benchutil::Workbench> bench;
  double served_s = 0.0;
  const size_t min_passes = args.trace ? 3 : 2;
  while (passes.size() < min_passes ||
         (served_s < args.seconds && Now() - origin < kMaxMeasureSeconds)) {
    PassContext ctx;
    ctx.seed = args.seed;
    ctx.smoke = args.smoke;
    ctx.traced = args.trace && passes.size() % 2 == 1;
    ctx.cache_dir = args.cache_dir;
    ctx.scratch_dir = args.out_dir + "/fleet_state_" +
                      std::to_string(static_cast<long>(::getpid()));
    if (passes.size() < kFullSetups) bench.reset();
    ctx.setup_origin = passes.empty() ? origin : Now();
    vdrift::Result<Pass> pass = RunPass(*spec, ctx, &bench);
    if (!pass.ok()) {
      std::fprintf(stderr, "pass %zu failed: %s\n", passes.size(),
                   pass.status().ToString().c_str());
      return 1;
    }
    if (!passes.empty()) served_s += pass.value().serve_s;
    passes.push_back(std::move(pass).value());
  }

  Checks checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<const Pass*> untraced, traced, checked;
  std::vector<MetricMap> traced_layers;
  for (const Pass& pass : passes) {
    MetricMap layers;
    if (pass.traced) layers = PassLayers(pass, *spec);
    CheckPass(pass, *spec, passes.front(), pass.traced ? &layers : nullptr,
              &checks);
    int64_t total = 0;
    for (const StreamPass& s : pass.streams) total += s.total_frames;
    attempted += total;
    if (checks.TakePassFailed()) {
      failed += total;
      continue;
    }
    failed += total - ServedFrames(pass);
    checked.push_back(&pass);
    if (&pass == &passes.front()) continue;  // Warm-up.
    (pass.traced ? traced : untraced).push_back(&pass);
    if (pass.traced) traced_layers.push_back(std::move(layers));
  }
  checks.Print();
  const bool correct = checks.AllPassed() && !untraced.empty() &&
                       (!args.trace || !traced.empty());

  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::printf("pass %zu%s: setup %.4f s%s, serving %.4f s, %.1f frames/s\n",
                i, i == 0 ? " (warm-up)" : p.traced ? " (traced)" : "",
                p.setup_s, p.full_setup ? "" : " (workbench reused)",
                p.serve_s, PassFps(p));
  }
  const double failed_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  MetricMap e2e = EndToEnd(untraced, checked);
  std::printf("measured %.3f s of serving; frames attempted %" PRId64
              ", failed %" PRId64 "\n",
              served_s, attempted, failed);
  std::printf("provision_cold_s %.3f (one-time model training, not in "
              "setup_s)\n",
              ReadProvisionColdSeconds(args.cache_dir));
  // The frame-time tail is printed, not reported: across seeds it moves
  // more than any bound the benchmark may set (see README.md).
  std::printf("samples: frame %.0f (p99 %.4g ms, p99.9 %.4g ms), "
              "recovery %.0f\n",
              e2e["frame_samples"], e2e["frame_ms_p99"],
              e2e["frame_ms_p999"], e2e["recovery_samples"]);
  const std::vector<MetricDef> e2e_defs = EndToEndDefs();
  PrintMetrics(e2e_defs, e2e);
  PrintMetrics({{"failed_frac", "ratio"}}, {{"failed_frac", failed_frac}});

  std::string metrics_json;
  if (args.trace) {
    // Per-layer figures are medians over the traced passes.
    MetricMap layers;
    std::map<std::string, std::vector<double>> samples;
    for (const MetricMap& pass_layers : traced_layers) {
      for (const auto& [name, value] : pass_layers) {
        samples[name].push_back(value);
      }
    }
    for (const auto& [name, values] : samples) layers[name] = Median(values);
    MetricMap traced_e2e = EndToEnd(traced, traced);
    layers["trace.overhead_frac"] = 1.0 - Ratio(traced_e2e["fps"], e2e["fps"]);
    const std::vector<MetricDef> defs = PerLayerDefs();
    PrintMetrics(defs, layers);
    metrics_json = MetricsJson(defs, layers);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + spec->name + ".layers.json";
    std::ofstream out(path);
    out << "{\"stamp\": " << stamp
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"traced_passes\": " << traced.size()
        << ", \"per_layer\": " << metrics_json
        << ", \"end_to_end\": " << MetricsJson(e2e_defs, e2e) << "}\n";
    std::printf("per-layer file %s\n", path.c_str());
  } else {
    metrics_json = MetricsJson(e2e_defs, e2e);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double origin = perfbench::Now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.provision) return perfbench::Provision(args);
  return perfbench::Measure(args, origin);
}
