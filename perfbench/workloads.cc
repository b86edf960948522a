#include "workloads.h"

#include <filesystem>
#include <utility>

#include "obs/labels.h"
#include "obs/trace_log.h"
#include "serve/fleet.h"
#include "video/datasets.h"

namespace perfbench {

namespace {

using vdrift::Result;
using vdrift::Status;
namespace obs = vdrift::obs;
namespace pipeline = vdrift::pipeline;
namespace serve = vdrift::serve;
namespace video = vdrift::video;

constexpr int64_t kSliceFrames = 64;
constexpr char kRunSpan[] = "vdrift.pipeline.run_seconds";
constexpr char kDetectSpan[] = "vdrift.pipeline.detect_seconds";
constexpr char kSelectSpan[] = "vdrift.pipeline.select_seconds";
constexpr char kQuerySpan[] = "vdrift.pipeline.query_seconds";
// The counter families the fleet folds into unlabeled aggregates.
constexpr const char* kAggregatedCounters[] = {
    "vdrift.pipeline.frames",
    "vdrift.pipeline.drifts",
    "vdrift.pipeline.frames_dropped",
    "vdrift.pipeline.selection_failures",
    "vdrift.pipeline.redeployments",
    "vdrift.pipeline.checkpoint_failures",
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Scene order of stream `stream`: a single pipeline cycles the dataset's
// sequences; a fleet stream cycles the provisioned angles from its own
// offset and visits the unprovisioned Tokyo night once, one segment later
// than the stream before it.
std::vector<video::Segment> StreamSegments(
    const WorkloadSpec& spec, const video::SyntheticDataset& dataset,
    int stream) {
  const size_t scenes = dataset.segments.size();
  std::vector<video::Segment> segments;
  for (int i = 0; i < spec.segments; ++i) {
    video::SceneSpec scene =
        dataset.segments[(static_cast<size_t>(stream + i)) % scenes].spec;
    if (spec.fleet && i == stream + 1) scene = video::TokyoNightSpec();
    segments.push_back({scene, spec.segment_frames});
  }
  return segments;
}

void RecordTruth(const std::vector<video::Segment>& segments,
                 StreamPass* out) {
  int64_t start = 0;
  for (const video::Segment& segment : segments) {
    out->segment_starts.push_back(start);
    out->segment_names.push_back(segment.spec.name);
    start += segment.length;
  }
  out->total_frames = start;
}

void KeepTiming(const TimedSource& timing, StreamPass* out) {
  out->calls = timing.calls();
  out->returns = timing.returns();
  out->slice_marks = timing.slice_marks();
  out->resets = timing.resets();
}

obs::Histogram::Snapshot SnapshotOf(
    const std::map<std::string, obs::Histogram::Snapshot>& histograms,
    const std::string& key) {
  auto it = histograms.find(key);
  return it == histograms.end() ? obs::Histogram::Snapshot{} : it->second;
}

void KeepHistograms(const obs::MetricsRegistry& registry,
                    const std::string& label, StreamPass* out) {
  auto key = [&](const char* base) {
    return label.empty() ? std::string(base)
                         : obs::FormatMetricKey(base, {{"stream", label}});
  };
  std::map<std::string, obs::Histogram::Snapshot> histograms =
      registry.Histograms();
  out->detect = SnapshotOf(histograms, key(kDetectSpan));
  out->select = SnapshotOf(histograms, key(kSelectSpan));
  out->query = SnapshotOf(histograms, key(kQuerySpan));
}

std::map<std::string, OpDelta> Subtract(
    const std::map<std::string, OpDelta>& after,
    const std::map<std::string, OpDelta>& before) {
  std::map<std::string, OpDelta> delta;
  for (const auto& [op, value] : after) {
    OpDelta d = value;
    auto it = before.find(op);
    if (it != before.end()) {
      d.calls -= it->second.calls;
      d.flops -= it->second.flops;
      d.bytes -= it->second.bytes;
      d.seconds -= it->second.seconds;
    }
    delta[op] = d;
  }
  return delta;
}

pipeline::PipelineConfig PipelineConfigFor(
    const WorkloadSpec& spec, const vdrift::benchutil::WorkbenchOptions& options,
    uint64_t seed) {
  pipeline::PipelineConfig config;
  config.selector = spec.selector;
  config.allow_training_new = spec.allow_training_new;
  config.provision = options.provision;
  if (spec.allow_training_new) {
    // Online training recipe: a short run with one ensemble member (MSBI
    // selects on the VAE profile and never consults the ensemble), so a
    // drift to an unseen scene costs about a second of one core.
    config.provision.profile.trainer.epochs = 4;
    config.provision.classifier_train.epochs = 4;
    config.provision.ensemble_size = 1;
  }
  config.seed = Mix(seed, 1000);
  return config;
}

// Brackets the serving loop: op-probe deltas, kernel profiling switch and
// wall clock.
template <typename Fn>
void Serve(const PassContext& ctx, Pass* pass, Fn serve) {
  obs::SetKernelProfiling(ctx.traced);
  std::map<std::string, OpDelta> before = ReadOps();
  pass->serve_start = Now();
  serve();
  pass->serve_s = Now() - pass->serve_start;
  pass->ops = Subtract(ReadOps(), before);
  obs::SetKernelProfiling(false);
}

Status RunSingle(const WorkloadSpec& spec, const PassContext& ctx,
                 vdrift::benchutil::Workbench* bench,
                 const vdrift::benchutil::WorkbenchOptions& options,
                 Pass* pass) {
  std::vector<video::Segment> segments =
      StreamSegments(spec, bench->dataset, 0);
  StreamPass out;
  RecordTruth(segments, &out);
  video::StreamGenerator generator(segments, bench->dataset.image_size,
                                   Mix(ctx.seed, 0));
  TimedSource timed(&generator);
  pipeline::DriftAwarePipeline pipe(&bench->registry,
                                    bench->calibration_samples,
                                    PipelineConfigFor(spec, options, ctx.seed));
  // A zero-frame Run performs the deferred MSBO calibration, which belongs
  // to set-up, without pulling a frame.
  pipeline::RunOptions calibrate_only;
  calibrate_only.max_frames = 0;
  VDRIFT_RETURN_NOT_OK(pipe.Run(&timed, calibrate_only).status());
  const double setup_run_s = pipe.metrics().total_seconds;
  pass->setup_s = Now() - ctx.setup_origin;

  Result<pipeline::PipelineMetrics> result = Status::Internal("not run");
  Serve(ctx, pass, [&] { result = pipe.Run(&timed); });
  out.run_ok = result.ok();
  if (!result.ok()) out.status = result.status().ToString();
  out.metrics = pipe.metrics();
  out.run_s = out.metrics.total_seconds - setup_run_s;
  KeepHistograms(*out.metrics.registry, "", &out);
  KeepTiming(timed, &out);
  pass->streams.push_back(std::move(out));
  return Status::OK();
}

std::string CheckLabelSums(const obs::MetricsRegistry& registry,
                           const std::vector<std::string>& labels) {
  std::map<std::string, int64_t> counters = registry.Counters();
  for (const char* family : kAggregatedCounters) {
    int64_t labeled = 0;
    for (const std::string& label : labels) {
      auto it = counters.find(obs::FormatMetricKey(family, {{"stream", label}}));
      if (it != counters.end()) labeled += it->second;
    }
    auto total = counters.find(family);
    int64_t aggregate = total == counters.end() ? 0 : total->second;
    if (labeled != aggregate) {
      return std::string(family) + ": streams sum to " +
             std::to_string(labeled) + ", aggregate is " +
             std::to_string(aggregate);
    }
  }
  return "";
}

Status RunFleet(const WorkloadSpec& spec, const PassContext& ctx,
                vdrift::benchutil::Workbench* bench,
                const vdrift::benchutil::WorkbenchOptions& options,
                Pass* pass) {
  // A fresh directory per pass: the fleet resumes from a manifest it finds.
  std::error_code ec;
  std::filesystem::remove_all(ctx.scratch_dir, ec);
  std::filesystem::create_directories(ctx.scratch_dir, ec);
  if (ec) return Status::IoError("cannot create " + ctx.scratch_dir);

  serve::FleetOptions fleet_options;
  fleet_options.pipeline = PipelineConfigFor(spec, options, ctx.seed);
  fleet_options.slice_frames = kSliceFrames;
  fleet_options.max_concurrent = 4;
  fleet_options.checkpoint_dir = ctx.scratch_dir;
  fleet_options.manifest_path = ctx.scratch_dir + "/fleet.manifest";
  serve::DriftFleet fleet(fleet_options);
  VDRIFT_RETURN_NOT_OK(
      fleet.AddBaseModels(bench->registry, bench->calibration_samples));

  std::vector<std::vector<video::Segment>> segments;
  std::vector<std::unique_ptr<video::StreamGenerator>> generators;
  std::vector<std::unique_ptr<TimedSource>> timed;
  std::vector<std::string> labels;
  for (int s = 0; s < spec.streams; ++s) {
    labels.push_back("s" + std::to_string(s));
    segments.push_back(StreamSegments(spec, bench->dataset, s));
    generators.push_back(std::make_unique<video::StreamGenerator>(
        segments.back(), bench->dataset.image_size,
        Mix(ctx.seed, static_cast<uint64_t>(s))));
    timed.push_back(std::make_unique<TimedSource>(generators.back().get()));
    if (ctx.traced) {
      timed.back()->WatchSlices(
          &fleet.registry()->GetHistogram(
              obs::FormatMetricKey(kRunSpan, {{"stream", labels.back()}})),
          kSliceFrames);
    }
    VDRIFT_RETURN_NOT_OK(
        fleet.AddStream({labels.back(), timed.back().get(), nullptr}));
  }
  pass->setup_s = Now() - ctx.setup_origin;

  Result<serve::FleetReport> result = Status::Internal("not run");
  Serve(ctx, pass, [&] { result = fleet.Run(); });
  VDRIFT_RETURN_NOT_OK(result.status());
  const serve::FleetReport& report = result.value();
  pass->rounds = report.rounds;
  pass->backpressure_waits = report.backpressure_waits;
  pass->published = report.models_published;
  pass->adopted = report.models_adopted;
  pass->restarts = report.shard_restarts;
  pass->halted_or_resumed = report.halted || report.resumed;
  pass->label_sum_error = CheckLabelSums(*fleet.registry(), labels);
  std::map<std::string, obs::Histogram::Snapshot> histograms =
      fleet.registry()->Histograms();
  for (size_t s = 0; s < report.streams.size(); ++s) {
    const serve::StreamReport& stream = report.streams[s];
    StreamPass out;
    out.label = stream.label;
    RecordTruth(segments[s], &out);
    out.metrics = stream.metrics;
    out.run_ok = stream.status.ok() &&
                 stream.health != serve::HealthState::kQuarantined;
    if (!out.run_ok) out.status = stream.status.ToString();
    out.quarantined_frames = stream.quarantined_frames;
    out.run_s = SnapshotOf(histograms, obs::FormatMetricKey(
                                           kRunSpan, {{"stream", out.label}}))
                    .sum;
    KeepHistograms(*fleet.registry(), out.label, &out);
    KeepTiming(*timed[s], &out);
    pass->streams.push_back(std::move(out));
  }
  std::filesystem::remove_all(ctx.scratch_dir, ec);
  return Status::OK();
}

}  // namespace

std::vector<WorkloadSpec> Workloads(bool smoke) {
  using Selector = pipeline::PipelineConfig::Selector;
  WorkloadSpec steady;
  steady.name = "steady";
  steady.dataset = "BDD";
  steady.threads = 1;
  steady.selector = Selector::kMsbi;
  steady.segments = 16;
  steady.segment_frames = smoke ? 48 : 250;

  WorkloadSpec churn;
  churn.name = "churn";
  churn.dataset = "BDD";
  churn.threads = 4;
  churn.selector = Selector::kMsbo;
  churn.segments = smoke ? 6 : 13;
  churn.segment_frames = smoke ? 64 : 300;

  WorkloadSpec fleet;
  fleet.name = "fleet_retrain";
  fleet.dataset = "Tokyo";
  fleet.threads = 4;
  fleet.fleet = true;
  // The smoke workbench's two-epoch profiles accept the night scene under
  // MSBI, so the smoke fleet selects with MSBO to reach training.
  fleet.selector = smoke ? Selector::kMsbo : Selector::kMsbi;
  fleet.allow_training_new = true;
  fleet.streams = 4;
  fleet.segments = 5;
  fleet.segment_frames = smoke ? 96 : 128;
  return {steady, churn, fleet};
}

vdrift::benchutil::WorkbenchOptions BenchWorkbenchOptions(
    bool smoke, const std::string& cache_dir) {
  vdrift::benchutil::WorkbenchOptions options =
      vdrift::benchutil::DefaultWorkbenchOptions();
  if (smoke) {
    // The bench harness's smoke sizes (BenchHarness::MakeWorkbenchOptions).
    options.dataset_scale = 0.002;
    options.train_frames = 48;
    options.calibration_sample = 8;
    options.provision.profile.sigma_size = 64;
    options.provision.profile.trainer.epochs = 2;
    options.provision.classifier_train.epochs = 2;
    options.provision.ensemble_size = 2;
    options.provision.classifier_filters = 6;
  }
  options.cache_dir = cache_dir;
  return options;
}

std::map<std::string, OpDelta> ReadOps() {
  const std::string prefix = "vdrift.ops.";
  std::map<std::string, OpDelta> ops;
  auto split = [&](const std::string& key, std::string* op,
                   std::string* field) {
    if (key.compare(0, prefix.size(), prefix) != 0) return false;
    size_t dot = key.rfind('.');
    if (dot == std::string::npos || dot <= prefix.size()) return false;
    *op = key.substr(prefix.size(), dot - prefix.size());
    *field = key.substr(dot + 1);
    return true;
  };
  std::string op;
  std::string field;
  for (const auto& [key, value] : obs::Global().Counters()) {
    if (!split(key, &op, &field)) continue;
    if (field == "calls") ops[op].calls = value;
    if (field == "flops") ops[op].flops = value;
    if (field == "bytes") ops[op].bytes = value;
  }
  for (const auto& [key, snapshot] : obs::Global().Histograms()) {
    if (split(key, &op, &field) && field == "seconds") {
      ops[op].seconds = snapshot.sum;
    }
  }
  return ops;
}

Result<Pass> RunPass(const WorkloadSpec& spec, const PassContext& ctx,
                     std::unique_ptr<vdrift::benchutil::Workbench>* bench) {
  vdrift::benchutil::WorkbenchOptions options =
      BenchWorkbenchOptions(ctx.smoke, ctx.cache_dir);
  Pass pass;
  pass.full_setup = *bench == nullptr;
  if (pass.full_setup) {
    VDRIFT_ASSIGN_OR_RETURN(
        *bench, vdrift::benchutil::BuildWorkbench(spec.dataset, options));
  }
  pass.traced = ctx.traced;
  pass.loaded_from_cache = (*bench)->loaded_from_cache;
  pass.provisioned = (*bench)->dataset.SequenceNames();
  if (spec.fleet) {
    VDRIFT_RETURN_NOT_OK(RunFleet(spec, ctx, bench->get(), options, &pass));
  } else {
    VDRIFT_RETURN_NOT_OK(RunSingle(spec, ctx, bench->get(), options, &pass));
  }
  return pass;
}

}  // namespace perfbench
