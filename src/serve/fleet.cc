#include "serve/fleet.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/labels.h"
#include "pipeline/checkpoint.h"
#include "runtime/parallel.h"

namespace vdrift::serve {

namespace {

// Counter families folded from labeled per-stream series into unlabeled
// fleet aggregates at every round barrier. These are exactly the families
// the pipeline increments as counters; its remaining degradation state is
// exported as gauges, which do not sum.
constexpr const char* kAggregatedCounters[] = {
    "vdrift.pipeline.frames",
    "vdrift.pipeline.drifts",
    "vdrift.pipeline.frames_dropped",
    "vdrift.pipeline.selection_failures",
    "vdrift.pipeline.redeployments",
    "vdrift.pipeline.checkpoint_failures",
};

}  // namespace

DriftFleet::DriftFleet(const FleetOptions& options)
    : options_(options),
      registry_(std::make_shared<obs::MetricsRegistry>()) {
  // vdrift-lint: allow(no-data-dependent-check): config wiring contract
  VDRIFT_CHECK(options_.slice_frames > 0 && options_.max_concurrent > 0)
      << "fleet needs a positive slice size and concurrency";
  health_policy_.max_restarts = options_.max_restarts;
  health_policy_.backoff_base = options_.backoff_base;
  if (options_.sample_interval_rounds > 0) {
    obs::MetricsSampler::Options sampler_options;
    sampler_options.max_windows = options_.max_windows;
    sampler_options.jsonl_path = options_.jsonl_path;
    sampler_ = std::make_shared<obs::MetricsSampler>(registry_.get(),
                                                     sampler_options);
    if (!options_.slo_spec.empty()) {
      Result<std::vector<obs::SloRule>> rules =
          obs::ParseSloSpec(options_.slo_spec);
      if (rules.ok()) {
        watchdog_ =
            std::make_shared<obs::HealthWatchdog>(std::move(rules).value());
      } else {
        // A typo'd SLO spec must not kill the serving fleet.
        VDRIFT_LOG_WARNING << "fleet SLO watchdog disabled: "
                           << rules.status().ToString();
      }
    }
  }
}

DriftFleet::~DriftFleet() = default;

Status DriftFleet::AddBaseModel(
    const select::ModelEntry& entry,
    const std::vector<select::LabeledFrame>& sample) {
  if (!shards_.empty()) {
    return Status::FailedPrecondition(
        "base models must be published before any stream is added");
  }
  if (!Publish(entry, sample)) {
    return Status::InvalidArgument("base model name already published: " +
                                   entry.name);
  }
  base_models_ += 1;
  lineage_.push_back(ModelLineage{entry.name, "", -1});
  return Status::OK();
}

Status DriftFleet::AddBaseModels(
    const select::ModelRegistry& registry,
    const std::vector<std::vector<select::LabeledFrame>>& samples) {
  if (static_cast<int>(samples.size()) != registry.size()) {
    return Status::InvalidArgument(
        "one calibration sample per registry entry required");
  }
  for (int i = 0; i < registry.size(); ++i) {
    VDRIFT_RETURN_NOT_OK(
        AddBaseModel(registry.at(i), samples[static_cast<size_t>(i)]));
  }
  return Status::OK();
}

bool DriftFleet::Publish(const select::ModelEntry& entry,
                         const std::vector<select::LabeledFrame>& sample) {
  if (FindPublished(entry.name) != nullptr) return false;
  published_.push_back(PublishedModel{entry, sample});
  return true;
}

const PublishedModel* DriftFleet::FindPublished(
    const std::string& name) const {
  for (const PublishedModel& published : published_) {
    if (published.entry.name == name) return &published;
  }
  return nullptr;
}

DriftFleet::Shard* DriftFleet::FindShard(const std::string& label) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->label == label) return shard.get();
  }
  return nullptr;
}

const select::ModelRegistry* DriftFleet::shard_registry(
    const std::string& label) const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->label == label) return shard->registry.get();
  }
  return nullptr;
}

Status DriftFleet::BuildShardPipeline(
    Shard* shard, const std::vector<std::string>& fingerprint) {
  auto registry = std::make_unique<select::ModelRegistry>();
  std::vector<std::vector<select::LabeledFrame>> samples;
  samples.reserve(fingerprint.size());
  for (const std::string& name : fingerprint) {
    const PublishedModel* found = FindPublished(name);
    if (found == nullptr) {
      return Status::DataLoss("model '" + name +
                              "' is not in the shared registry; cannot "
                              "rebuild shard " +
                              shard->label);
    }
    registry->Add(found->entry);
    samples.push_back(found->calibration_sample);
  }
  pipeline::PipelineConfig config = options_.pipeline;
  config.trained_model_prefix = shard->label + ".learned-";
  config.injector = shard->injector;
  // Streams are independent processes of the same fleet: distinct DI seeds
  // per shard, derived deterministically from the template seed.
  config.seed = options_.pipeline.seed + static_cast<uint64_t>(shard->index);
  // Per-shard obs: record into the shared registry under the stream label.
  // Per-shard samplers/watchdogs stay off — the fleet runs one sampler
  // over the shared registry at round granularity instead.
  config.obs = pipeline::PipelineObsOptions{};
  config.obs.stream_label = shard->label;
  config.obs.shared_registry = registry_;
  auto pipeline = std::make_unique<pipeline::DriftAwarePipeline>(
      registry.get(), samples, config);
  shard->registry = std::move(registry);
  shard->pipeline = std::move(pipeline);
  shard->synced_entries = shard->registry->size();
  return Status::OK();
}

Status DriftFleet::AddStream(const StreamSpec& spec) {
  if (spec.stream == nullptr) {
    return Status::InvalidArgument("stream '" + spec.label + "' is null");
  }
  if (spec.label.empty()) {
    return Status::InvalidArgument("stream label must be non-empty");
  }
  if (FindShard(spec.label) != nullptr) {
    return Status::InvalidArgument("duplicate stream label: " + spec.label);
  }
  if (published_.empty()) {
    return Status::FailedPrecondition(
        "publish base models before adding streams");
  }
  auto shard = std::make_unique<Shard>();
  shard->label = spec.label;
  shard->stream = spec.stream;
  shard->injector = spec.injector;
  shard->index = static_cast<int>(shards_.size());
  shard->initial_fingerprint.reserve(published_.size());
  for (const PublishedModel& published : published_) {
    shard->initial_fingerprint.push_back(published.entry.name);
  }
  if (!options_.checkpoint_dir.empty()) {
    shard->checkpoint_path =
        options_.checkpoint_dir + "/" + shard->label + ".ckpt";
  }
  VDRIFT_RETURN_NOT_OK(BuildShardPipeline(shard.get(),
                                          shard->initial_fingerprint));
  shards_.push_back(std::move(shard));
  return Status::OK();
}

Status DriftFleet::RebuildShard(Shard* shard) {
  shard->pipeline.reset();
  shard->registry.reset();
  shard->slice_status = Status::OK();
  if (!shard->checkpoint_path.empty()) {
    Result<pipeline::PipelineCheckpoint> checkpoint =
        pipeline::ReadCheckpointFile(shard->checkpoint_path, shard->injector);
    if (checkpoint.ok()) {
      Status built =
          BuildShardPipeline(shard, checkpoint.value().registry_fingerprint);
      if (built.ok()) {
        Status resumed =
            shard->pipeline->Resume(shard->checkpoint_path, shard->stream);
        if (resumed.ok()) {
          shard->prev_degradation_events =
              shard->pipeline->metrics().degradation.total_events();
          return Status::OK();
        }
        VDRIFT_LOG_WARNING << "shard " << shard->label
                           << " resume failed, cold-starting: "
                           << resumed.ToString();
      } else if (built.code() != StatusCode::kDataLoss) {
        // Missing published models degrade to cold start; anything else
        // is a wiring error worth surfacing.
        return built;
      }
    } else {
      VDRIFT_LOG_WARNING << "shard " << shard->label
                         << " checkpoint unreadable, cold-starting: "
                         << checkpoint.status().ToString();
    }
  }
  // Cold start: the shard replays its stream from the beginning against a
  // fresh registry of its initial models. Its labeled counters keep
  // accumulating (the shared registry outlives the shard), so the books
  // stay monotonic — the report's per-stream metrics restart from the
  // pipeline's cold state.
  shard->pipeline.reset();
  shard->registry.reset();
  VDRIFT_RETURN_NOT_OK(BuildShardPipeline(shard, shard->initial_fingerprint));
  shard->stream->Reset();
  shard->prev_degradation_events = 0;
  return Status::OK();
}

Status DriftFleet::KillShard(Shard* shard, const Status& cause) {
  if (!shard->health.Serving()) return Status::OK();
  if (!shard->health.GrantRestart(health_policy_)) {
    return QuarantineShard(shard, cause);
  }
  shard_restarts_ += 1;
  registry_->GetCounter("vdrift.fleet.shard_restarts").Increment();
  VDRIFT_RETURN_NOT_OK(RebuildShard(shard));
  ExportHealth(shard);
  return Status::OK();
}

Status DriftFleet::QuarantineShard(Shard* shard, const Status& cause) {
  // Restore-then-park: the last checkpoint (or a cold start when it is
  // unusable) gives the quarantined shard a well-defined cursor, so the
  // loss books close exactly — everything past the cursor is counted as
  // quarantined, nothing is silently dropped.
  VDRIFT_RETURN_NOT_OK(RebuildShard(shard));
  shard->health.state = HealthState::kQuarantined;
  shard->health.backoff_remaining = 0;
  shard->fail_status = cause;
  shard->quarantined_frames =
      shard->stream->total_frames() - shard->stream->position();
  if (shard->quarantined_frames < 0) shard->quarantined_frames = 0;
  quarantined_frames_ += shard->quarantined_frames;
  obs::MetricsRegistry& reg = *registry_;
  reg.GetCounter("vdrift.serve.quarantined").Increment();
  reg.GetCounter("vdrift.serve.quarantine_dropped_frames",
                 {{"stream", shard->label}})
      .Increment(shard->quarantined_frames);
  reg.GetCounter("vdrift.serve.quarantine_dropped_frames")
      .Increment(shard->quarantined_frames);
  ExportHealth(shard);
  VDRIFT_LOG_WARNING << "shard " << shard->label
                     << " quarantined after exhausting " <<
      options_.max_restarts << " restarts (" << shard->quarantined_frames
                     << " frames unserved): " << cause.ToString();
  return Status::OK();
}

Status DriftFleet::PublishShardModels(Shard* shard) {
  const select::ModelRegistry& registry = *shard->registry;
  const auto& samples = shard->pipeline->calibration_samples();
  // Incumbents are the entries the shard held at the last barrier, i.e.
  // everything it adopted or started with.
  const int incumbents_end = shard->synced_entries;
  for (int i = shard->synced_entries; i < registry.size(); ++i) {
    const std::vector<select::LabeledFrame> sample =
        i < static_cast<int>(samples.size())
            ? samples[static_cast<size_t>(i)]
            : std::vector<select::LabeledFrame>{};
    std::vector<const select::ModelEntry*> incumbents;
    incumbents.reserve(static_cast<size_t>(incumbents_end));
    for (int j = 0; j < incumbents_end; ++j) {
      incumbents.push_back(&registry.at(j));
    }
    GateVerdict verdict = EvaluatePublication(registry.at(i), sample,
                                              incumbents,
                                              options_.publication_gate);
    if (!verdict.accepted) {
      // The fleet falls back to the incumbents: the candidate stays
      // private to the shard that trained it and is never adoptable.
      publish_rejected_ += 1;
      registry_->GetCounter("vdrift.serve.publish_rejected").Increment();
      registry_
          ->GetCounter("vdrift.serve.publish_rejected",
                       {{"reason", verdict.reason}})
          .Increment();
      VDRIFT_LOG_WARNING << "publication gate rejected '"
                         << registry.at(i).name << "' from stream "
                         << shard->label << " (" << verdict.reason
                         << "): candidate accuracy "
                         << verdict.candidate_accuracy << " vs incumbent "
                         << verdict.incumbent_accuracy;
      continue;
    }
    if (Publish(registry.at(i), sample)) {
      models_published_ += 1;
      registry_->GetCounter("vdrift.fleet.models_published").Increment();
      lineage_.push_back(
          ModelLineage{registry.at(i).name, shard->label, rounds_});
    }
  }
  shard->synced_entries = registry.size();
  return Status::OK();
}

Status DriftFleet::AdoptPublished(Shard* shard) {
  // Publication order is append order, so every shard adopts in the same
  // deterministic order no matter which stream trained what.
  for (const PublishedModel& published : published_) {
    if (shard->registry->FindByName(published.entry.name) >= 0) continue;
    VDRIFT_RETURN_NOT_OK(shard->pipeline->AdoptModel(
        published.entry, published.calibration_sample));
    models_adopted_ += 1;
    registry_->GetCounter("vdrift.fleet.models_adopted").Increment();
  }
  shard->synced_entries = shard->registry->size();
  return Status::OK();
}

void DriftFleet::AggregateShard(Shard* shard) {
  for (const char* family : kAggregatedCounters) {
    int64_t current =
        registry_->GetCounter(family, {{"stream", shard->label}}).value();
    int64_t& previous = shard->prev_counters[family];
    if (current != previous) {
      registry_->GetCounter(family).Increment(current - previous);
      previous = current;
    }
  }
}

void DriftFleet::ExportHealth(Shard* shard) {
  registry_->GetGauge("vdrift.serve.health", {{"stream", shard->label}})
      .Set(static_cast<double>(shard->health.state));
}

Status DriftFleet::WriteManifest(const std::deque<int>& ready) {
  FleetManifest manifest;
  manifest.next_round = rounds_;
  manifest.backpressure_waits = backpressure_waits_;
  manifest.models_published = models_published_;
  manifest.models_adopted = models_adopted_;
  manifest.shard_restarts = shard_restarts_;
  manifest.publish_rejected = publish_rejected_;
  manifest.quarantined_frames = quarantined_frames_;
  manifest.slice_frames = options_.slice_frames;
  manifest.shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardManifest row;
    row.label = shard->label;
    row.checkpoint_path = shard->checkpoint_path;
    row.health = static_cast<uint8_t>(shard->health.state);
    row.restarts = shard->health.restarts;
    row.backoff_remaining = shard->health.backoff_remaining;
    row.slices = shard->slices;
    row.fail_code = static_cast<int32_t>(shard->fail_status.code());
    row.fail_message = shard->fail_status.message();
    manifest.shards.push_back(std::move(row));
  }
  manifest.ready.assign(ready.begin(), ready.end());
  manifest.lineage = lineage_;
  Status written = WriteFleetManifestFile(manifest, options_.manifest_path);
  if (written.ok()) {
    registry_->GetCounter("vdrift.serve.manifest_writes").Increment();
  } else {
    // A manifest write failure degrades crash recovery, not serving.
    registry_->GetCounter("vdrift.serve.manifest_write_failures").Increment();
    VDRIFT_LOG_WARNING << "fleet manifest write failed: "
                       << written.ToString();
  }
  return Status::OK();
}

Status DriftFleet::ResumeFromManifest(const FleetManifest& manifest,
                                      std::deque<int>* ready) {
  // Validate everything against the wired fleet before mutating any shard.
  if (manifest.shards.size() != shards_.size()) {
    return Status::FailedPrecondition(
        "fleet manifest has " + std::to_string(manifest.shards.size()) +
        " shards, fleet has " + std::to_string(shards_.size()));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (manifest.shards[i].label != shards_[i]->label) {
      return Status::FailedPrecondition(
          "fleet manifest shard " + std::to_string(i) + " is '" +
          manifest.shards[i].label + "', fleet has '" + shards_[i]->label +
          "'");
    }
    if (manifest.shards[i].checkpoint_path !=
        shards_[i]->checkpoint_path) {
      return Status::FailedPrecondition(
          "fleet manifest checkpoint path mismatch for shard '" +
          shards_[i]->label + "'");
    }
  }
  if (manifest.slice_frames != options_.slice_frames) {
    return Status::FailedPrecondition(
        "fleet manifest slice_frames " +
        std::to_string(manifest.slice_frames) + " != configured " +
        std::to_string(options_.slice_frames));
  }
  for (const ModelLineage& entry : manifest.lineage) {
    if (entry.round >= 0) {
      // Learned-model weights are deliberately not persisted (the
      // checkpoint limitation, PipelineCheckpoint docs) — a coordinator
      // resume cannot reconstruct them, so the caller falls back to a
      // fresh full run, which replays to the identical end state.
      return Status::DataLoss("fleet manifest references learned model '" +
                              entry.name + "'; resume cannot restore "
                              "trained weights — run fresh");
    }
    if (FindPublished(entry.name) == nullptr) {
      return Status::FailedPrecondition(
          "fleet manifest base model '" + entry.name +
          "' is not published in this fleet");
    }
  }
  // Apply. Every shard is rebuilt from its checkpoint; RebuildShard's
  // cold-start fallback keeps a damaged per-shard checkpoint from failing
  // the resume (the shard replays, deterministically).
  rounds_ = manifest.next_round;
  backpressure_waits_ = manifest.backpressure_waits;
  models_published_ = manifest.models_published;
  models_adopted_ = manifest.models_adopted;
  shard_restarts_ = manifest.shard_restarts;
  publish_rejected_ = manifest.publish_rejected;
  quarantined_frames_ = manifest.quarantined_frames;
  lineage_ = manifest.lineage;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    const ShardManifest& row = manifest.shards[i];
    shard->health.state = static_cast<HealthState>(row.health);
    shard->health.restarts = row.restarts;
    shard->health.backoff_remaining = row.backoff_remaining;
    shard->slices = row.slices;
    shard->fail_status =
        row.fail_code == 0
            ? Status::OK()
            : Status(static_cast<StatusCode>(row.fail_code),
                     row.fail_message);
    shard->done = shard->health.state == HealthState::kRetired;
    VDRIFT_RETURN_NOT_OK(RebuildShard(shard));
    if (shard->health.state == HealthState::kQuarantined) {
      shard->quarantined_frames =
          shard->stream->total_frames() - shard->stream->position();
      if (shard->quarantined_frames < 0) shard->quarantined_frames = 0;
    }
    ExportHealth(shard);
  }
  ready->assign(manifest.ready.begin(), manifest.ready.end());
  return Status::OK();
}

Result<FleetReport> DriftFleet::Run() {
  if (shards_.empty()) {
    return Status::FailedPrecondition("fleet has no streams");
  }
  for (const CrashDrill& drill : options_.crash_drills) {
    if (FindShard(drill.stream) == nullptr) {
      return Status::InvalidArgument("crash drill targets unknown stream: " +
                                     drill.stream);
    }
  }
  for (const fault::ChaosEvent& event : options_.chaos.events) {
    if (!event.stream.empty() && FindShard(event.stream) == nullptr) {
      return Status::InvalidArgument("chaos event targets unknown stream: " +
                                     event.stream);
    }
  }
  if (!options_.manifest_path.empty() && options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "fleet manifest requires checkpoint_dir (the manifest references "
        "per-shard checkpoints)");
  }
  obs::MetricsRegistry& reg = *registry_;
  // Pre-register the unlabeled aggregates and supervision instruments so
  // the export always carries them, even at zero.
  for (const char* family : kAggregatedCounters) {
    reg.GetCounter(family);
  }
  reg.GetCounter("vdrift.serve.publish_rejected");
  reg.GetCounter("vdrift.serve.quarantined");
  reg.GetCounter("vdrift.serve.quarantine_dropped_frames");
  obs::Gauge& active_gauge = reg.GetGauge("vdrift.fleet.active_streams");
  obs::Counter& rounds_counter = reg.GetCounter("vdrift.fleet.rounds");
  obs::Counter& waits_counter =
      reg.GetCounter("vdrift.fleet.backpressure_waits");

  bool resumed = false;
  std::deque<int> ready;
  Result<FleetManifest> manifest = options_.manifest_path.empty()
                                       ? Status::NotFound("manifest off")
                                       : ReadFleetManifestFile(
                                             options_.manifest_path);
  if (!options_.manifest_path.empty() &&
      manifest.status().code() != StatusCode::kIoError) {
    // kIoError = no manifest on disk yet (first run); anything else is a
    // manifest that exists and must either resume or fall back loudly.
    Status applied = manifest.ok()
                         ? ResumeFromManifest(manifest.value(), &ready)
                         : manifest.status();
    if (applied.ok()) {
      resumed = true;
      VDRIFT_LOG_INFO << "fleet resumed from manifest at round " << rounds_;
    } else {
      // Self-healing: a damaged or stale manifest falls back to a fresh
      // full run, which replays every stream to the identical end state.
      reg.GetCounter("vdrift.serve.manifest_resume_failures").Increment();
      VDRIFT_LOG_WARNING << "fleet manifest resume failed, running fresh: "
                         << applied.ToString();
      ready.clear();
      rounds_ = 0;
      backpressure_waits_ = 0;
      models_published_ = 0;
      models_adopted_ = 0;
      shard_restarts_ = 0;
      publish_rejected_ = 0;
      quarantined_frames_ = 0;
      // Keep only base-model lineage (publication order puts it first).
      lineage_.resize(static_cast<size_t>(base_models_));
      for (const std::unique_ptr<Shard>& shard : shards_) {
        shard->health = ShardHealth{};
        shard->slices = 0;
        shard->done = false;
        shard->fail_status = Status::OK();
        shard->quarantined_frames = 0;
        shard->prev_degradation_events = 0;
        shard->alerted = false;
        VDRIFT_RETURN_NOT_OK(
            BuildShardPipeline(shard.get(), shard->initial_fingerprint));
        shard->stream->Reset();
      }
    }
  }
  if (!resumed) {
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      ready.push_back(i);
    }
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ExportHealth(shard.get());
  }

  auto remove_from_ready = [&ready](int index) {
    ready.erase(std::remove(ready.begin(), ready.end(), index), ready.end());
  };
  auto any_parked = [this]() {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->health.state == HealthState::kRestarting) return true;
    }
    return false;
  };
  auto build_report = [this, resumed](bool halted,
                                      int64_t halted_round) {
    FleetReport report;
    report.rounds = rounds_;
    report.backpressure_waits = backpressure_waits_;
    report.models_published = models_published_;
    report.models_adopted = models_adopted_;
    report.shard_restarts = shard_restarts_;
    report.publish_rejected = publish_rejected_;
    report.quarantined_frames = quarantined_frames_;
    report.halted = halted;
    report.halted_round = halted_round;
    report.resumed = resumed;
    report.streams.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
      StreamReport stream_report;
      stream_report.label = shard->label;
      stream_report.status =
          shard->health.state == HealthState::kQuarantined
              ? shard->fail_status
              : Status::OK();
      stream_report.health = shard->health.state;
      if (shard->pipeline != nullptr) {
        stream_report.metrics = shard->pipeline->metrics();
      }
      stream_report.frames = shard->stream->position();
      stream_report.slices = shard->slices;
      stream_report.restarts = shard->health.restarts;
      stream_report.quarantined_frames = shard->quarantined_frames;
      report.streams.push_back(std::move(stream_report));
    }
    return report;
  };

  while (!ready.empty() || any_parked()) {
    const int64_t round = rounds_;
    // Chaos events and scheduled crash drills fire between rounds, before
    // admission. Order within a round: manifest corruption first (so a
    // coordinator kill in the same round resumes from damaged bytes —
    // the self-healing path), then the coordinator kill, then per-shard
    // events in draw order.
    const std::vector<fault::ChaosEvent> events =
        options_.chaos.EventsAt(round);
    for (const fault::ChaosEvent& event : events) {
      if (event.kind != fault::ChaosKind::kCorruptManifest) continue;
      if (options_.manifest_path.empty()) continue;
      // kIoError here just means no manifest has been written yet.
      Status corrupted = fault::CorruptFileForChaos(
          options_.manifest_path,
          options_.pipeline.seed ^ (static_cast<uint64_t>(round) * 0x9E3779B9u));
      if (!corrupted.ok() && corrupted.code() != StatusCode::kIoError) {
        VDRIFT_LOG_WARNING << "chaos manifest corruption failed: "
                           << corrupted.ToString();
      }
    }
    for (const fault::ChaosEvent& event : events) {
      if (event.kind == fault::ChaosKind::kKillCoordinator) {
        // The coordinator dies between rounds: the manifest written at the
        // last barrier is the recovery point. Nothing of this round ran.
        VDRIFT_LOG_WARNING << "chaos killed the coordinator at round "
                           << round;
        return build_report(/*halted=*/true, round);
      }
    }
    for (const fault::ChaosEvent& event : events) {
      Shard* shard =
          event.stream.empty() ? nullptr : FindShard(event.stream);
      switch (event.kind) {
        case fault::ChaosKind::kKillShard: {
          if (shard == nullptr || !shard->health.Serving()) break;
          remove_from_ready(shard->index);
          VDRIFT_RETURN_NOT_OK(KillShard(
              shard, Status::Internal("chaos kill at round " +
                                      std::to_string(round))));
          break;
        }
        case fault::ChaosKind::kCorruptCheckpoint: {
          if (shard == nullptr || shard->checkpoint_path.empty()) break;
          Status corrupted = fault::CorruptFileForChaos(
              shard->checkpoint_path,
              options_.pipeline.seed ^
                  (static_cast<uint64_t>(round) * 0x85EBCA6Bu) ^
                  static_cast<uint64_t>(shard->index));
          if (!corrupted.ok() && corrupted.code() != StatusCode::kIoError) {
            VDRIFT_LOG_WARNING << "chaos checkpoint corruption failed: "
                               << corrupted.ToString();
          }
          break;
        }
        default:
          break;
      }
    }
    for (const CrashDrill& drill : options_.crash_drills) {
      if (drill.round != round) continue;
      Shard* shard = FindShard(drill.stream);
      if (!shard->health.Serving()) continue;
      remove_from_ready(shard->index);
      VDRIFT_RETURN_NOT_OK(KillShard(
          shard, Status::Internal("crash drill at round " +
                                  std::to_string(round))));
    }
    // Admission control: up to max_concurrent shards run this round; the
    // rest stay queued and each queued shard counts one backpressure wait.
    size_t admit = std::min<size_t>(
        static_cast<size_t>(options_.max_concurrent), ready.size());
    std::vector<int> admitted(ready.begin(),
                              ready.begin() + static_cast<long>(admit));
    ready.erase(ready.begin(), ready.begin() + static_cast<long>(admit));
    backpressure_waits_ += static_cast<int64_t>(ready.size());
    waits_counter.Increment(static_cast<int64_t>(ready.size()));
    active_gauge.Set(static_cast<double>(admitted.size()));
    // One cooperative slice per admitted shard, in parallel. Shards share
    // models only through const inference and the registry is thread-safe;
    // cross-stream effects (publication/adoption) happen only at the
    // barrier below — so the outcome is independent of VDRIFT_THREADS.
    runtime::ParallelFor(
        0, static_cast<int64_t>(admitted.size()), 1,
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            Shard& shard = *shards_[static_cast<size_t>(
                admitted[static_cast<size_t>(i)])];
            pipeline::RunOptions slice;
            slice.max_frames = options_.slice_frames;
            Result<pipeline::PipelineMetrics> result =
                shard.pipeline->Run(shard.stream, slice);
            shard.slice_status = result.status();
            shard.slices += 1;
          }
        });
    // --- Round barrier, fleet thread, admission order. ---
    // 1. Gate + publish models trained this round (even by a shard whose
    //    slice later failed — a completed model is valid).
    for (int index : admitted) {
      VDRIFT_RETURN_NOT_OK(PublishShardModels(shards_[static_cast<size_t>(
          index)].get()));
    }
    // 2. Restore shards whose slice failed (their last checkpoint predates
    //    the failed slice); a shard out of restart budget is quarantined.
    for (int index : admitted) {
      Shard& shard = *shards_[static_cast<size_t>(index)];
      if (shard.slice_status.ok()) continue;
      VDRIFT_RETURN_NOT_OK(KillShard(&shard, shard.slice_status));
    }
    // 3. Every live shard (including parked restarts — they must be
    //    model-aligned before readmission) adopts every published model it
    //    is missing, so any stream can serve any drift.
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->health.Terminal() || shard->done) continue;
      VDRIFT_RETURN_NOT_OK(AdoptPublished(shard.get()));
    }
    // 4. Checkpoint after adoption so the serialized registry fingerprint
    //    matches the shard's live registry.
    if (!options_.checkpoint_dir.empty()) {
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->health.Terminal() || shard->done) continue;
        Status written = shard->pipeline->Checkpoint(shard->checkpoint_path,
                                                     *shard->stream);
        if (!written.ok()) {
          // Already counted in the shard's degradation stats; the shard
          // keeps serving and the next barrier retries.
          VDRIFT_LOG_WARNING << "shard " << shard->label
                             << " checkpoint failed: " << written.ToString();
        }
      }
    }
    // 5. Fold labeled deltas into the fleet aggregates, tick the fleet
    //    sampler on the admitted-frame clock, map per-stream SLO alerts
    //    back to their shards, and advance the health machines.
    for (const std::unique_ptr<Shard>& shard : shards_) {
      AggregateShard(shard.get());
    }
    rounds_ += 1;
    rounds_counter.Increment();
    if (sampler_ != nullptr &&
        rounds_ % options_.sample_interval_rounds == 0) {
      obs::MetricsWindow window = sampler_->Sample(static_cast<double>(
          reg.GetCounter("vdrift.pipeline.frames").value()));
      if (watchdog_ != nullptr) {
        for (const obs::AlertEvent& alert : watchdog_->Evaluate(window)) {
          reg.GetCounter("vdrift.slo.alerts", {{"rule", alert.rule}})
              .Increment();
          VDRIFT_LOG_WARNING << "fleet SLO alert: " << alert.message;
          // Alert wiring: a rule whose numerator carries {stream="..."}
          // supervises exactly one shard — degrade it.
          const obs::SloRule* rule = watchdog_->FindRule(alert.rule);
          if (rule == nullptr) continue;
          Result<obs::MetricKey> key =
              obs::ParseMetricKey(rule->numerator.metric);
          if (!key.ok()) continue;
          for (const obs::Label& label : key.value().labels) {
            if (label.first != "stream") continue;
            Shard* shard = FindShard(label.second);
            if (shard != nullptr) shard->alerted = true;
          }
        }
      }
    }
    for (int index : admitted) {
      Shard& shard = *shards_[static_cast<size_t>(index)];
      if (!shard.health.Serving()) continue;  // Killed at the barrier.
      const int64_t events_now =
          shard.pipeline->metrics().degradation.total_events();
      const bool degraded =
          events_now > shard.prev_degradation_events || shard.alerted;
      shard.prev_degradation_events = events_now;
      shard.alerted = false;
      shard.health.ObserveRound(degraded);
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->alerted && shard->health.Serving()) {
        shard->health.ObserveRound(/*degraded_this_round=*/true);
      }
      shard->alerted = false;
      ExportHealth(shard.get());
    }
    // 6. Requeue / retire / tick restart backoffs. A shard is done when
    //    its stream is exhausted and no drift handling is parked across
    //    the slice boundary; a parked shard rejoins the queue (in shard
    //    order) once its backoff expires.
    for (int index : admitted) {
      Shard& shard = *shards_[static_cast<size_t>(index)];
      if (!shard.health.Serving()) continue;
      if (shard.stream->position() >= shard.stream->total_frames() &&
          !shard.pipeline->recovery_pending()) {
        shard.done = true;
        shard.health.Retire();
        ExportHealth(&shard);
        continue;
      }
      ready.push_back(index);
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->health.state != HealthState::kRestarting) continue;
      if (shard->health.TickBackoff()) {
        ready.push_back(shard->index);
        ExportHealth(shard.get());
      }
    }
    // 7. Persist the recovery point.
    if (!options_.manifest_path.empty()) {
      VDRIFT_RETURN_NOT_OK(WriteManifest(ready));
    }
  }
  // Close the final partial sampler window so the exported series covers
  // every admitted frame.
  if (sampler_ != nullptr) {
    sampler_->Sample(static_cast<double>(
        reg.GetCounter("vdrift.pipeline.frames").value()));
  }
  return build_report(/*halted=*/false, /*halted_round=*/-1);
}

}  // namespace vdrift::serve
