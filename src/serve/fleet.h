#ifndef VDRIFT_SERVE_FLEET_H_
#define VDRIFT_SERVE_FLEET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ensemble.h"
#include "core/registry.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "pipeline/pipeline.h"
#include "serve/supervisor.h"
#include "video/stream.h"

namespace vdrift::serve {

/// \brief One stream joining the fleet.
struct StreamSpec {
  /// Unique label; becomes the {stream="..."} dimension of every metric
  /// series and the per-stream trained-model name prefix.
  std::string label;
  /// The frame source (not owned; must outlive the fleet). Resume support
  /// requires its Reset() to be a bit-identical replay.
  video::FrameSource* stream = nullptr;
  /// Optional per-stream fault source (not owned). The injector is not
  /// thread-safe, so it must not be shared between streams — faults on one
  /// stream must never perturb another stream's draw sequence.
  fault::FaultInjector* injector = nullptr;
};

/// \brief Fleet configuration.
struct FleetOptions {
  /// Template pipeline config applied to every shard. The fleet overrides
  /// per-shard fields: trained_model_prefix ("<label>.learned-"), injector,
  /// seed (template seed + shard index), and the obs wiring (shared
  /// registry + stream label; per-shard samplers are disabled — the fleet
  /// runs one sampler over the shared registry instead).
  pipeline::PipelineConfig pipeline;
  /// Frames each admitted shard processes per scheduling round (one
  /// cooperative slice). RunOptions::max_frames semantics: a slice never
  /// overshoots, even when a drift lands mid-slice.
  int64_t slice_frames = 64;
  /// Admission control: shards running concurrently per round. Shards
  /// beyond this wait in the bounded ready queue; each wait increments
  /// vdrift.fleet.backpressure_waits.
  int max_concurrent = 4;
  /// Restart budget + exponential backoff (supervisor.h). A shard that
  /// crashes with the budget exhausted is quarantined: restored to its
  /// last checkpoint for exact accounting, then never scheduled again —
  /// its unserved frames are counted, not silently lost.
  HealthPolicy health;
  /// Publication quality gate in front of the shared registry (rejects
  /// non-finite, uncalibrated, or below-margin models before any other
  /// shard can adopt them).
  PublicationGateOptions publication_gate;
  /// Directory for per-stream checkpoint files ("" disables
  /// checkpointing; crash recovery then falls back to a cold start).
  std::string checkpoint_dir;
  /// Fleet manifest path ("" disables coordinator crash recovery). When
  /// set, the manifest is written atomically at every round barrier and
  /// Run() auto-resumes from it when the file exists. Requires
  /// checkpoint_dir (the manifest references per-shard checkpoints).
  std::string manifest_path;
  /// Fleet sampler cadence in rounds over the shared registry (0 disables
  /// the sampler, and with it the watchdog).
  int sample_interval_rounds = 0;
  /// Sampler ring capacity.
  int max_windows = 1024;
  /// Fleet-level SLO spec (obs::ParseSloSpec grammar; "default" arms
  /// obs::DefaultSloSpec()). Evaluated on every sampled window.
  std::string slo_spec;
  /// Per-window JSONL sink for the fleet sampler ("" disables).
  std::string jsonl_path;
  /// Chaos schedule, seed-driven (ChaosPlan::FromSeed) or written by hand:
  /// kill shards, corrupt checkpoints / manifests, kill the coordinator. A
  /// kKillShard event at round r destroys the shard's pipeline and registry
  /// and rebuilds them from its last checkpoint, exactly as if it had
  /// crashed between rounds. Empty = no chaos.
  fault::ChaosPlan chaos;
};

/// \brief One stream's outcome.
struct StreamReport {
  std::string label;
  Status status = Status::OK();  ///< The quarantine cause when quarantined.
  HealthState health = HealthState::kHealthy;  ///< Final supervision state.
  pipeline::PipelineMetrics metrics;  ///< Cumulative pipeline metrics.
  int64_t frames = 0;    ///< Stream cursor at the end (frames consumed).
  int64_t slices = 0;    ///< Scheduling slices the shard ran.
  int restarts = 0;      ///< Chaos kills + failed-slice restarts consumed.
  /// Frames the quarantine refused to serve (stream total - checkpoint
  /// cursor). Loss accounting stays exact:
  ///   metrics.count_total + metrics.degradation.frames_dropped
  ///     + quarantined_frames == stream total.
  int64_t quarantined_frames = 0;
};

/// \brief Fleet-level outcome: the fleet's counters plus per-stream reports.
struct FleetReport : FleetCounters {
  std::vector<StreamReport> streams;  ///< In AddStream order.
  /// True when a chaos kKillCoordinator event halted the run mid-fleet;
  /// the manifest on disk resumes it (construct a fresh fleet with the
  /// same options + streams and call Run() again).
  bool halted = false;
  int64_t halted_round = -1;
  /// True when this Run() resumed from a manifest instead of starting
  /// fresh.
  bool resumed = false;
};

/// \brief One model published to every stream of the fleet: the entry
/// (sharing its models) plus the labeled calibration sample adopting
/// streams need to extend their MSBO calibration.
struct PublishedModel {
  select::ModelEntry entry;
  std::vector<select::LabeledFrame> calibration_sample;
};

/// \brief Multi-stream drift-aware serving (ROADMAP item 1).
///
/// Multiplexes N concurrent streams over the deterministic thread pool.
/// Each stream owns a full DriftAwarePipeline shard — its own model
/// registry, DriftInspector and fault injector — while all shards share the
/// published models: a model trained for one stream's drift is published
/// at the next round barrier and becomes selectable by every stream. A
/// shard's registry holds the published entries themselves, not copies:
/// inference is const and stores nothing, so shards run the same model
/// objects concurrently.
///
/// Scheduling is bulk-synchronous: each round admits up to max_concurrent
/// ready shards, runs one fixed-size slice per shard in parallel
/// (ParallelFor — bit-identical at any VDRIFT_THREADS), then executes the
/// barrier on the fleet thread in admission order:
///   1. gate + publish models trained this round into the shared registry
///      (append order = deterministic adoption order),
///   2. restore shards whose slice failed (from their last checkpoint) or
///      quarantine them once the restart budget is exhausted,
///   3. adopt every published model each shard is missing,
///   4. checkpoint every live shard (after adoption, so the registry
///      fingerprint in the file matches the live registry),
///   5. export the fleet counters, the shard health gauges and the summed
///      degradation gauges (shards raise their {stream=...} counters and
///      the aggregates together), tick the fleet sampler/watchdog, and
///      advance every shard's health state,
///   6. requeue / retire / tick restart backoffs,
///   7. write the fleet manifest (when armed).
/// Models published in round r are visible to other shards at round r+1
/// regardless of thread count, which is what makes the fleet bit-identical
/// at VDRIFT_THREADS=1 and 8.
///
/// Not thread-safe itself: construct, add streams, and Run from one thread
/// (parallelism lives inside Run).
class DriftFleet {
 public:
  explicit DriftFleet(const FleetOptions& options);

  DriftFleet(const DriftFleet&) = delete;
  DriftFleet& operator=(const DriftFleet&) = delete;
  ~DriftFleet();

  /// Publishes a pre-provisioned base model every stream starts with
  /// (shared, not copied; `sample` is its MSBO calibration sample). Call
  /// before AddStream.
  Status AddBaseModel(const select::ModelEntry& entry,
                      const std::vector<select::LabeledFrame>& sample);

  /// Publishes every entry of a provisioned registry as base models.
  Status AddBaseModels(
      const select::ModelRegistry& registry,
      const std::vector<std::vector<select::LabeledFrame>>& samples);

  /// Adds a stream shard: adds every published entry to the shard's
  /// registry and builds its pipeline. Labels must be unique.
  Status AddStream(const StreamSpec& spec);

  /// Runs every stream to exhaustion (resuming from the fleet manifest
  /// first when one is armed and present). Returns the per-stream and
  /// fleet-level report; per-shard pipeline errors are contained (restart
  /// with backoff up to max_restarts, then quarantine), so Run itself only
  /// fails on fleet-level wiring errors.
  Result<FleetReport> Run();

  /// The shared metrics registry: per-stream labeled series plus unlabeled
  /// aggregates plus vdrift.fleet.* / vdrift.serve.* instruments.
  const std::shared_ptr<obs::MetricsRegistry>& registry() const {
    return registry_;
  }
  /// Every published model, in publication order.
  const std::vector<PublishedModel>& published() const { return published_; }
  /// The model registry of the stream labelled `label`, or nullptr.
  const select::ModelRegistry* shard_registry(const std::string& label) const;
  /// Fleet sampler / watchdog (null unless armed by FleetOptions).
  const std::shared_ptr<obs::MetricsSampler>& sampler() const {
    return sampler_;
  }
  const std::shared_ptr<obs::HealthWatchdog>& watchdog() const {
    return watchdog_;
  }

 private:
  /// One stream's private slice of the fleet. Its ShardManifest base
  /// (label, checkpoint path, health, slices, quarantine cause) is the
  /// shard's row in the fleet manifest.
  struct Shard : ShardManifest {
    video::FrameSource* stream = nullptr;
    fault::FaultInjector* injector = nullptr;
    int index = 0;  ///< AddStream order (per-shard seed derivation).
    /// The shard's registry: published entries plus the models it trained
    /// since the last barrier.
    std::unique_ptr<select::ModelRegistry> registry;
    std::unique_ptr<pipeline::DriftAwarePipeline> pipeline;
    /// Model names the shard starts with (cold-start fallback registry).
    std::vector<std::string> initial_fingerprint;
    /// Local registry size after the last barrier; entries beyond it were
    /// trained this round and are pending publication.
    int synced_entries = 0;
    /// DegradationStats::total_events() at the last health observation.
    int64_t prev_degradation_events = 0;
    /// A per-stream SLO rule breached since the last health observation.
    bool alerted = false;
    Status slice_status = Status::OK();
    bool done = false;  ///< Stream exhausted cleanly (health kRetired).
    int64_t quarantined_frames = 0;
  };

  Shard* FindShard(const std::string& label);
  /// Appends `entry` with its calibration sample to the published models.
  /// First writer wins by name: returns false (and publishes nothing) when
  /// a model of the same name is already published.
  bool Publish(const select::ModelEntry& entry,
               const std::vector<select::LabeledFrame>& sample);
  /// The published model named `name`, or nullptr.
  const PublishedModel* FindPublished(const std::string& name) const;
  /// Builds a shard pipeline over a fresh registry of published entries,
  /// one per fingerprint name, in fingerprint order.
  Status BuildShardPipeline(Shard* shard,
                            const std::vector<std::string>& fingerprint);
  /// Rebuild from the shard's checkpoint (cold-start from the initial
  /// fingerprint when the checkpoint is unusable). No restart accounting.
  Status RebuildShard(Shard* shard);
  /// Kill-and-rebuild with accounting: consumes one restart (entering
  /// kRestarting with backoff) or quarantines the shard when the budget
  /// is exhausted.
  Status KillShard(Shard* shard, const Status& cause);
  /// Restore-then-park: rebuild from the last checkpoint so the books
  /// close at a well-defined cursor, count the unserved tail as
  /// quarantined frames, and never schedule the shard again.
  Status QuarantineShard(Shard* shard, const Status& cause);
  /// Barrier step 1: gate + publish models the shard trained this round.
  Status PublishShardModels(Shard* shard);
  /// Barrier step 3: adopt published models the shard is missing.
  Status AdoptPublished(Shard* shard);
  /// Barrier step 5 and the report: raises each series counters_ feeds by
  /// its delta since the last export, sets every shard's health gauge, and
  /// sums each degradation gauge's {stream=...} series into its aggregate.
  void ExportMetrics();
  /// Barrier step 7: snapshot fleet state into the manifest file.
  Status WriteManifest(const std::deque<int>& ready);
  /// Applies a decoded manifest: validates it against the wired fleet,
  /// restores every shard from its checkpoint, and rebuilds the ready
  /// queue. kDataLoss / kFailedPrecondition mean "start fresh instead".
  Status ResumeFromManifest(const FleetManifest& manifest,
                            std::deque<int>* ready);

  FleetOptions options_;
  /// Written and read on the fleet thread only (AddBaseModel, AddStream
  /// and the barrier), never inside a slice, so it needs no lock.
  std::vector<PublishedModel> published_;
  int base_models_ = 0;  ///< Prefix published before any stream ran.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::MetricsSampler> sampler_;
  std::shared_ptr<obs::HealthWatchdog> watchdog_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ModelLineage> lineage_;  ///< In publication order.
  FleetCounters counters_;
  FleetCounters exported_;  ///< counters_ as of the last ExportMetrics.
};

}  // namespace vdrift::serve

#endif  // VDRIFT_SERVE_FLEET_H_
