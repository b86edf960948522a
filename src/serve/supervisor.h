#ifndef VDRIFT_SERVE_SUPERVISOR_H_
#define VDRIFT_SERVE_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/registry.h"

namespace vdrift::serve {

// ---------------------------------------------------------------------------
// Health state machine (DESIGN.md §5g)
// ---------------------------------------------------------------------------

/// \brief Per-shard supervision state.
///
///   healthy -> degraded      degradation events or an SLO alert this round
///   degraded -> healthy      one clean round
///   {healthy,degraded} -> restarting   a crash consumed one restart
///   restarting -> degraded   backoff expired; the shard is readmitted
///   any -> quarantined       a crash with the restart budget exhausted
///   {healthy,degraded} -> retired      stream exhausted cleanly
///
/// The numeric values are stable: they are exported verbatim as the
/// vdrift.serve.health{stream="..."} gauge and serialized into the fleet
/// manifest.
enum class HealthState : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kRestarting = 2,
  kQuarantined = 3,
  kRetired = 4,
};

/// Lowercase display name ("healthy", "degraded", ...).
const char* HealthStateName(HealthState state);

/// \brief Restart budget knobs (FleetOptions::health).
struct HealthPolicy {
  /// Restarts (chaos kills, failed slices) a shard may consume before its
  /// next crash quarantines it.
  int max_restarts = 2;
  /// Exponential backoff: restart k parks the shard for
  /// backoff_base << (k-1) rounds before readmission (0 disables parking).
  int backoff_base = 1;
};

/// \brief One shard's supervision state. Plain data plus the transition
/// rules — the fleet drives it, the manifest serializes it.
struct ShardHealth {
  HealthState state = HealthState::kHealthy;
  int restarts = 0;               ///< Restarts consumed so far.
  int64_t backoff_remaining = 0;  ///< Rounds left parked (kRestarting).

  /// True while the shard should be scheduled (healthy or degraded).
  bool Serving() const {
    return state == HealthState::kHealthy || state == HealthState::kDegraded;
  }
  /// True once the shard will never run again.
  bool Terminal() const {
    return state == HealthState::kQuarantined ||
           state == HealthState::kRetired;
  }

  /// A crash asked for a restart. Consumes one unit of budget and moves to
  /// kRestarting with exponential backoff when budget remains; moves to
  /// kQuarantined and returns false when the budget is exhausted.
  bool GrantRestart(const HealthPolicy& policy);

  /// One parked round elapsed. Returns true when the backoff expired and
  /// the shard should be readmitted (state moves to kDegraded: it must
  /// prove a clean round before it counts as healthy again).
  bool TickBackoff();

  /// End-of-round observation for a serving shard: degradation events or
  /// an SLO alert mark it degraded; a clean round heals it.
  void ObserveRound(bool degraded_this_round);

  /// Stream exhausted cleanly.
  void Retire();

  bool operator==(const ShardHealth&) const = default;
};

// ---------------------------------------------------------------------------
// Publication quality gate
// ---------------------------------------------------------------------------

/// \brief Gate knobs (FleetOptions carries one per fleet).
struct PublicationGateOptions {
  bool enabled = true;
  /// A candidate may trail the best incumbent's holdout accuracy by at
  /// most this margin. Negative margins demand the candidate *beat* the
  /// incumbent (tests use -1.0 to force rejection).
  double accuracy_margin = 0.1;
  /// Cap on holdout frames probed per model (bounds barrier cost).
  int max_holdout_frames = 64;
};

/// \brief One gate decision.
struct GateVerdict {
  bool accepted = true;
  /// Rejection reason, the {reason="..."} label of
  /// vdrift.serve.publish_rejected: "no_query_model", "empty_calibration",
  /// "nonfinite", or "below_margin". Empty when accepted.
  std::string reason;
  double candidate_accuracy = 0.0;
  double incumbent_accuracy = 0.0;  ///< Best incumbent on the same holdout.
};

/// Probes a candidate model before fleet-wide publication. The classifier
/// interface exposes no weights, so the gate is behavioral: it runs the
/// candidate's count model over its own calibration sample and rejects
/// (in check order) a missing query model, an empty calibration table,
/// any non-finite probability output, and holdout accuracy below the best
/// incumbent minus `options.accuracy_margin`.
///
/// `incumbents` are the entries the publishing shard held at the last
/// barrier. Probing runs const inference only, so these may be the
/// published objects other shards execute at the same time; the verdict
/// does not depend on the thread count.
GateVerdict EvaluatePublication(
    const select::ModelEntry& candidate,
    const std::vector<select::LabeledFrame>& holdout,
    const std::vector<const select::ModelEntry*>& incumbents,
    const PublicationGateOptions& options);

// ---------------------------------------------------------------------------
// Fleet manifest (coordinator crash recovery)
// ---------------------------------------------------------------------------

/// \brief One shard's row in the fleet manifest. DriftFleet's shards
/// derive from it, so the manifest saves and restores the row whole.
struct ShardManifest {
  std::string label;
  std::string checkpoint_path;  ///< "" when checkpointing is disabled.
  ShardHealth health;
  int64_t slices = 0;  ///< Scheduling slices the shard ran.
  Status fail_status = Status::OK();  ///< Quarantine cause.
};

/// \brief Published-model lineage: who trained what, and when.
struct ModelLineage {
  std::string name;       ///< Registry entry name.
  std::string publisher;  ///< Stream label ("" for base models).
  int64_t round = -1;     ///< Barrier round of publication (-1 for base).
};

/// \brief The fleet's cumulative counters. DriftFleet runs on this struct,
/// the manifest saves it whole and FleetReport reports it as its base.
struct FleetCounters {
  /// Round barriers completed: the first round a resumed fleet runs.
  int64_t rounds = 0;
  int64_t backpressure_waits = 0;
  int64_t models_published = 0;  ///< Entries accepted by the shared registry.
  int64_t models_adopted = 0;    ///< Cross-stream adoptions performed.
  int64_t shard_restarts = 0;
  int64_t publish_rejected = 0;  ///< Models the quality gate refused.
  int64_t quarantined_frames = 0;  ///< Sum over quarantined shards.

  bool operator==(const FleetCounters&) const = default;
};

/// \brief Everything DriftFleet needs to continue after a coordinator
/// crash. Written atomically at every round barrier; per-shard pipeline
/// state lives in the per-shard checkpoints this manifest points at.
struct FleetManifest {
  FleetCounters counters;
  int64_t slice_frames = 0;  ///< Config fingerprint; must match on resume.
  std::vector<ShardManifest> shards;  ///< In AddStream order.
  std::vector<int64_t> ready;  ///< Shard indices in ready-queue order.
  std::vector<ModelLineage> lineage;  ///< In publication order.
};

/// Serializes a manifest as a SealRecord record (common/binio.h) with
/// magic "VDFLEET01" — the envelope checkpoints and the model cache use.
std::string EncodeFleetManifest(const FleetManifest& manifest);

/// Parses bytes produced by EncodeFleetManifest. Bad magic, unknown
/// version, length mismatch, CRC failure, or truncation all return
/// kDataLoss — a damaged manifest is diagnosed, never resumed from.
[[nodiscard]] Result<FleetManifest> DecodeFleetManifest(
    const std::string& bytes);

/// Encodes + writes atomically and durably (AtomicWriteFile).
[[nodiscard]] Status WriteFleetManifestFile(const FleetManifest& manifest,
                                            const std::string& path);

/// Reads + decodes. kIoError when unreadable, kDataLoss when damaged.
[[nodiscard]] Result<FleetManifest> ReadFleetManifestFile(
    const std::string& path);

}  // namespace vdrift::serve

#endif  // VDRIFT_SERVE_SUPERVISOR_H_
