#include "serve/supervisor.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "common/binio.h"
#include "common/logging.h"

namespace vdrift::serve {

namespace {

constexpr std::string_view kMagic = "VDFLEET01";
constexpr uint32_t kVersion = 1;

/// Holdout accuracy of one query model: fraction of frames where the
/// top-probability class matches the label. Any non-finite probability
/// makes the model unconditionally rejectable, signalled by -1.
double ProbeAccuracy(nn::ProbabilisticClassifier* model,
                     const std::vector<select::LabeledFrame>& holdout,
                     int max_frames) {
  int probed = 0;
  int correct = 0;
  for (const select::LabeledFrame& frame : holdout) {
    if (probed >= max_frames) break;
    std::vector<float> probs = model->PredictProba(frame.pixels);
    if (probs.empty()) return -1.0;
    int best = 0;
    for (int c = 0; c < static_cast<int>(probs.size()); ++c) {
      if (!std::isfinite(probs[static_cast<size_t>(c)])) return -1.0;
      if (probs[static_cast<size_t>(c)] > probs[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    if (best == frame.label) correct += 1;
    probed += 1;
  }
  if (probed == 0) return -1.0;
  return static_cast<double>(correct) / static_cast<double>(probed);
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kRestarting: return "restarting";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kRetired: return "retired";
  }
  return "unknown";
}

bool ShardHealth::GrantRestart(const HealthPolicy& policy) {
  if (restarts >= policy.max_restarts) {
    state = HealthState::kQuarantined;
    backoff_remaining = 0;
    return false;
  }
  restarts += 1;
  state = HealthState::kRestarting;
  if (policy.backoff_base > 0) {
    // Exponential: restart k parks for base << (k-1) rounds, capped so a
    // misconfigured budget can never shift past 62 bits.
    const int shift = restarts - 1 < 20 ? restarts - 1 : 20;
    backoff_remaining = static_cast<int64_t>(policy.backoff_base) << shift;
  } else {
    backoff_remaining = 0;
  }
  return true;
}

bool ShardHealth::TickBackoff() {
  if (state != HealthState::kRestarting) return false;
  if (backoff_remaining > 0) backoff_remaining -= 1;
  if (backoff_remaining > 0) return false;
  // Readmitted as degraded: a restarted shard earns healthy back with one
  // clean round, it does not get it for free.
  state = HealthState::kDegraded;
  return true;
}

void ShardHealth::ObserveRound(bool degraded_this_round) {
  if (!Serving()) return;
  state = degraded_this_round ? HealthState::kDegraded
                              : HealthState::kHealthy;
}

void ShardHealth::Retire() {
  if (Terminal()) return;
  state = HealthState::kRetired;
  backoff_remaining = 0;
}

GateVerdict EvaluatePublication(
    const select::ModelEntry& candidate,
    const std::vector<select::LabeledFrame>& holdout,
    const std::vector<const select::ModelEntry*>& incumbents,
    const PublicationGateOptions& options) {
  GateVerdict verdict;
  if (!options.enabled) return verdict;
  if (candidate.count_model == nullptr) {
    verdict.accepted = false;
    verdict.reason = "no_query_model";
    return verdict;
  }
  if (holdout.empty()) {
    verdict.accepted = false;
    verdict.reason = "empty_calibration";
    return verdict;
  }
  verdict.candidate_accuracy = ProbeAccuracy(
      candidate.count_model.get(), holdout, options.max_holdout_frames);
  if (verdict.candidate_accuracy < 0.0) {
    verdict.accepted = false;
    verdict.reason = "nonfinite";
    verdict.candidate_accuracy = 0.0;
    return verdict;
  }
  for (const select::ModelEntry* incumbent : incumbents) {
    if (incumbent == nullptr || incumbent->count_model == nullptr) continue;
    double accuracy = ProbeAccuracy(incumbent->count_model.get(), holdout,
                                    options.max_holdout_frames);
    if (accuracy > verdict.incumbent_accuracy) {
      verdict.incumbent_accuracy = accuracy;
    }
  }
  if (verdict.candidate_accuracy <
      verdict.incumbent_accuracy - options.accuracy_margin) {
    verdict.accepted = false;
    verdict.reason = "below_margin";
  }
  return verdict;
}

std::string EncodeFleetManifest(const FleetManifest& manifest) {
  BinaryWriter payload;
  const FleetCounters& counters = manifest.counters;
  payload.WriteI64(counters.rounds);
  payload.WriteI64(counters.backpressure_waits);
  payload.WriteI64(counters.models_published);
  payload.WriteI64(counters.models_adopted);
  payload.WriteI64(counters.shard_restarts);
  payload.WriteI64(counters.publish_rejected);
  payload.WriteI64(counters.quarantined_frames);
  payload.WriteI64(manifest.slice_frames);
  payload.WriteU64(manifest.shards.size());
  for (const ShardManifest& shard : manifest.shards) {
    payload.WriteString(shard.label);
    payload.WriteString(shard.checkpoint_path);
    payload.WriteU8(static_cast<uint8_t>(shard.health.state));
    payload.WriteI32(shard.health.restarts);
    payload.WriteI64(shard.health.backoff_remaining);
    payload.WriteI64(shard.slices);
    payload.WriteI32(static_cast<int32_t>(shard.fail_status.code()));
    payload.WriteString(shard.fail_status.message());
  }
  payload.WriteI64Vec(manifest.ready);
  payload.WriteU64(manifest.lineage.size());
  for (const ModelLineage& entry : manifest.lineage) {
    payload.WriteString(entry.name);
    payload.WriteString(entry.publisher);
    payload.WriteI64(entry.round);
  }
  return SealRecord(kMagic, kVersion, payload.bytes());
}

Result<FleetManifest> DecodeFleetManifest(const std::string& bytes) {
  VDRIFT_ASSIGN_OR_RETURN(
      std::string_view payload,
      OpenRecord(bytes, kMagic, kVersion, "fleet manifest"));
  BinaryReader reader(payload);
  FleetManifest manifest;
  FleetCounters& counters = manifest.counters;
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.rounds));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.backpressure_waits));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.models_published));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.models_adopted));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.shard_restarts));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.publish_rejected));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&counters.quarantined_frames));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&manifest.slice_frames));
  uint64_t shard_count = 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadU64(&shard_count));
  if (shard_count > payload.size()) {
    return Status::DataLoss("fleet manifest declares impossible shard "
                            "count " +
                            std::to_string(shard_count));
  }
  manifest.shards.resize(shard_count);
  for (ShardManifest& shard : manifest.shards) {
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&shard.label));
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&shard.checkpoint_path));
    uint8_t state = 0;
    VDRIFT_RETURN_NOT_OK(reader.ReadU8(&state));
    if (state > static_cast<uint8_t>(HealthState::kRetired)) {
      return Status::DataLoss("fleet manifest has invalid health state " +
                              std::to_string(state));
    }
    shard.health.state = static_cast<HealthState>(state);
    VDRIFT_RETURN_NOT_OK(reader.ReadI32(&shard.health.restarts));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&shard.health.backoff_remaining));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&shard.slices));
    int32_t fail_code = 0;
    std::string fail_message;
    VDRIFT_RETURN_NOT_OK(reader.ReadI32(&fail_code));
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&fail_message));
    shard.fail_status =
        Status(static_cast<StatusCode>(fail_code), std::move(fail_message));
  }
  VDRIFT_RETURN_NOT_OK(reader.ReadI64Vec(&manifest.ready));
  for (int64_t index : manifest.ready) {
    if (index < 0 || index >= static_cast<int64_t>(shard_count)) {
      return Status::DataLoss("fleet manifest ready queue references "
                              "shard " +
                              std::to_string(index));
    }
  }
  uint64_t lineage_count = 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadU64(&lineage_count));
  if (lineage_count > payload.size()) {
    return Status::DataLoss("fleet manifest declares impossible lineage "
                            "count " +
                            std::to_string(lineage_count));
  }
  manifest.lineage.resize(lineage_count);
  for (ModelLineage& entry : manifest.lineage) {
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&entry.name));
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&entry.publisher));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&entry.round));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("fleet manifest has " +
                            std::to_string(reader.remaining()) +
                            " trailing bytes");
  }
  return manifest;
}

Status WriteFleetManifestFile(const FleetManifest& manifest,
                              const std::string& path) {
  return AtomicWriteFile(path, EncodeFleetManifest(manifest));
}

Result<FleetManifest> ReadFleetManifestFile(const std::string& path) {
  VDRIFT_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeFleetManifest(bytes);
}

}  // namespace vdrift::serve
