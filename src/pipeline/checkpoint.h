#ifndef VDRIFT_PIPELINE_CHECKPOINT_H_
#define VDRIFT_PIPELINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/drift_inspector.h"
#include "fault/fault.h"
#include "pipeline/pipeline.h"

namespace vdrift::pipeline {

/// \brief Everything DriftAwarePipeline needs to continue after a crash.
///
/// Model weights are deliberately NOT here: the registry is re-provisioned
/// deterministically from config on cold start, and the checkpoint records
/// only a fingerprint (the ordered model names) to detect when the live
/// registry no longer matches the snapshot. The known limitation is
/// models learned mid-run (trainNewModel): a fresh process does not have
/// them, its fingerprint differs, and Resume reports kDataLoss — the
/// correct answer, since serving against a missing model would be wrong.
struct PipelineCheckpoint {
  std::vector<std::string> registry_fingerprint;  ///< Ordered model names.
  int64_t stream_cursor = 0;  ///< Frames the consumer had seen.
  conformal::DriftInspector::State inspector;
  PipelineState state;
  /// Timing and obs instruments are not state: they restart from zero
  /// after a resume.
  PipelineCounters counters;

  bool operator==(const PipelineCheckpoint&) const = default;
};

/// Serializes a checkpoint as a SealRecord record (common/binio.h) with
/// magic "VDCKPT01": u32 version, u64 payload length, payload, u32 CRC-32
/// of the payload. Version 2 stores the drift-oblivious flag
/// (counters.degradation.drift_oblivious) twice, at both of its historic
/// positions; DecodeCheckpoint rejects a payload whose copies disagree.
std::string EncodeCheckpoint(const PipelineCheckpoint& checkpoint);

/// Parses bytes produced by EncodeCheckpoint. Bad magic, unknown version,
/// length mismatch, CRC failure, or truncation anywhere inside the payload
/// all return kDataLoss — corruption is diagnosed, never executed.
[[nodiscard]] Result<PipelineCheckpoint> DecodeCheckpoint(const std::string& bytes);

/// Encodes + writes atomically (tmp + rename). `injector` (nullable) is
/// rolled at the I/O boundary: kIoFail aborts the write with kIoError,
/// kCheckpointCorrupt flips a bit or tears the buffer before it lands —
/// producing exactly the on-disk damage Resume must survive.
[[nodiscard]] Status WriteCheckpointFile(const PipelineCheckpoint& checkpoint,
                           const std::string& path,
                           fault::FaultInjector* injector);

/// Reads + decodes. `injector` (nullable): kIoFail fails the read.
[[nodiscard]] Result<PipelineCheckpoint> ReadCheckpointFile(const std::string& path,
                                              fault::FaultInjector* injector);

}  // namespace vdrift::pipeline

#endif  // VDRIFT_PIPELINE_CHECKPOINT_H_
