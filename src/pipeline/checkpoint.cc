#include "pipeline/checkpoint.h"

#include <string_view>
#include <utility>

#include "common/binio.h"

namespace vdrift::pipeline {

namespace {

constexpr std::string_view kMagic = "VDCKPT01";
// v2 added the detection-lag clock, per-detection lags, and the parked
// drift-recovery state (including buffered frames). v1 files decode as
// kDataLoss — the documented cold-start fallback, same as any other
// unreadable checkpoint.
constexpr uint32_t kVersion = 2;

void EncodeRngState(const stats::Rng::State& state, BinaryWriter* writer) {
  writer->WriteU64(state.state);
  writer->WriteU64(state.inc);
  writer->WriteU8(state.has_spare ? 1 : 0);
  writer->WriteDouble(state.spare);
}

Status DecodeRngState(BinaryReader* reader, stats::Rng::State* state) {
  uint8_t has_spare = 0;
  VDRIFT_RETURN_NOT_OK(reader->ReadU64(&state->state));
  VDRIFT_RETURN_NOT_OK(reader->ReadU64(&state->inc));
  VDRIFT_RETURN_NOT_OK(reader->ReadU8(&has_spare));
  VDRIFT_RETURN_NOT_OK(reader->ReadDouble(&state->spare));
  state->has_spare = has_spare != 0;
  return Status::OK();
}

void EncodeFrame(const video::Frame& frame, BinaryWriter* writer) {
  writer->WriteI64Vec(frame.pixels.shape().dims());
  // The WriteFloatVec layout, straight from the tensor.
  writer->WriteU64(static_cast<uint64_t>(frame.pixels.size()));
  writer->WriteBytes(frame.pixels.data(),
                     static_cast<size_t>(frame.pixels.size()) * sizeof(float));
  writer->WriteI32(frame.truth.sequence_id);
  writer->WriteI64(frame.truth.frame_index);
  writer->WriteU32(static_cast<uint32_t>(frame.truth.objects.size()));
  for (const video::ObjectTruth& object : frame.truth.objects) {
    writer->WriteI32(static_cast<int32_t>(object.cls));
    writer->WriteF32(object.cx);
    writer->WriteF32(object.cy);
    writer->WriteF32(object.w);
    writer->WriteF32(object.h);
  }
}

Status DecodeFrame(BinaryReader* reader, video::Frame* frame) {
  std::vector<int64_t> dims;
  std::vector<float> data;
  VDRIFT_RETURN_NOT_OK(reader->ReadI64Vec(&dims));
  VDRIFT_RETURN_NOT_OK(reader->ReadFloatVec(&data));
  tensor::Shape shape(dims);
  if (shape.NumElements() != static_cast<int64_t>(data.size())) {
    return Status::DataLoss("checkpoint frame pixel payload has " +
                            std::to_string(data.size()) +
                            " floats for shape " + shape.ToString());
  }
  frame->pixels = tensor::Tensor(std::move(shape), std::move(data));
  VDRIFT_RETURN_NOT_OK(reader->ReadI32(&frame->truth.sequence_id));
  VDRIFT_RETURN_NOT_OK(reader->ReadI64(&frame->truth.frame_index));
  uint32_t objects = 0;
  VDRIFT_RETURN_NOT_OK(reader->ReadU32(&objects));
  if (objects > reader->remaining()) {
    return Status::DataLoss("truncated object list of declared length " +
                            std::to_string(objects));
  }
  frame->truth.objects.resize(objects);
  for (uint32_t i = 0; i < objects; ++i) {
    video::ObjectTruth& object = frame->truth.objects[i];
    int32_t cls = 0;
    VDRIFT_RETURN_NOT_OK(reader->ReadI32(&cls));
    object.cls = static_cast<video::ObjectClass>(cls);
    VDRIFT_RETURN_NOT_OK(reader->ReadF32(&object.cx));
    VDRIFT_RETURN_NOT_OK(reader->ReadF32(&object.cy));
    VDRIFT_RETURN_NOT_OK(reader->ReadF32(&object.w));
    VDRIFT_RETURN_NOT_OK(reader->ReadF32(&object.h));
  }
  return Status::OK();
}

void EncodeFrameVec(const std::vector<video::Frame>& frames,
                    BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(frames.size()));
  for (const video::Frame& frame : frames) EncodeFrame(frame, writer);
}

Status DecodeFrameVec(BinaryReader* reader, std::vector<video::Frame>* frames) {
  uint32_t n = 0;
  VDRIFT_RETURN_NOT_OK(reader->ReadU32(&n));
  if (n > reader->remaining()) {
    return Status::DataLoss("truncated frame list of declared length " +
                            std::to_string(n));
  }
  frames->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    VDRIFT_RETURN_NOT_OK(DecodeFrame(reader, &(*frames)[i]));
  }
  return Status::OK();
}

std::string EncodePayload(const PipelineCheckpoint& cp) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(cp.registry_fingerprint.size()));
  for (const std::string& name : cp.registry_fingerprint) {
    writer.WriteString(name);
  }
  writer.WriteI32(cp.deployed);
  writer.WriteU8(cp.drift_oblivious ? 1 : 0);
  writer.WriteI32(cp.consecutive_selection_failures);
  EncodeRngState(cp.pipeline_rng, &writer);
  writer.WriteI64(cp.inspector.frames_seen);
  EncodeRngState(cp.inspector.rng, &writer);
  writer.WriteDouble(cp.inspector.martingale.current);
  writer.WriteI64(cp.inspector.martingale.count);
  writer.WriteDouble(cp.inspector.martingale.last_delta);
  writer.WriteDouble(cp.inspector.martingale.last_bet);
  writer.WriteDoubleVec(cp.inspector.martingale.history);
  writer.WriteDoubleVec(cp.calibration.pc_avg);
  writer.WriteDoubleVec(cp.calibration.sigma);
  writer.WriteDouble(cp.calibration.global_h);
  writer.WriteU8(cp.calibrated ? 1 : 0);
  writer.WriteI64(cp.stream_cursor);
  writer.WriteI64(cp.frames);
  writer.WriteI32(cp.drifts_detected);
  writer.WriteI32(cp.new_models_trained);
  writer.WriteI64Vec(cp.drift_frames);
  writer.WriteU32(static_cast<uint32_t>(cp.selections.size()));
  for (const std::string& selection : cp.selections) {
    writer.WriteString(selection);
  }
  writer.WriteI64(cp.selection_invocations);
  writer.WriteU32(static_cast<uint32_t>(cp.per_sequence.size()));
  for (const auto& [id, acc] : cp.per_sequence) {
    writer.WriteI32(id);
    writer.WriteI64(acc.count_correct);
    writer.WriteI64(acc.count_total);
    writer.WriteI64(acc.predicate_correct);
    writer.WriteI64(acc.predicate_total);
    writer.WriteI64(acc.invocations);
  }
  writer.WriteI64(cp.degradation.frames_dropped);
  writer.WriteI64(cp.degradation.selector_failures);
  writer.WriteI64(cp.degradation.selector_retries);
  writer.WriteI64(cp.degradation.incumbent_fallbacks);
  writer.WriteI64(cp.degradation.annotator_deferrals);
  writer.WriteI64(cp.degradation.annotator_errors);
  writer.WriteI64(cp.degradation.recalibrate_failures);
  writer.WriteI64(cp.degradation.checkpoint_failures);
  writer.WriteU8(cp.degradation.drift_oblivious ? 1 : 0);
  // --- v2 fields ---
  writer.WriteI32(cp.last_sequence_id);
  writer.WriteI64(cp.frames_since_sequence_change);
  writer.WriteDouble(cp.last_p_value);
  writer.WriteI64Vec(cp.detect_lags);
  writer.WriteU8(cp.recovery_phase);
  writer.WriteI32(cp.recovery_target);
  writer.WriteI32(cp.recovery_backoff);
  writer.WriteI32(cp.recovery_attempt);
  writer.WriteU8(cp.recovery_initial_collect ? 1 : 0);
  EncodeFrameVec(cp.recovery_window, &writer);
  EncodeFrameVec(cp.recovery_training, &writer);
  return std::move(writer).TakeBytes();
}

Status DecodePayload(std::string_view payload, PipelineCheckpoint* cp) {
  BinaryReader reader(payload);
  uint32_t n = 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadU32(&n));
  cp->registry_fingerprint.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&cp->registry_fingerprint[i]));
  }
  uint8_t flag = 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->deployed));
  VDRIFT_RETURN_NOT_OK(reader.ReadU8(&flag));
  cp->drift_oblivious = flag != 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->consecutive_selection_failures));
  VDRIFT_RETURN_NOT_OK(DecodeRngState(&reader, &cp->pipeline_rng));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->inspector.frames_seen));
  VDRIFT_RETURN_NOT_OK(DecodeRngState(&reader, &cp->inspector.rng));
  VDRIFT_RETURN_NOT_OK(reader.ReadDouble(&cp->inspector.martingale.current));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->inspector.martingale.count));
  VDRIFT_RETURN_NOT_OK(
      reader.ReadDouble(&cp->inspector.martingale.last_delta));
  VDRIFT_RETURN_NOT_OK(reader.ReadDouble(&cp->inspector.martingale.last_bet));
  VDRIFT_RETURN_NOT_OK(
      reader.ReadDoubleVec(&cp->inspector.martingale.history));
  VDRIFT_RETURN_NOT_OK(reader.ReadDoubleVec(&cp->calibration.pc_avg));
  VDRIFT_RETURN_NOT_OK(reader.ReadDoubleVec(&cp->calibration.sigma));
  VDRIFT_RETURN_NOT_OK(reader.ReadDouble(&cp->calibration.global_h));
  VDRIFT_RETURN_NOT_OK(reader.ReadU8(&flag));
  cp->calibrated = flag != 0;
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->stream_cursor));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->frames));
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->drifts_detected));
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->new_models_trained));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64Vec(&cp->drift_frames));
  VDRIFT_RETURN_NOT_OK(reader.ReadU32(&n));
  cp->selections.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    VDRIFT_RETURN_NOT_OK(reader.ReadString(&cp->selections[i]));
  }
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->selection_invocations));
  VDRIFT_RETURN_NOT_OK(reader.ReadU32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    int32_t id = 0;
    SequenceAccuracy acc;
    VDRIFT_RETURN_NOT_OK(reader.ReadI32(&id));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&acc.count_correct));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&acc.count_total));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&acc.predicate_correct));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&acc.predicate_total));
    VDRIFT_RETURN_NOT_OK(reader.ReadI64(&acc.invocations));
    cp->per_sequence[id] = acc;
  }
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.frames_dropped));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.selector_failures));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.selector_retries));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.incumbent_fallbacks));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.annotator_deferrals));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.annotator_errors));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.recalibrate_failures));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->degradation.checkpoint_failures));
  VDRIFT_RETURN_NOT_OK(reader.ReadU8(&flag));
  cp->degradation.drift_oblivious = flag != 0;
  // --- v2 fields ---
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->last_sequence_id));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64(&cp->frames_since_sequence_change));
  VDRIFT_RETURN_NOT_OK(reader.ReadDouble(&cp->last_p_value));
  VDRIFT_RETURN_NOT_OK(reader.ReadI64Vec(&cp->detect_lags));
  VDRIFT_RETURN_NOT_OK(reader.ReadU8(&cp->recovery_phase));
  if (cp->recovery_phase > 2) {
    return Status::DataLoss("checkpoint recovery phase out of range: " +
                            std::to_string(cp->recovery_phase));
  }
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->recovery_target));
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->recovery_backoff));
  VDRIFT_RETURN_NOT_OK(reader.ReadI32(&cp->recovery_attempt));
  VDRIFT_RETURN_NOT_OK(reader.ReadU8(&flag));
  cp->recovery_initial_collect = flag != 0;
  VDRIFT_RETURN_NOT_OK(DecodeFrameVec(&reader, &cp->recovery_window));
  VDRIFT_RETURN_NOT_OK(DecodeFrameVec(&reader, &cp->recovery_training));
  if (reader.remaining() != 0) {
    return Status::DataLoss("checkpoint payload has " +
                            std::to_string(reader.remaining()) +
                            " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpoint(const PipelineCheckpoint& checkpoint) {
  return SealRecord(kMagic, kVersion, EncodePayload(checkpoint));
}

Result<PipelineCheckpoint> DecodeCheckpoint(const std::string& bytes) {
  VDRIFT_ASSIGN_OR_RETURN(std::string_view payload,
                          OpenRecord(bytes, kMagic, kVersion, "checkpoint"));
  PipelineCheckpoint checkpoint;
  VDRIFT_RETURN_NOT_OK(DecodePayload(payload, &checkpoint));
  return checkpoint;
}

Status WriteCheckpointFile(const PipelineCheckpoint& checkpoint,
                           const std::string& path,
                           fault::FaultInjector* injector) {
  if (injector != nullptr &&
      injector->ShouldInject(fault::FaultKind::kIoFail)) {
    return Status::IoError("injected: checkpoint write failed");
  }
  std::string bytes = EncodeCheckpoint(checkpoint);
  if (injector != nullptr &&
      injector->ShouldInject(fault::FaultKind::kCheckpointCorrupt)) {
    // Half the injections flip a bit (silent media corruption), half tear
    // the buffer (power loss mid-write); both must be caught by Resume.
    if (injector->count(fault::FaultKind::kCheckpointCorrupt) % 2 == 1) {
      injector->CorruptBytes(&bytes);
    } else {
      injector->TearBytes(&bytes);
    }
  }
  return AtomicWriteFile(path, bytes);
}

Result<PipelineCheckpoint> ReadCheckpointFile(const std::string& path,
                                              fault::FaultInjector* injector) {
  if (injector != nullptr &&
      injector->ShouldInject(fault::FaultKind::kIoFail)) {
    return Status::IoError("injected: checkpoint read failed");
  }
  VDRIFT_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeCheckpoint(bytes);
}

}  // namespace vdrift::pipeline
