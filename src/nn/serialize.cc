#include "nn/serialize.h"

#include <cstdint>

namespace vdrift::nn {

namespace {
constexpr uint32_t kMagic = 0x56444e4e;  // "VDNN"
}  // namespace

Status SaveParameters(const std::vector<Parameter*>& params,
                      BinaryWriter* out) {
  out->WriteU32(kMagic);
  out->WriteU64(params.size());
  for (Parameter* p : params) {
    const size_t n = static_cast<size_t>(p->value.size());
    out->WriteU64(n);
    out->WriteBytes(p->value.data(), n * sizeof(float));
  }
  return Status::OK();
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      BinaryReader* in) {
  uint32_t magic = 0;
  VDRIFT_RETURN_NOT_OK(in->ReadU32(&magic));
  if (magic != kMagic) return Status::DataLoss("bad parameter header");
  uint64_t count = 0;
  VDRIFT_RETURN_NOT_OK(in->ReadU64(&count));
  if (count != params.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (Parameter* p : params) {
    uint64_t n = 0;
    VDRIFT_RETURN_NOT_OK(in->ReadU64(&n));
    if (n != static_cast<uint64_t>(p->value.size())) {
      return Status::InvalidArgument("parameter size mismatch");
    }
    VDRIFT_RETURN_NOT_OK(in->ReadBytes(p->value.data(), n * sizeof(float)));
  }
  return Status::OK();
}

}  // namespace vdrift::nn
