#include "nn/serialize.h"

#include <cstdint>
#include <istream>
#include <ostream>

namespace vdrift::nn {

namespace {
constexpr uint32_t kMagic = 0x56444e4e;  // "VDNN"
}  // namespace

Status SaveParameters(Layer* layer, std::ostream* out) {
  std::vector<Parameter*> params = layer->Params();
  uint32_t magic = kMagic;
  out->write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  uint64_t count = params.size();
  out->write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (Parameter* p : params) {
    uint64_t n = static_cast<uint64_t>(p->value.size());
    out->write(reinterpret_cast<const char*>(&n), sizeof(n));
    out->write(reinterpret_cast<const char*>(p->value.data()),
               static_cast<std::streamsize>(n * sizeof(float)));
  }
  if (!out->good()) return Status::IoError("failed writing parameters");
  return Status::OK();
}

Status LoadParameters(Layer* layer, std::istream* in) {
  uint32_t magic = 0;
  in->read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in->good() || magic != kMagic) {
    return Status::IoError("bad parameter stream header");
  }
  uint64_t count = 0;
  in->read(reinterpret_cast<char*>(&count), sizeof(count));
  std::vector<Parameter*> params = layer->Params();
  if (count != params.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (Parameter* p : params) {
    uint64_t n = 0;
    in->read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in->good() || n != static_cast<uint64_t>(p->value.size())) {
      return Status::InvalidArgument("parameter size mismatch");
    }
    in->read(reinterpret_cast<char*>(p->value.data()),
             static_cast<std::streamsize>(n * sizeof(float)));
  }
  if (!in->good()) return Status::IoError("failed reading parameters");
  return Status::OK();
}

}  // namespace vdrift::nn
