#ifndef VDRIFT_NN_SERIALIZE_H_
#define VDRIFT_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/layer.h"

namespace vdrift::nn {

/// Writes all parameter values of `layer` (in Params() order) to a binary
/// stream: a magic tag, the parameter count, then per-parameter sizes and
/// raw float data.
Status SaveParameters(Layer* layer, std::ostream* out);

/// Restores parameter values written by SaveParameters. The receiving layer
/// must have an identical architecture (same Params() order and shapes).
Status LoadParameters(Layer* layer, std::istream* in);

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_SERIALIZE_H_
