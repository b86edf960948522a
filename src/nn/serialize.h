#ifndef VDRIFT_NN_SERIALIZE_H_
#define VDRIFT_NN_SERIALIZE_H_

#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "nn/layer.h"

namespace vdrift::nn {

/// Appends the values of `params` (a model's Params(), in order): a magic
/// tag, the parameter count, then per-parameter sizes and raw float data.
Status SaveParameters(const std::vector<Parameter*>& params,
                      BinaryWriter* out);

/// Restores parameter values written by SaveParameters into `params`,
/// which must come from an identical architecture (same Params() order and
/// shapes): a different parameter count or size is kInvalidArgument.
Status LoadParameters(const std::vector<Parameter*>& params,
                      BinaryReader* in);

}  // namespace vdrift::nn

#endif  // VDRIFT_NN_SERIALIZE_H_
