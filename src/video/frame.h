#ifndef VDRIFT_VIDEO_FRAME_H_
#define VDRIFT_VIDEO_FRAME_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace vdrift::video {

/// \brief Object classes appearing in the synthetic traffic scenes.
enum class ObjectClass : int { kCar = 0, kBus = 1 };

/// \brief Ground-truth record for one object in a frame.
///
/// Positions and sizes are normalized to [0, 1] relative to the frame.
struct ObjectTruth {
  ObjectClass cls = ObjectClass::kCar;
  float cx = 0.0f;  ///< Center x.
  float cy = 0.0f;  ///< Center y.
  float w = 0.0f;   ///< Width.
  float h = 0.0f;   ///< Height.

  bool operator==(const ObjectTruth&) const = default;
};

/// \brief Full ground truth for a frame, produced by the scene generator.
///
/// This plays the role the paper assigns to Mask R-CNN annotations: the
/// oracle labels used to train classifiers, calibrate MSBO, and score query
/// accuracy.
struct FrameTruth {
  int sequence_id = 0;      ///< Which distribution the frame came from.
  int64_t frame_index = 0;  ///< Global position in the stream.
  std::vector<ObjectTruth> objects;

  /// Number of cars in the frame.
  int CarCount() const;
  /// Number of buses in the frame.
  int BusCount() const;
  /// True iff some bus is strictly left of some car — the paper's spatial
  /// query predicate "bus is on the left side of a car" (§6.3.2).
  bool BusLeftOfCar() const;

  bool operator==(const FrameTruth&) const = default;
};

/// \brief One video frame: pixels plus ground truth.
struct Frame {
  tensor::Tensor pixels;  ///< [channels, H, W] grayscale in [0, 1].
  FrameTruth truth;

  bool operator==(const Frame&) const = default;
};

}  // namespace vdrift::video

#endif  // VDRIFT_VIDEO_FRAME_H_
