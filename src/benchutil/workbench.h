#ifndef VDRIFT_BENCHUTIL_WORKBENCH_H_
#define VDRIFT_BENCHUTIL_WORKBENCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ensemble.h"
#include "core/registry.h"
#include "pipeline/provision.h"
#include "video/datasets.h"

namespace vdrift::benchutil {

/// \brief Shared configuration of the bench harnesses.
struct WorkbenchOptions {
  /// Stream-length scale relative to Table 5 (1.0 = the paper's sizes).
  double dataset_scale = 0.02;
  /// Frames rendered per sequence to train each model.
  int train_frames = 260;
  /// Frames per sequence in the MSBO calibration sample S_Ti.
  int calibration_sample = 24;
  pipeline::ProvisionOptions provision;
  uint64_t seed = 9001;
  /// Directory for the trained-model cache ("" disables caching).
  std::string cache_dir = "vdrift_cache";
};

/// Bench defaults: the provisioning recipe validated by the test suite.
WorkbenchOptions DefaultWorkbenchOptions();

/// \brief A dataset plus its fully provisioned model registry.
///
/// Training the per-sequence models is by far the most expensive part of
/// every bench, and each table/figure bench needs the same models, so the
/// workbench serializes all trained parameters to `cache_dir` on first
/// build and reloads them afterwards. Training frames and calibration
/// samples are regenerated deterministically from the scene specs. The
/// workbench does not calibrate MSBO: a DriftAwarePipeline calibrates
/// itself on its first Run, and a caller that builds a bare select::Msbo
/// runs select::CalibrateMsbo(registry, calibration_samples) first.
struct Workbench {
  video::SyntheticDataset dataset;
  select::ModelRegistry registry;  ///< One entry per dataset sequence.
  std::vector<std::vector<video::Frame>> training_frames;
  std::vector<std::vector<select::LabeledFrame>> calibration_samples;
  bool loaded_from_cache = false;
};

/// Builds (or loads) the workbench for "BDD", "Detrac" or "Tokyo".
Result<std::unique_ptr<Workbench>> BuildWorkbench(
    const std::string& dataset_name, const WorkbenchOptions& options);

/// The dataset factory for a name; dies on unknown names.
video::SyntheticDataset MakeDataset(const std::string& dataset_name,
                                    double scale);

}  // namespace vdrift::benchutil

#endif  // VDRIFT_BENCHUTIL_WORKBENCH_H_
