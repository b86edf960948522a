#ifndef VDRIFT_PIPELINE_PROVISION_H_
#define VDRIFT_PIPELINE_PROVISION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/profile.h"
#include "core/registry.h"
#include "detect/image_classifier.h"
#include "stats/rng.h"
#include "video/frame.h"

namespace vdrift::pipeline {

/// \brief Everything needed to provision a model M_i for one distribution.
///
/// Mirrors the paper's trainNewModel() path (§5.4): from a window of
/// annotated frames, train (a) the VAE for DI/MSBI, (b) an ensemble of L
/// classifiers for MSBO, and (c) the query models (count classifier and
/// spatial-predicate classifier).
struct ProvisionOptions {
  conformal::DistributionProfile::Options profile;
  int count_classes = 8;
  int ensemble_size = 3;  ///< L; paper: typical values 3..10.
  int classifier_filters = 8;
  detect::ClassifierTrainConfig classifier_train;
  bool train_predicate_model = true;
};

/// Sensible laptop-scale defaults shared by tests, examples, and benches.
ProvisionOptions DefaultProvisionOptions();

/// Trains a full ModelEntry from annotated frames of one distribution.
/// Labels are read from the frames' ground truth — i.e. from the
/// annotation oracle (Mask R-CNN's role in the paper).
Result<select::ModelEntry> ProvisionModel(
    const std::string& name, const std::vector<video::Frame>& frames,
    const ProvisionOptions& options, stats::Rng* rng);

/// Builds the labeled calibration sample S_Ti for MSBO from frames of
/// distribution i (§5.2.2).
std::vector<select::LabeledFrame> MakeLabeledSample(
    const std::vector<video::Frame>& frames, int count_classes,
    int sample_size, stats::Rng* rng);

/// Labels every frame of each distribution: the per-entry samples of an
/// ODIN row, which seeds each entry's cluster from its whole window.
std::vector<std::vector<select::LabeledFrame>> LabelAll(
    const std::vector<std::vector<video::Frame>>& frames, int count_classes);

/// \brief Trains the drift-oblivious detector of Table 9 (YOLOv7's role)
/// as one fixed registry entry.
///
/// Its count and predicate models are CNNs 16 filters wide — twice the
/// per-sequence classifiers, so its per-frame compute sits well above
/// theirs as YOLOv7's does above the VGG-based filters — trained
/// once on `frames` (the stream's initial distribution). Its accuracy
/// collapses after drift for the genuine reason, covariate shift. The
/// entry has no profile or ensemble: it serves under Detector::kNone.
Result<select::ModelEntry> ProvisionDetector(
    const std::string& name, const std::vector<video::Frame>& frames,
    const detect::ClassifierTrainConfig& train, stats::Rng* rng);

}  // namespace vdrift::pipeline

#endif  // VDRIFT_PIPELINE_PROVISION_H_
