#include "pipeline/provision.h"

#include <algorithm>
#include <memory>

#include "core/ensemble.h"
#include "detect/annotator.h"
#include "video/stream.h"

namespace vdrift::pipeline {

namespace {

// Width of the drift-oblivious detector's CNNs (ProvisionDetector).
constexpr int kDetectorFilters = 16;

// Oracle labels of both queries (Mask R-CNN's role).
struct QueryLabels {
  std::vector<int> count;
  std::vector<int> predicate;
};

QueryLabels LabelQueries(const std::vector<video::Frame>& frames,
                         int count_classes) {
  QueryLabels labels;
  labels.count.reserve(frames.size());
  labels.predicate.reserve(frames.size());
  for (const video::Frame& f : frames) {
    labels.count.push_back(detect::CountLabel(f.truth, count_classes));
    labels.predicate.push_back(detect::PredicateLabel(f.truth));
  }
  return labels;
}

}  // namespace

ProvisionOptions DefaultProvisionOptions() {
  ProvisionOptions options;
  options.profile.vae.image_size = 32;
  options.profile.vae.latent_dim = 8;
  options.profile.vae.base_filters = 4;
  options.profile.trainer.epochs = 12;
  options.profile.sigma_size = 200;
  options.profile.k = 5;
  options.count_classes = 8;
  options.ensemble_size = 3;
  options.classifier_filters = 8;
  options.classifier_train.epochs = 8;
  return options;
}

Result<select::ModelEntry> ProvisionModel(
    const std::string& name, const std::vector<video::Frame>& frames,
    const ProvisionOptions& options, stats::Rng* rng) {
  if (frames.empty()) {
    return Status::InvalidArgument("ProvisionModel needs frames");
  }
  if (options.ensemble_size < 1) {
    return Status::InvalidArgument("ensemble_size must be >= 1");
  }
  std::vector<tensor::Tensor> pixels = video::PixelsOf(frames);

  // (a) Distribution profile: VAE + Sigma_Ti + A_i.
  VDRIFT_ASSIGN_OR_RETURN(
      auto profile,
      conformal::DistributionProfile::Build(name, pixels, options.profile,
                                            rng));

  QueryLabels labels = LabelQueries(frames, options.count_classes);

  // (b) Deep ensemble of L count classifiers: independent random inits,
  // each trained on a fresh shuffle of the full window (§5.2.2).
  detect::ClassifierConfig clf_config;
  clf_config.image_size = options.profile.vae.image_size;
  clf_config.channels = options.profile.vae.channels;
  clf_config.num_classes = options.count_classes;
  clf_config.base_filters = options.classifier_filters;
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  for (int l = 0; l < options.ensemble_size; ++l) {
    auto member = std::make_shared<detect::ImageClassifier>(clf_config, rng);
    VDRIFT_RETURN_NOT_OK(
        member->Train(pixels, labels.count, options.classifier_train, rng)
            .status());
    members.push_back(std::move(member));
  }
  // (c) The deployed count-query model doubles as ensemble member 0 (they
  // solve the same task); the predicate model is trained separately.
  std::shared_ptr<nn::ProbabilisticClassifier> count_model = members.front();
  VDRIFT_ASSIGN_OR_RETURN(select::DeepEnsemble ensemble,
                          select::DeepEnsemble::Make(std::move(members)));

  std::shared_ptr<nn::ProbabilisticClassifier> predicate_model;
  if (options.train_predicate_model) {
    detect::ClassifierConfig pred_config = clf_config;
    pred_config.num_classes = 2;
    auto pred =
        std::make_shared<detect::ImageClassifier>(pred_config, rng);
    VDRIFT_RETURN_NOT_OK(
        pred->Train(pixels, labels.predicate, options.classifier_train, rng)
            .status());
    predicate_model = std::move(pred);
  }

  select::ModelEntry entry;
  entry.name = name;
  entry.profile = std::shared_ptr<conformal::DistributionProfile>(
      std::move(profile));
  entry.ensemble =
      std::make_shared<select::DeepEnsemble>(std::move(ensemble));
  entry.count_model = std::move(count_model);
  entry.predicate_model = std::move(predicate_model);
  return entry;
}

std::vector<select::LabeledFrame> MakeLabeledSample(
    const std::vector<video::Frame>& frames, int count_classes,
    int sample_size, stats::Rng* rng) {
  std::vector<select::LabeledFrame> sample;
  if (frames.empty()) return sample;
  sample.reserve(static_cast<size_t>(sample_size));
  for (int i = 0; i < sample_size; ++i) {
    const video::Frame& f = frames[static_cast<size_t>(
        rng->NextInt(0, static_cast<int>(frames.size()) - 1))];
    sample.push_back(
        {f.pixels, detect::CountLabel(f.truth, count_classes)});
  }
  return sample;
}

std::vector<std::vector<select::LabeledFrame>> LabelAll(
    const std::vector<std::vector<video::Frame>>& frames, int count_classes) {
  std::vector<std::vector<select::LabeledFrame>> labeled(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    labeled[i].reserve(frames[i].size());
    for (const video::Frame& f : frames[i]) {
      labeled[i].push_back(
          {f.pixels, detect::CountLabel(f.truth, count_classes)});
    }
  }
  return labeled;
}

Result<select::ModelEntry> ProvisionDetector(
    const std::string& name, const std::vector<video::Frame>& frames,
    const detect::ClassifierTrainConfig& train, stats::Rng* rng) {
  if (frames.empty()) {
    return Status::InvalidArgument("detector training needs frames");
  }
  detect::ClassifierConfig count_config;
  count_config.base_filters = kDetectorFilters;
  detect::ClassifierConfig predicate_config = count_config;
  predicate_config.num_classes = 2;
  auto count_model =
      std::make_shared<detect::ImageClassifier>(count_config, rng);
  auto predicate_model =
      std::make_shared<detect::ImageClassifier>(predicate_config, rng);
  std::vector<tensor::Tensor> pixels = video::PixelsOf(frames);
  QueryLabels labels = LabelQueries(frames, count_config.num_classes);
  VDRIFT_RETURN_NOT_OK(
      count_model->Train(pixels, labels.count, train, rng).status());
  VDRIFT_RETURN_NOT_OK(
      predicate_model->Train(pixels, labels.predicate, train, rng).status());
  select::ModelEntry entry;
  entry.name = name;
  entry.count_model = std::move(count_model);
  entry.predicate_model = std::move(predicate_model);
  return entry;
}

}  // namespace vdrift::pipeline
