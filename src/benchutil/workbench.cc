#include "benchutil/workbench.h"

#include <cstdint>
#include <filesystem>
#include <string_view>

#include "common/binio.h"
#include "common/logging.h"
#include "core/ensemble.h"
#include "stats/moments.h"
#include "detect/image_classifier.h"
#include "nn/serialize.h"
#include "runtime/parallel.h"
#include "video/frame_stats.h"
#include "video/stream.h"

namespace vdrift::benchutil {

namespace {

constexpr std::string_view kCacheMagic = "VDCACHE1";
constexpr uint32_t kCacheVersion = 6;

detect::ClassifierConfig CountConfig(const pipeline::ProvisionOptions& p) {
  detect::ClassifierConfig config;
  config.image_size = p.profile.vae.image_size;
  config.channels = p.profile.vae.channels;
  config.num_classes = p.count_classes;
  config.base_filters = p.classifier_filters;
  return config;
}

// The option values the training path reads. The cache payload starts
// with them, so a cache trained with other options is refused instead of
// served in place of the models asked for.
std::string TrainingOptionsKey(const WorkbenchOptions& options) {
  const pipeline::ProvisionOptions& p = options.provision;
  BinaryWriter out;
  out.WriteI32(options.train_frames);
  out.WriteU64(options.seed);
  out.WriteI32(p.profile.vae.image_size);
  out.WriteI32(p.profile.vae.channels);
  out.WriteI32(p.profile.vae.latent_dim);
  out.WriteI32(p.profile.vae.base_filters);
  out.WriteDouble(p.profile.vae.kl_weight);
  out.WriteI32(p.profile.trainer.epochs);
  out.WriteI32(p.profile.trainer.batch_size);
  out.WriteF32(p.profile.trainer.learning_rate);
  out.WriteI32(p.profile.sigma_size);
  out.WriteI32(p.profile.k);
  out.WriteDouble(p.profile.stats_weight);
  out.WriteI32(p.count_classes);
  out.WriteI32(p.ensemble_size);
  out.WriteI32(p.classifier_filters);
  out.WriteI32(p.classifier_train.epochs);
  out.WriteI32(p.classifier_train.batch_size);
  out.WriteF32(p.classifier_train.learning_rate);
  out.WriteU8(p.train_predicate_model ? 1 : 0);
  return out.TakeBytes();
}

}  // namespace

WorkbenchOptions DefaultWorkbenchOptions() {
  WorkbenchOptions options;
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.trainer.epochs = 18;
  options.provision.classifier_train.epochs = 18;
  options.provision.classifier_filters = 12;
  // L = 5 (paper: typical 3-10): averaging five members keeps the window
  // Brier stable enough for reliable MSBO margins at this model scale.
  options.provision.ensemble_size = 5;
  return options;
}

video::SyntheticDataset MakeDataset(const std::string& dataset_name,
                                    double scale) {
  if (dataset_name == "BDD") return video::MakeBddSynthetic(scale);
  if (dataset_name == "Detrac") return video::MakeDetracSynthetic(scale);
  if (dataset_name == "Tokyo") return video::MakeTokyoSynthetic(scale);
  VDRIFT_LOG_FATAL << "unknown dataset " << dataset_name;
  return video::MakeBddSynthetic(scale);  // unreachable
}

namespace {

Status SaveWorkbench(const Workbench& bench, const WorkbenchOptions& options,
                     const std::string& path) {
  BinaryWriter out;
  out.WriteString(TrainingOptionsKey(options));
  out.WriteI32(bench.registry.size());
  for (int i = 0; i < bench.registry.size(); ++i) {
    const select::ModelEntry& entry = bench.registry.at(i);
    out.WriteString(entry.name);
    VDRIFT_RETURN_NOT_OK(
        nn::SaveParameters(entry.profile->vae()->Params(), &out));
    // Scoring-embedding standardisation: re-derived on load (deterministic
    // from the regenerated training frames), so only the point set needs
    // storing.
    const conformal::PointSet& sigma = entry.profile->sigma();
    out.WriteI32(sigma.k());
    out.WriteI32(sigma.size());
    out.WriteI32(sigma.dim());
    for (const auto& point : sigma.points()) out.WriteFloatVec(point);
    // Ensemble members (member 0 is also the deployed count model).
    out.WriteI32(entry.ensemble->size());
    for (int l = 0; l < entry.ensemble->size(); ++l) {
      auto* member =
          dynamic_cast<detect::ImageClassifier*>(entry.ensemble->member(l).get());
      if (member == nullptr) {
        return Status::Internal("cache only supports ImageClassifier members");
      }
      VDRIFT_RETURN_NOT_OK(nn::SaveParameters(member->net()->Params(), &out));
    }
    // Predicate model.
    auto* predicate =
        dynamic_cast<detect::ImageClassifier*>(entry.predicate_model.get());
    out.WriteI32(predicate != nullptr ? 1 : 0);
    if (predicate != nullptr) {
      VDRIFT_RETURN_NOT_OK(
          nn::SaveParameters(predicate->net()->Params(), &out));
    }
  }
  return AtomicWriteFile(path,
                         SealRecord(kCacheMagic, kCacheVersion, out.bytes()));
}

// Rebuilds one model entry from the cache payload. The architectures are
// reconstructed from `options` (with throwaway random init) and then
// overwritten with the stored parameters.
Result<select::ModelEntry> LoadEntry(
    BinaryReader* in, const WorkbenchOptions& options,
    const std::vector<video::Frame>& training_frames, stats::Rng* rng) {
  const pipeline::ProvisionOptions& p = options.provision;
  select::ModelEntry entry;
  VDRIFT_RETURN_NOT_OK(in->ReadString(&entry.name));
  auto vae = std::make_shared<vae::Vae>(p.profile.vae, rng);
  VDRIFT_RETURN_NOT_OK(nn::LoadParameters(vae->Params(), in));
  int32_t k = 0;
  int32_t n = 0;
  int32_t dim = 0;
  VDRIFT_RETURN_NOT_OK(in->ReadI32(&k));
  VDRIFT_RETURN_NOT_OK(in->ReadI32(&n));
  VDRIFT_RETURN_NOT_OK(in->ReadI32(&dim));
  if (n < 0 || static_cast<size_t>(n) > in->remaining()) {
    return Status::DataLoss("bad cache point count");
  }
  std::vector<std::vector<float>> points(static_cast<size_t>(n));
  for (std::vector<float>& point : points) {
    VDRIFT_RETURN_NOT_OK(in->ReadFloatVec(&point));
    if (static_cast<int32_t>(point.size()) != dim) {
      return Status::DataLoss("bad cache point");
    }
  }
  VDRIFT_ASSIGN_OR_RETURN(conformal::PointSet sigma,
                          conformal::PointSet::Build(std::move(points), k));
  // Re-derive the standardisation parameters from the (deterministic)
  // training frames, matching DistributionProfile::Build.
  std::vector<float> stats_mean(video::kNumFrameStats, 0.0f);
  std::vector<float> stats_scale(video::kNumFrameStats, 1.0f);
  if (p.profile.stats_weight != 0.0) {
    std::vector<stats::RunningMoments> moments(video::kNumFrameStats);
    for (const video::Frame& frame : training_frames) {
      std::vector<float> s = video::GlobalFrameStats(frame.pixels);
      for (int i = 0; i < video::kNumFrameStats; ++i) {
        moments[static_cast<size_t>(i)].Add(s[static_cast<size_t>(i)]);
      }
    }
    for (int i = 0; i < video::kNumFrameStats; ++i) {
      stats_mean[static_cast<size_t>(i)] =
          static_cast<float>(moments[static_cast<size_t>(i)].mean());
      stats_scale[static_cast<size_t>(i)] = std::max(
          0.01f, static_cast<float>(moments[static_cast<size_t>(i)].stddev()));
    }
  }
  entry.profile = std::make_shared<conformal::DistributionProfile>(
      entry.name, vae, std::move(sigma), p.profile.stats_weight,
      std::move(stats_mean), std::move(stats_scale));

  int32_t ensemble_size = 0;
  VDRIFT_RETURN_NOT_OK(in->ReadI32(&ensemble_size));
  if (ensemble_size < 1) return Status::DataLoss("bad cache ensemble");
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  for (int32_t l = 0; l < ensemble_size; ++l) {
    auto member =
        std::make_shared<detect::ImageClassifier>(CountConfig(p), rng);
    VDRIFT_RETURN_NOT_OK(nn::LoadParameters(member->net()->Params(), in));
    members.push_back(std::move(member));
  }
  entry.count_model = members.front();
  VDRIFT_ASSIGN_OR_RETURN(select::DeepEnsemble ensemble,
                          select::DeepEnsemble::Make(std::move(members)));
  entry.ensemble = std::make_shared<select::DeepEnsemble>(std::move(ensemble));
  int32_t has_predicate = 0;
  VDRIFT_RETURN_NOT_OK(in->ReadI32(&has_predicate));
  if (has_predicate != 0) {
    detect::ClassifierConfig pred_config = CountConfig(p);
    pred_config.num_classes = 2;
    auto predicate =
        std::make_shared<detect::ImageClassifier>(pred_config, rng);
    VDRIFT_RETURN_NOT_OK(
        nn::LoadParameters(predicate->net()->Params(), in));
    entry.predicate_model = std::move(predicate);
  }
  return entry;
}

// Fills `bench->registry` from the cache file's bytes: one sealed record
// whose payload is the training options' key, the entry count, then every
// entry, with nothing after.
Status LoadWorkbench(std::string_view bytes, const WorkbenchOptions& options,
                     Workbench* bench) {
  // The architectures' random initialisation is overwritten by the stored
  // parameters. It draws from its own generator so that a load failing
  // part-way leaves the training generator as a fresh build finds it.
  stats::Rng init_rng(options.seed);
  VDRIFT_ASSIGN_OR_RETURN(
      std::string_view payload,
      OpenRecord(bytes, kCacheMagic, kCacheVersion, "model cache"));
  BinaryReader in(payload);
  std::string key;
  VDRIFT_RETURN_NOT_OK(in.ReadString(&key));
  if (key != TrainingOptionsKey(options)) {
    return Status::FailedPrecondition(
        "model cache was trained with other options");
  }
  int32_t count = 0;
  VDRIFT_RETURN_NOT_OK(in.ReadI32(&count));
  if (count != static_cast<int32_t>(bench->dataset.segments.size())) {
    return Status::DataLoss("model cache holds " + std::to_string(count) +
                            " entries, dataset has " +
                            std::to_string(bench->dataset.segments.size()));
  }
  for (int32_t i = 0; i < count; ++i) {
    VDRIFT_ASSIGN_OR_RETURN(
        select::ModelEntry entry,
        LoadEntry(&in, options, bench->training_frames[static_cast<size_t>(i)],
                  &init_rng));
    bench->registry.Add(std::move(entry));
  }
  if (in.remaining() != 0) {
    return Status::DataLoss("model cache has " +
                            std::to_string(in.remaining()) +
                            " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Workbench>> BuildWorkbench(
    const std::string& dataset_name, const WorkbenchOptions& options) {
  auto bench = std::make_unique<Workbench>();
  bench->dataset = MakeDataset(dataset_name, options.dataset_scale);
  stats::Rng rng(options.seed);
  // Training frames are regenerated deterministically in either path;
  // each segment renders from its own seed, so segments run in parallel.
  const std::vector<video::Segment>& segments = bench->dataset.segments;
  bench->training_frames.resize(segments.size());
  runtime::ParallelFor(
      0, static_cast<int64_t>(segments.size()), 1,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          bench->training_frames[static_cast<size_t>(i)] =
              video::GenerateFrames(
                  segments[static_cast<size_t>(i)].spec, options.train_frames,
                  bench->dataset.image_size,
                  options.seed + 1000 + static_cast<uint64_t>(i));
        }
      });

  std::string cache_path;
  if (!options.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    cache_path = options.cache_dir + "/" + dataset_name + "_models_v" +
                 std::to_string(kCacheVersion) + ".bin";
  }

  bool loaded = false;
  if (!cache_path.empty() && std::filesystem::exists(cache_path)) {
    // Decoded straight from the mapped file: a freed heap copy of the
    // megabyte cache would raise glibc's mmap threshold past every serving
    // allocation, and peak RSS would then vary from run to run.
    Status status = ReadMappedFile(cache_path, [&](std::string_view bytes) {
      return LoadWorkbench(bytes, options, bench.get());
    });
    loaded = status.ok();
    if (!loaded) {
      bench->registry = select::ModelRegistry();
      VDRIFT_LOG_WARNING << "model cache " << cache_path
                         << " unusable; retraining: " << status.ToString();
    }
  }

  if (!loaded) {
    for (size_t i = 0; i < bench->dataset.segments.size(); ++i) {
      VDRIFT_ASSIGN_OR_RETURN(
          select::ModelEntry entry,
          pipeline::ProvisionModel(bench->dataset.segments[i].spec.name,
                                   bench->training_frames[i],
                                   options.provision, &rng));
      bench->registry.Add(std::move(entry));
    }
    if (!cache_path.empty()) {
      Status save = SaveWorkbench(*bench, options, cache_path);
      if (!save.ok()) {
        VDRIFT_LOG_WARNING << "failed to write model cache: "
                           << save.ToString();
      }
    }
  }
  bench->loaded_from_cache = loaded;

  // Calibration samples are cheap and always redrawn. The MSBO
  // calibration itself is left to whoever selects with MSBO: a pipeline
  // calibrates on its first Run, a bench calls CalibrateMsbo.
  stats::Rng sample_rng(options.seed + 77);
  for (size_t i = 0; i < bench->training_frames.size(); ++i) {
    bench->calibration_samples.push_back(pipeline::MakeLabeledSample(
        bench->training_frames[i], options.provision.count_classes,
        options.calibration_sample, &sample_rng));
  }
  return bench;
}

}  // namespace vdrift::benchutil
