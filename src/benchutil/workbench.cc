#include "benchutil/workbench.h"

#include <cstdint>
#include <filesystem>
#include <fstream>

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

constexpr uint32_t kCacheMagic = 0x56444243;  // "VDBC"
constexpr uint32_t kCacheVersion = 4;

template <typename T>
void WritePod(std::ostream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(T));
  return in->good();
}

void WriteString(std::ostream* out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream* in, std::string* s) {
  uint64_t n = 0;
  if (!ReadPod(in, &n) || n > (1u << 20)) return false;
  s->resize(n);
  in->read(s->data(), static_cast<std::streamsize>(n));
  return in->good();
}

void WriteFloats(std::ostream* out, const std::vector<float>& v) {
  WritePod<uint64_t>(out, v.size());
  out->write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
}

bool ReadFloats(std::istream* in, std::vector<float>* v) {
  uint64_t n = 0;
  if (!ReadPod(in, &n) || n > (1u << 28)) return false;
  v->resize(n);
  in->read(reinterpret_cast<char*>(v->data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  return in->good();
}

detect::ClassifierConfig CountConfig(const pipeline::ProvisionOptions& p) {
  detect::ClassifierConfig config;
  config.image_size = p.profile.vae.image_size;
  config.channels = p.profile.vae.channels;
  config.num_classes = p.count_classes;
  config.base_filters = p.classifier_filters;
  return config;
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

Status SaveWorkbench(const Workbench& bench, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return Status::IoError("cannot open cache for writing");
  WritePod(&out, kCacheMagic);
  WritePod(&out, kCacheVersion);
  WritePod<int32_t>(&out, bench.registry.size());
  for (int i = 0; i < bench.registry.size(); ++i) {
    const select::ModelEntry& entry = bench.registry.at(i);
    WriteString(&out, entry.name);
    // VAE parameters: serialize via a temporary Sequential-like wrapper.
    // The Vae exposes Params() directly, so write them inline.
    std::vector<nn::Parameter*> vae_params = entry.profile->vae()->Params();
    WritePod<uint64_t>(&out, vae_params.size());
    for (nn::Parameter* p : vae_params) {
      std::vector<float> values(p->value.data(),
                                p->value.data() + p->value.size());
      WriteFloats(&out, values);
    }
    // Scoring-embedding standardisation: re-derived on load (deterministic
    // from the regenerated training frames), so only the point set needs
    // storing.
    const conformal::PointSet& sigma = entry.profile->sigma();
    WritePod<int32_t>(&out, sigma.k());
    WritePod<int32_t>(&out, sigma.size());
    WritePod<int32_t>(&out, sigma.dim());
    for (const auto& point : sigma.points()) WriteFloats(&out, point);
    // Ensemble members (member 0 is also the deployed count model).
    WritePod<int32_t>(&out, entry.ensemble->size());
    for (int l = 0; l < entry.ensemble->size(); ++l) {
      auto* member =
          dynamic_cast<detect::ImageClassifier*>(entry.ensemble->member(l).get());
      if (member == nullptr) {
        return Status::Internal("cache only supports ImageClassifier members");
      }
      VDRIFT_RETURN_NOT_OK(nn::SaveParameters(member->net(), &out));
    }
    // Predicate model.
    auto* predicate =
        dynamic_cast<detect::ImageClassifier*>(entry.predicate_model.get());
    WritePod<int32_t>(&out, predicate != nullptr ? 1 : 0);
    if (predicate != nullptr) {
      VDRIFT_RETURN_NOT_OK(nn::SaveParameters(predicate->net(), &out));
    }
  }
  if (!out.good()) return Status::IoError("cache write failed");
  return Status::OK();
}

// Rebuilds one model entry from the cache stream. The architectures are
// reconstructed from `options` (with throwaway random init) and then
// overwritten with the stored parameters.
Result<select::ModelEntry> LoadEntry(
    std::istream* in, const WorkbenchOptions& options,
    const std::vector<video::Frame>& training_frames, stats::Rng* rng) {
  const pipeline::ProvisionOptions& p = options.provision;
  select::ModelEntry entry;
  if (!ReadString(in, &entry.name)) return Status::IoError("bad cache name");
  auto vae = std::make_shared<vae::Vae>(p.profile.vae, rng);
  uint64_t vae_param_count = 0;
  if (!ReadPod(in, &vae_param_count)) return Status::IoError("bad cache");
  std::vector<nn::Parameter*> vae_params = vae->Params();
  if (vae_param_count != vae_params.size()) {
    return Status::InvalidArgument("cache/architecture mismatch (VAE)");
  }
  for (nn::Parameter* param : vae_params) {
    std::vector<float> values;
    if (!ReadFloats(in, &values) ||
        static_cast<int64_t>(values.size()) != param->value.size()) {
      return Status::InvalidArgument("cache/architecture mismatch (VAE)");
    }
    std::copy(values.begin(), values.end(), param->value.data());
  }
  int32_t k = 0;
  int32_t n = 0;
  int32_t dim = 0;
  if (!ReadPod(in, &k) || !ReadPod(in, &n) || !ReadPod(in, &dim)) {
    return Status::IoError("bad cache point set");
  }
  std::vector<std::vector<float>> points;
  points.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    std::vector<float> point;
    if (!ReadFloats(in, &point) ||
        static_cast<int32_t>(point.size()) != dim) {
      return Status::IoError("bad cache point");
    }
    points.push_back(std::move(point));
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
  if (!ReadPod(in, &ensemble_size) || ensemble_size < 1) {
    return Status::IoError("bad cache ensemble");
  }
  std::vector<std::shared_ptr<nn::ProbabilisticClassifier>> members;
  for (int32_t l = 0; l < ensemble_size; ++l) {
    auto member =
        std::make_shared<detect::ImageClassifier>(CountConfig(p), rng);
    VDRIFT_RETURN_NOT_OK(nn::LoadParameters(member->net(), in));
    members.push_back(std::move(member));
  }
  entry.count_model = members.front();
  VDRIFT_ASSIGN_OR_RETURN(select::DeepEnsemble ensemble,
                          select::DeepEnsemble::Make(std::move(members)));
  entry.ensemble = std::make_shared<select::DeepEnsemble>(std::move(ensemble));
  int32_t has_predicate = 0;
  if (!ReadPod(in, &has_predicate)) return Status::IoError("bad cache");
  if (has_predicate != 0) {
    detect::ClassifierConfig pred_config = CountConfig(p);
    pred_config.num_classes = 2;
    auto predicate =
        std::make_shared<detect::ImageClassifier>(pred_config, rng);
    VDRIFT_RETURN_NOT_OK(nn::LoadParameters(predicate->net(), in));
    entry.predicate_model = std::move(predicate);
  }
  return entry;
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
    std::ifstream in(cache_path, std::ios::binary);
    uint32_t magic = 0;
    uint32_t version = 0;
    int32_t count = 0;
    if (in.good() && ReadPod(&in, &magic) && magic == kCacheMagic &&
        ReadPod(&in, &version) && version == kCacheVersion &&
        ReadPod(&in, &count) &&
        count == static_cast<int32_t>(bench->dataset.segments.size())) {
      loaded = true;
      for (int32_t i = 0; i < count && loaded; ++i) {
        Result<select::ModelEntry> entry = LoadEntry(
            &in, options, bench->training_frames[static_cast<size_t>(i)],
            &rng);
        if (!entry.ok()) {
          loaded = false;
          break;
        }
        bench->registry.Add(std::move(entry).value());
      }
    }
    if (!loaded) {
      bench->registry = select::ModelRegistry();
      VDRIFT_LOG_WARNING << "model cache " << cache_path
                         << " unusable; retraining";
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
      Status save = SaveWorkbench(*bench, cache_path);
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
