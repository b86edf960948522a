// The record codec (common/binio.h) under every mutation, on the three
// record kinds it seals: a pipeline checkpoint (VDCKPT01) and a fleet
// manifest (VDFLEET01), both written by a real fleet run, and a smoke-size
// model cache written by the workbench. Whatever the damage, the owner's
// decoder must answer kDataLoss — never decode it, never crash.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "benchutil/workbench.h"
#include "common/binio.h"
#include "pipeline/checkpoint.h"
#include "serve/fleet.h"
#include "serve/supervisor.h"
#include "video/stream.h"

namespace vdrift {
namespace {

struct RecordKind {
  std::string name;
  std::string bytes;
  std::string_view magic;
  uint32_t version = 0;
  /// The owner's decoder: the whole file in, its status out.
  std::function<Status(const std::string&)> decode;
};

std::string ReadOnly(const std::filesystem::path& path) {
  Result<std::string> bytes = ReadFileToString(path.string());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

// Builds a smoke-size workbench into `dir`, then serves one stream of it
// through a checkpointing, manifest-writing fleet.
std::vector<RecordKind> WriteRealRecords(const std::filesystem::path& dir) {
  benchutil::WorkbenchOptions options;
  options.dataset_scale = 0.002;
  options.train_frames = 40;
  options.calibration_sample = 8;
  options.provision = pipeline::DefaultProvisionOptions();
  options.provision.profile.vae.latent_dim = 2;
  options.provision.profile.vae.base_filters = 1;
  options.provision.profile.trainer.epochs = 1;
  options.provision.profile.sigma_size = 20;
  options.provision.classifier_filters = 1;
  options.provision.classifier_train.epochs = 1;
  options.provision.ensemble_size = 1;
  options.provision.train_predicate_model = false;
  options.cache_dir = (dir / "cache").string();
  auto bench = benchutil::BuildWorkbench("Tokyo", options).ValueOrDie();

  serve::FleetOptions fleet_options;
  fleet_options.pipeline.provision = options.provision;
  fleet_options.slice_frames = 24;
  fleet_options.checkpoint_dir = dir.string();
  fleet_options.manifest_path = (dir / "fleet.manifest").string();
  serve::DriftFleet fleet(fleet_options);
  EXPECT_TRUE(
      fleet.AddBaseModels(bench->registry, bench->calibration_samples).ok());
  video::StreamGenerator stream({{bench->dataset.segments[0].spec, 60}},
                                bench->dataset.image_size, 31);
  EXPECT_TRUE(fleet.AddStream({"s0", &stream, nullptr}).ok());
  EXPECT_TRUE(fleet.Run().ok());

  std::vector<RecordKind> kinds;
  kinds.push_back({"checkpoint", ReadOnly(dir / "s0.ckpt"), "VDCKPT01", 2,
                   [](const std::string& bytes) {
                     return pipeline::DecodeCheckpoint(bytes).status();
                   }});
  kinds.push_back({"fleet manifest", ReadOnly(dir / "fleet.manifest"),
                   "VDFLEET01", 1, [](const std::string& bytes) {
                     return serve::DecodeFleetManifest(bytes).status();
                   }});
  std::filesystem::path cache;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_dir)) {
    cache = entry.path();
  }
  kinds.push_back({"model cache", ReadOnly(cache), "VDCACHE1", 5,
                   [](const std::string& bytes) {
                     return OpenRecord(bytes, "VDCACHE1", 5, "model cache")
                         .status();
                   }});
  return kinds;
}

void ExpectDataLoss(const RecordKind& kind, const std::string& damaged,
                    const std::string& mutation) {
  Status status = kind.decode(damaged);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss)
      << kind.name << ", " << mutation << ": " << status.ToString();
}

TEST(RecordCodecTest, EveryMutationOfEveryRecordKindIsDataLoss) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vdrift_record_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const RecordKind& kind : WriteRealRecords(dir)) {
    SCOPED_TRACE(kind.name);
    const std::string& bytes = kind.bytes;
    const size_t header = kind.magic.size() + sizeof(uint32_t) +
                          sizeof(uint64_t);
    ASSERT_GT(bytes.size(), header + sizeof(uint32_t));
    // The pristine record opens as this kind and decodes.
    Result<std::string_view> payload =
        OpenRecord(bytes, kind.magic, kind.version, kind.name);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(payload.value().size(), bytes.size() - header - 4);
    ASSERT_TRUE(kind.decode(bytes).ok());

    std::string damaged = bytes;
    for (size_t i = 0; i < bytes.size(); ++i) {
      damaged[i] = static_cast<char>(bytes[i] ^ 0x01);
      ExpectDataLoss(kind, damaged, "flip at byte " + std::to_string(i));
      damaged[i] = bytes[i];
    }
    for (size_t n = 0; n < bytes.size(); ++n) {
      ExpectDataLoss(kind, bytes.substr(0, n),
                     "truncated to " + std::to_string(n));
    }
    ExpectDataLoss(kind, bytes + '\0', "one appended byte");

    const size_t length_at = kind.magic.size() + sizeof(uint32_t);
    uint64_t length = 0;
    std::memcpy(&length, bytes.data() + length_at, sizeof(length));
    for (uint64_t forged : {length + 1, length - 1, uint64_t{1} << 63}) {
      std::string forged_bytes = bytes;
      std::memcpy(forged_bytes.data() + length_at, &forged, sizeof(forged));
      ExpectDataLoss(kind, forged_bytes,
                     "length field " + std::to_string(forged));
    }
    for (uint32_t version : {kind.version - 1, kind.version + 1}) {
      std::string versioned = bytes;
      std::memcpy(versioned.data() + kind.magic.size(), &version,
                  sizeof(version));
      ExpectDataLoss(kind, versioned, "version " + std::to_string(version));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vdrift
