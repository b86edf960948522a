#ifndef VDRIFT_CORE_REGISTRY_COW_H_
#define VDRIFT_CORE_REGISTRY_COW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/ensemble.h"
#include "core/registry.h"

namespace vdrift::select {

/// \brief One model published into the fleet-shared registry: the entry
/// plus the labeled calibration sample adopting streams need to extend
/// their MSBO calibration.
struct PublishedModel {
  ModelEntry entry;
  std::vector<LabeledFrame> calibration_sample;
};

/// \brief Copy-on-write shared model registry (ROADMAP item 1).
///
/// The fleet's publication channel: a model trained for one stream's drift
/// becomes selectable by every stream. Readers take an immutable snapshot
/// (a shared_ptr to a const vector — O(1), never blocks on writers);
/// writers copy the vector, append, and swap the pointer under the mutex.
/// The swap is the publication point: a snapshot taken before it does not
/// see the new model, one taken after sees it fully — there is no partial
/// state. Publication order is append order, so every consumer that
/// iterates a snapshot adopts models in the same deterministic order.
///
/// An entry holds shared pointers, so publishing and adopting copy no
/// model: the publisher and every adopter execute the same objects.
/// Inference is const and stores nothing, and no model is trained once it
/// is in a registry, so concurrent readers need no lock and no replica.
class CowModelRegistry {
 public:
  CowModelRegistry() : models_(std::make_shared<Models>()) {}

  CowModelRegistry(const CowModelRegistry&) = delete;
  CowModelRegistry& operator=(const CowModelRegistry&) = delete;

  using Models = std::vector<PublishedModel>;
  using Snapshot = std::shared_ptr<const Models>;

  /// The current immutable snapshot. Safe to iterate without locks; later
  /// publications do not mutate it.
  Snapshot TakeSnapshot() const;

  /// Appends `entry` (sharing its models) with its calibration sample.
  /// First-writer-wins by name: returns false (and publishes nothing) when
  /// a model of the same name is already published.
  bool Publish(const ModelEntry& entry,
               const std::vector<LabeledFrame>& calibration_sample);

  /// Index of the published model with this name in the current snapshot,
  /// or -1.
  int FindByName(const std::string& name) const;

  /// Number of published models.
  int size() const;

 private:
  mutable Mutex mutex_;
  Snapshot models_ VDRIFT_GUARDED_BY(mutex_);
};

}  // namespace vdrift::select

#endif  // VDRIFT_CORE_REGISTRY_COW_H_
