#include "core/registry_cow.h"

#include <utility>

namespace vdrift::select {

CowModelRegistry::Snapshot CowModelRegistry::TakeSnapshot() const {
  MutexLock lock(&mutex_);
  return models_;
}

bool CowModelRegistry::Publish(
    const ModelEntry& entry,
    const std::vector<LabeledFrame>& calibration_sample) {
  MutexLock lock(&mutex_);
  for (const PublishedModel& published : *models_) {
    if (published.entry.name == entry.name) return false;
  }
  auto next = std::make_shared<Models>(*models_);
  next->push_back(PublishedModel{entry, calibration_sample});
  models_ = std::move(next);  // the publication point
  return true;
}

int CowModelRegistry::FindByName(const std::string& name) const {
  Snapshot snapshot = TakeSnapshot();
  for (size_t i = 0; i < snapshot->size(); ++i) {
    if ((*snapshot)[i].entry.name == name) return static_cast<int>(i);
  }
  return -1;
}

int CowModelRegistry::size() const {
  return static_cast<int>(TakeSnapshot()->size());
}

}  // namespace vdrift::select
