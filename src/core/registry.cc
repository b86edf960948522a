#include "core/registry.h"

#include "common/logging.h"

namespace vdrift::select {

int ModelRegistry::Add(ModelEntry entry) {
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

const ModelEntry& ModelRegistry::at(int index) const {
  // vdrift-lint: allow(no-data-dependent-check): accessor bounds contract
  VDRIFT_CHECK(index >= 0 && index < size());
  return entries_[static_cast<size_t>(index)];
}

int ModelRegistry::FindByName(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace vdrift::select
