#ifndef VDRIFT_CORE_REGISTRY_H_
#define VDRIFT_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/profile.h"
#include "nn/classifier.h"

namespace vdrift::select {

/// \brief One provisioned model M_i with everything the system keeps for
/// it: the distribution profile (VAE + Sigma_Ti + A_i) used by DI and
/// MSBI, the deep ensemble used by MSBO, and the query models deployed for
/// actual stream processing.
struct ModelEntry {
  std::string name;
  std::shared_ptr<conformal::DistributionProfile> profile;
  std::shared_ptr<DeepEnsemble> ensemble;
  std::shared_ptr<nn::ProbabilisticClassifier> count_model;
  std::shared_ptr<nn::ProbabilisticClassifier> predicate_model;
};

/// \brief The collection of provisioned models M_1..M_m.
class ModelRegistry {
 public:
  /// Adds an entry and returns its index.
  int Add(ModelEntry entry);

  /// Number of models m.
  int size() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  /// Entry access.
  const ModelEntry& at(int index) const;
  const std::vector<ModelEntry>& entries() const { return entries_; }

  /// Index of the entry with the given name, or -1.
  int FindByName(const std::string& name) const;

 private:
  std::vector<ModelEntry> entries_;
};

/// \brief Outcome of a model-selection run (MSBI or MSBO).
struct Selection {
  /// True when no provisioned model fits the new data: trainNewModel()
  /// must be invoked (§5.4).
  bool train_new_model = false;
  /// Index of the selected model in the registry (-1 with train_new_model).
  int model_index = -1;
  /// Frames the selector examined.
  int frames_examined = 0;
  /// Total model/DI invocations spent selecting (the §6.2 cost metric).
  int invocations = 0;
  /// MSBO: the winning ensemble's average Brier; MSBI: final r used.
  double score = 0.0;
};

}  // namespace vdrift::select

#endif  // VDRIFT_CORE_REGISTRY_H_
