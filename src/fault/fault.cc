#include "fault/fault.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace vdrift::fault {

namespace {

constexpr const char* kKindNames[kNumFaultKinds] = {
    "corrupt_frame",      "nan_frame",       "drop_frame",
    "dup_frame",          "stall",           "annotator_deadline",
    "annotator_error",    "selector_fail",   "io_fail",
    "checkpoint_corrupt",
};

/// Resolves a spec-string name to a kind; -1 when unknown.
int KindFromName(const std::string& name) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    if (name == kKindNames[k]) return k;
  }
  return -1;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  int k = static_cast<int>(kind);
  VDRIFT_CHECK(k >= 0 && k < kNumFaultKinds);
  return kKindNames[k];
}

bool FaultPlan::empty() const {
  for (const FaultRate& rate : rates) {
    if (rate.p > 0.0) return false;
  }
  return true;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const FaultRate& rate = rates[static_cast<size_t>(k)];
    if (rate.p <= 0.0) continue;
    if (!first) out << ";";
    first = false;
    out << kKindNames[k] << ":p=" << rate.p;
    if (rate.ms > 0) out << ",ms=" << rate.ms;
  }
  return out.str();
}

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream clauses(spec);
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    if (clause.empty()) continue;
    size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("fault clause missing ':': " + clause);
    }
    std::string name = clause.substr(0, colon);
    int kind = KindFromName(name);
    if (kind < 0) {
      return Status::InvalidArgument("unknown fault kind: " + name);
    }
    FaultRate& rate = plan.rates[static_cast<size_t>(kind)];
    std::istringstream params(clause.substr(colon + 1));
    std::string param;
    bool saw_p = false;
    while (std::getline(params, param, ',')) {
      size_t eq = param.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault param missing '=': " + param);
      }
      std::string key = param.substr(0, eq);
      std::string value = param.substr(eq + 1);
      char* end = nullptr;
      double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
        return Status::InvalidArgument("bad fault param value: " + param);
      }
      if (key == "p") {
        if (parsed < 0.0 || parsed > 1.0) {
          return Status::InvalidArgument("fault probability out of [0,1]: " +
                                         value);
        }
        rate.p = parsed;
        saw_p = true;
      } else if (key == "ms") {
        if (parsed < 0.0 || parsed > 60 * 1000.0) {
          return Status::InvalidArgument("fault ms out of [0, 60000]: " +
                                         value);
        }
        rate.ms = static_cast<int>(parsed);
      } else {
        return Status::InvalidArgument("unknown fault param: " + key);
      }
    }
    if (!saw_p) {
      return Status::InvalidArgument("fault clause missing p=: " + clause);
    }
  }
  return plan;
}

Result<std::vector<StreamFaultPlan>> ParsePerStreamFaultSpec(
    const std::string& spec) {
  std::vector<StreamFaultPlan> plans;
  std::istringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, '|')) {
    if (entry.empty()) continue;
    size_t at = entry.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument("per-stream fault entry missing '@': " +
                                     entry);
    }
    std::string label = entry.substr(0, at);
    if (label.empty()) {
      return Status::InvalidArgument("per-stream fault entry has empty "
                                     "stream label: " +
                                     entry);
    }
    // Labels become metric label values and checkpoint file names;
    // whitespace there is always a quoting accident in the spec.
    for (char c : label) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        return Status::InvalidArgument(
            "per-stream fault label contains whitespace: '" + label + "'");
      }
    }
    for (const StreamFaultPlan& existing : plans) {
      if (existing.stream == label) {
        return Status::InvalidArgument("duplicate stream label in fault "
                                       "spec: " +
                                       label);
      }
    }
    const std::string plan_spec = entry.substr(at + 1);
    if (plan_spec.empty()) {
      // "s1@" would silently arm zero faults — a campaign typo that must
      // fail loudly, not test nothing.
      return Status::InvalidArgument(
          "per-stream fault entry has empty plan for stream '" + label +
          "'");
    }
    VDRIFT_ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::Parse(plan_spec));
    plans.push_back(StreamFaultPlan{std::move(label), plan});
  }
  return plans;
}

FaultPlan FaultPlan::FromEnv() {
  std::string spec = env::String("VDRIFT_FAULT_SPEC");
  if (spec.empty()) return FaultPlan{};
  Result<FaultPlan> plan = Parse(spec);
  VDRIFT_CHECK(plan.ok()) << "VDRIFT_FAULT_SPEC invalid: "
                          << plan.status().ToString();
  return std::move(plan).value();
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed)
    : plan_(plan), seed_(seed), rng_(seed) {}

bool FaultInjector::ShouldInject(FaultKind kind) {
  const FaultRate& rate = plan_.rate(kind);
  // p == 0 consumes no randomness: kinds that are off never perturb the
  // draw sequence of kinds that are on.
  if (rate.p <= 0.0) return false;
  if (rng_.NextDouble() >= rate.p) return false;
  ++counts_[static_cast<size_t>(kind)];
  obs::Global()
      .GetCounter(std::string("vdrift.fault.injected.") + FaultKindName(kind))
      .Increment();
  return true;
}

void FaultInjector::CorruptTensor(tensor::Tensor* tensor) {
  VDRIFT_CHECK(tensor != nullptr);
  if (tensor->empty()) return;
  int64_t n = tensor->size();
  // Garbage a contiguous band covering ~1/4 of the tensor: localized
  // damage, like a slice of a frame arriving from a different world.
  int64_t band = std::max<int64_t>(1, n / 4);
  int64_t start = static_cast<int64_t>(rng_.NextDouble() *
                                       static_cast<double>(n - band));
  for (int64_t i = start; i < start + band; ++i) {
    (*tensor)[i] = static_cast<float>(rng_.NextDouble() * 8.0 - 4.0);
  }
}

void FaultInjector::PoisonTensor(tensor::Tensor* tensor) {
  VDRIFT_CHECK(tensor != nullptr);
  if (tensor->empty()) return;
  int64_t n = tensor->size();
  // Poison ~1% of elements, at least one — a single NaN is enough to sink
  // any mean/distance computation downstream.
  int64_t hits = std::max<int64_t>(1, n / 100);
  for (int64_t h = 0; h < hits; ++h) {
    int64_t i = static_cast<int64_t>(rng_.NextDouble() *
                                     static_cast<double>(n));
    if (i >= n) i = n - 1;
    (*tensor)[i] = std::numeric_limits<float>::quiet_NaN();
  }
}

void FaultInjector::CorruptBytes(std::string* bytes) {
  VDRIFT_CHECK(bytes != nullptr);
  if (bytes->empty()) return;
  size_t index = static_cast<size_t>(
      rng_.NextDouble() * static_cast<double>(bytes->size()));
  if (index >= bytes->size()) index = bytes->size() - 1;
  int bit = rng_.NextInt(0, 7);
  (*bytes)[index] = static_cast<char>(
      static_cast<unsigned char>((*bytes)[index]) ^ (1u << bit));
}

void FaultInjector::TearBytes(std::string* bytes) {
  VDRIFT_CHECK(bytes != nullptr);
  if (bytes->size() < 2) return;
  // Cut somewhere strictly inside, so a header-only stub and a
  // nearly-complete file are both reachable outcomes.
  size_t cut = 1 + static_cast<size_t>(
                       rng_.NextDouble() *
                       static_cast<double>(bytes->size() - 1));
  if (cut >= bytes->size()) cut = bytes->size() - 1;
  bytes->resize(cut);
}

int64_t FaultInjector::total_injected() const {
  int64_t total = 0;
  for (int64_t count : counts_) total += count;
  return total;
}

void FaultInjector::Reset() {
  rng_ = stats::Rng(seed_);
  counts_.fill(0);
}

}  // namespace vdrift::fault
