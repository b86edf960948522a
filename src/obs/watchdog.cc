#include "obs/watchdog.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "obs/json.h"

namespace vdrift::obs {

namespace {

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

// Scans for `needle` characters outside label blocks (`{...}`) and quoted
// label values, so `metric{op="<"}<1` finds the second '<'.
size_t FindOutsideLabels(const std::string& text, const char* needles,
                         size_t from = 0) {
  bool in_quotes = false;
  int depth = 0;
  for (size_t i = from; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_quotes = false;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      continue;
    }
    if (c == '{') ++depth;
    if (c == '}' && depth > 0) --depth;
    if (depth > 0) continue;
    for (const char* n = needles; *n != '\0'; ++n) {
      if (c == *n) return i;
    }
  }
  return std::string::npos;
}

bool IsKnownAgg(const std::string& agg) {
  return agg == "delta" || agg == "total" || agg == "value" ||
         agg == "count" || agg == "sum" || agg == "mean" || agg == "p50" ||
         agg == "p90" || agg == "p99";
}

Result<MetricRef> ParseRef(const std::string& text, const std::string& rule) {
  MetricRef ref;
  size_t colon = FindOutsideLabels(text, ":");
  if (colon == std::string::npos) {
    ref.metric = Trim(text);
  } else {
    ref.metric = Trim(text.substr(0, colon));
    ref.agg = Trim(text.substr(colon + 1));
    if (!IsKnownAgg(ref.agg)) {
      return Status::InvalidArgument("slo rule '" + rule +
                                     "': unknown aggregation '" + ref.agg +
                                     "'");
    }
  }
  if (ref.metric.empty()) {
    return Status::InvalidArgument("slo rule '" + rule +
                                   "': empty metric reference");
  }
  return ref;
}

// Reads one MetricRef out of a sampled window. nullopt = the metric (or a
// meaningful aggregate of it) is not present in this window.
std::optional<double> Resolve(const MetricRef& ref,
                              const MetricsWindow& window) {
  std::string agg = ref.agg;
  if (agg.empty()) {
    // Infer from where the metric lives: counter -> delta, gauge -> value,
    // histogram -> p99.
    if (window.counter_deltas.count(ref.metric) > 0) {
      agg = "delta";
    } else if (window.gauges.count(ref.metric) > 0) {
      agg = "value";
    } else if (window.histograms.count(ref.metric) > 0) {
      agg = "p99";
    } else {
      return std::nullopt;
    }
  }
  if (agg == "delta" || agg == "total") {
    const auto& source =
        agg == "delta" ? window.counter_deltas : window.counter_totals;
    auto it = source.find(ref.metric);
    if (it == source.end()) return std::nullopt;
    return static_cast<double>(it->second);
  }
  if (agg == "value") {
    auto it = window.gauges.find(ref.metric);
    if (it == window.gauges.end()) return std::nullopt;
    return it->second;
  }
  auto it = window.histograms.find(ref.metric);
  if (it == window.histograms.end()) return std::nullopt;
  const Histogram::Snapshot& snap = it->second;
  if (agg == "count") return static_cast<double>(snap.count);
  if (agg == "sum") return snap.sum;
  // Distribution shape of an empty window is undefined, not zero.
  if (snap.count == 0) return std::nullopt;
  if (agg == "mean") return snap.Mean();
  if (agg == "p50") return snap.Quantile(0.50);
  if (agg == "p90") return snap.Quantile(0.90);
  return snap.Quantile(0.99);
}

bool Healthy(double value, const std::string& op, double threshold) {
  if (op == "<") return value < threshold;
  if (op == "<=") return value <= threshold;
  if (op == ">") return value > threshold;
  if (op == ">=") return value >= threshold;
  if (op == "==") return value == threshold;
  return value != threshold;  // "!="
}

Result<SloRule> ParseRule(const std::string& text) {
  SloRule rule;
  size_t name_end = text.find('=');
  if (name_end == std::string::npos || name_end + 1 >= text.size()) {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': expected name=expression");
  }
  rule.name = Trim(text.substr(0, name_end));
  if (rule.name.empty()) {
    return Status::InvalidArgument("slo rule '" + text + "': empty name");
  }
  std::string expr = text.substr(name_end + 1);

  size_t op_at = FindOutsideLabels(expr, "<>=!");
  if (op_at == std::string::npos) {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': no comparison operator");
  }
  size_t op_len = 1;
  if (op_at + 1 < expr.size() && expr[op_at + 1] == '=') op_len = 2;
  rule.op = expr.substr(op_at, op_len);
  if (rule.op != "<" && rule.op != "<=" && rule.op != ">" &&
      rule.op != ">=" && rule.op != "==" && rule.op != "!=") {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': bad operator '" + rule.op + "'");
  }

  std::string lhs = expr.substr(0, op_at);
  size_t slash = FindOutsideLabels(lhs, "/");
  if (slash == std::string::npos) {
    VDRIFT_ASSIGN_OR_RETURN(rule.numerator, ParseRef(lhs, text));
  } else {
    VDRIFT_ASSIGN_OR_RETURN(rule.numerator,
                            ParseRef(lhs.substr(0, slash), text));
    std::string denom = lhs.substr(slash + 1);
    if (FindOutsideLabels(denom, "/") != std::string::npos) {
      return Status(StatusCode::kInvalidArgument,
                    "SLO rule has more than one '/': " + std::string(text));
    }
    VDRIFT_ASSIGN_OR_RETURN(rule.denominator, ParseRef(denom, text));
  }

  std::string rhs = expr.substr(op_at + op_len);
  size_t comma = rhs.find(',');
  std::string threshold_text = Trim(
      comma == std::string::npos ? rhs : rhs.substr(0, comma));
  char* end = nullptr;
  rule.threshold = std::strtod(threshold_text.c_str(), &end);
  if (threshold_text.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': bad threshold '" + threshold_text +
                                   "'");
  }
  if (comma != std::string::npos) {
    std::string suffix = Trim(rhs.substr(comma + 1));
    if (suffix.rfind("for=", 0) != 0) {
      return Status::InvalidArgument("slo rule '" + text +
                                     "': expected for=N, got '" + suffix +
                                     "'");
    }
    rule.for_windows = std::atoi(suffix.c_str() + 4);
    if (rule.for_windows < 1) {
      return Status::InvalidArgument("slo rule '" + text +
                                     "': for=N needs N >= 1");
    }
  }
  return rule;
}

}  // namespace

Result<std::vector<SloRule>> ParseSloSpec(const std::string& spec) {
  if (spec == "default") return ParseSloSpec(DefaultSloSpec());
  std::vector<SloRule> rules;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    std::string text = Trim(spec.substr(begin, end - begin));
    begin = end + 1;
    if (text.empty()) continue;
    VDRIFT_ASSIGN_OR_RETURN(SloRule rule, ParseRule(text));
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::string DefaultSloSpec() {
  // Stream-time rules only: a clean run must evaluate identically (and
  // alert-free) on any machine. Wall-clock latency rules (e.g.
  // frame_latency_p99=vdrift.pipeline.run_seconds:p99<0.050) are opt-in
  // via VDRIFT_SLO_SPEC.
  return "frame_drop_ratio=vdrift.pipeline.frames_dropped:total/"
         "vdrift.pipeline.frames:total<0.02;"
         "drift_oblivious=vdrift.pipeline.drift_oblivious:value==0;"
         "detect_lag_p99=vdrift.pipeline.detect_lag_frames:p99<2000;"
         "selector_failures=vdrift.pipeline.selection_failures:total==0;"
         "annotator_errors=vdrift.pipeline.annotator_errors:value==0;"
         "checkpoint_failures=vdrift.pipeline.checkpoint_failures:total==0";
}

std::string AlertEvent::ToJson() const {
  std::string out = "{\"rule\":\"" + json::Escape(rule) + "\"";
  out += ",\"window\":" + std::to_string(window);
  out += ",\"time\":" + json::FormatDouble(time);
  out += ",\"value\":" + json::FormatDouble(value);
  out += ",\"op\":\"" + json::Escape(op) + "\"";
  out += ",\"threshold\":" + json::FormatDouble(threshold);
  out += ",\"message\":\"" + json::Escape(message) + "\"}";
  return out;
}

HealthWatchdog::HealthWatchdog(std::vector<SloRule> rules)
    : HealthWatchdog(std::move(rules), Options()) {}

HealthWatchdog::HealthWatchdog(std::vector<SloRule> rules,
                               const Options& options)
    : rules_(std::move(rules)), options_(options), states_(rules_.size()) {
  VDRIFT_CHECK(options_.max_alerts >= 1);
}

const SloRule* HealthWatchdog::FindRule(const std::string& name) const {
  for (const SloRule& rule : rules_) {
    if (rule.name == name) return &rule;
  }
  return nullptr;
}

std::vector<AlertEvent> HealthWatchdog::Evaluate(
    const MetricsWindow& window) {
  std::vector<AlertEvent> fired;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    std::optional<double> value = Resolve(rule.numerator, window);
    if (!rule.denominator.metric.empty()) {
      std::optional<double> denom = Resolve(rule.denominator, window);
      if (!value.has_value() || !denom.has_value() || *denom == 0.0) {
        continue;  // no data: neither a breach nor an all-clear
      }
      value = *value / *denom;
    }
    if (!value.has_value()) continue;

    if (Healthy(*value, rule.op, rule.threshold)) {
      state.streak = 0;
      state.active = false;
      continue;
    }
    state.streak += 1;
    if (state.active || state.streak < rule.for_windows) continue;
    state.active = true;

    AlertEvent alert;
    alert.rule = rule.name;
    alert.window = window.index;
    alert.time = window.end_time;
    alert.value = *value;
    alert.op = rule.op;
    alert.threshold = rule.threshold;
    alert.message = rule.name + ": " + json::FormatDouble(*value) + " !" +
                    rule.op + " " + json::FormatDouble(rule.threshold);
    if (rule.for_windows > 1) {
      alert.message +=
          " for " + std::to_string(state.streak) + " windows";
    }
    fired.push_back(alert);
    alerts_.push_back(alert);
    total_alerts_ += 1;
    while (static_cast<int>(alerts_.size()) > options_.max_alerts) {
      alerts_.pop_front();
    }
  }
  return fired;
}

std::vector<AlertEvent> HealthWatchdog::alerts() const {
  return {alerts_.begin(), alerts_.end()};
}

std::vector<std::string> HealthWatchdog::active_rules() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (states_[i].active) out.push_back(rules_[i].name);
  }
  return out;
}

std::string HealthWatchdog::AlertsJson() const {
  std::string out = "[";
  bool first = true;
  for (const AlertEvent& alert : alerts_) {
    if (!first) out += ",";
    first = false;
    out += alert.ToJson();
  }
  out += "]";
  return out;
}

}  // namespace vdrift::obs
