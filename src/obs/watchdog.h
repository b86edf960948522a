#ifndef VDRIFT_OBS_WATCHDOG_H_
#define VDRIFT_OBS_WATCHDOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/sampler.h"

namespace vdrift::obs {

/// \brief One reference to a sampled value: a metric name plus the
/// aggregation to read from a MetricsWindow.
///
/// Aggregations: `delta`/`total` (counters), `value` (gauges),
/// `count`/`sum`/`mean`/`p50`/`p90`/`p99` (windowed histograms). When no
/// aggregation is spelled, it is inferred from where the metric is found:
/// counter -> delta, gauge -> value, histogram -> p99.
struct MetricRef {
  std::string metric;
  std::string agg;  ///< Empty = infer at evaluation time.
};

/// \brief One declarative SLO rule. The expression states the *healthy*
/// condition; a window where it evaluates false is a breach.
struct SloRule {
  std::string name;
  MetricRef numerator;
  MetricRef denominator;  ///< metric empty = plain (non-ratio) rule.
  std::string op;         ///< One of < <= > >= == !=.
  double threshold = 0.0;
  /// Hysteresis: the alert only activates after this many *consecutive*
  /// breached windows (default 1 = fire on the first breach).
  int for_windows = 1;
};

/// Parses a watchdog spec: semicolon-separated rules of the form
///
///   name = metric[:agg][/metric[:agg]] op threshold [,for=N]
///
/// e.g. `drop_ratio=vdrift.pipeline.frames_dropped:total/`
/// `vdrift.pipeline.frames:total<0.02;oblivious=vdrift.pipeline.`
/// `drift_oblivious==0,for=2`. Metric names may carry label blocks
/// (`name{k="v"}`); operators inside quoted label values are ignored by
/// the scanner. Malformed rules are kInvalidArgument. The whole spec
/// "default" stands for DefaultSloSpec().
Result<std::vector<SloRule>> ParseSloSpec(const std::string& spec);

/// The built-in rule set armed by the spec "default". Every rule is
/// deterministic in stream time (no wall-clock latency bounds), so a clean
/// run raises zero alerts on any machine.
std::string DefaultSloSpec();

/// \brief One structured alert: a rule transitioned from healthy to
/// breached-for-`for_windows` at the end of a sampling window.
struct AlertEvent {
  std::string rule;      ///< SloRule::name.
  int64_t window = 0;    ///< MetricsWindow::index that activated the alert.
  double time = 0.0;     ///< MetricsWindow::end_time (stream time).
  double value = 0.0;    ///< Observed value that breached.
  double threshold = 0.0;
  std::string op;        ///< The healthy-condition operator that failed.
  std::string message;   ///< Human summary, e.g. "drop_ratio: 0.2 !< 0.02".

  std::string ToJson() const;
};

/// \brief Evaluates SLO rules against each sampling window and keeps a
/// bounded log of the alerts that fired.
///
/// Per rule the watchdog tracks a consecutive-breach streak; the alert
/// activates (and one AlertEvent is emitted) when the streak reaches
/// `for_windows`, and deactivates on the first healthy window — so a
/// sustained breach produces one alert, not one per window. A rule whose
/// metric is absent from the window (or whose ratio denominator is zero)
/// is skipped for that window: missing data is not a breach, and it does
/// not break an ongoing streak either way — the streak simply holds.
class HealthWatchdog {
 public:
  struct Options {
    int max_alerts = 256;  ///< Alert log capacity (oldest dropped first).
  };

  explicit HealthWatchdog(std::vector<SloRule> rules);
  HealthWatchdog(std::vector<SloRule> rules, const Options& options);

  /// Evaluates every rule against `window`; returns the alerts that fired
  /// on this window (usually empty). Call once per sampled window, in
  /// order. Not thread-safe: drive it from the sampling thread.
  std::vector<AlertEvent> Evaluate(const MetricsWindow& window);

  const std::vector<SloRule>& rules() const { return rules_; }
  /// The rule with the given name, or nullptr. Lets an alert consumer map
  /// an AlertEvent back to the metric (and its labels — e.g. which
  /// {stream="..."} a breached per-stream rule supervises).
  const SloRule* FindRule(const std::string& name) const;
  /// Retained alerts, oldest first (at most Options::max_alerts).
  std::vector<AlertEvent> alerts() const;
  /// Total alerts fired since construction (including dropped ones).
  int64_t total_alerts() const { return total_alerts_; }
  /// Rules currently in the breached-active state.
  std::vector<std::string> active_rules() const;

  /// JSON array of the retained alerts (embedded into the metrics report).
  std::string AlertsJson() const;

 private:
  struct RuleState {
    int streak = 0;      ///< Consecutive breached windows so far.
    bool active = false; ///< Alert currently raised.
  };

  std::vector<SloRule> rules_;
  Options options_;
  std::vector<RuleState> states_;
  std::deque<AlertEvent> alerts_;
  int64_t total_alerts_ = 0;
};

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_WATCHDOG_H_
