#ifndef VDRIFT_OBS_TIMER_H_
#define VDRIFT_OBS_TIMER_H_

#include <string>

#include "obs/metrics.h"

namespace vdrift::obs {

/// Monotonic wall-clock reading in seconds; the single time source for all
/// obs timing (no component does its own std::chrono arithmetic).
double MonotonicSeconds();

/// \brief RAII latency probe: records elapsed wall time into a Histogram
/// when it goes out of scope (or at an explicit Stop()).
///
///   { ScopedTimer timer(&registry.GetHistogram("vdrift.di.observe_seconds"));
///     ... hot work ... }
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(MonotonicSeconds()) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at scope exit; idempotent. Returns the
  /// elapsed seconds of the first stop.
  double Stop();

 private:
  Histogram* histogram_;
  double start_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
};

/// \brief Named, nestable RAII span.
///
/// Like ScopedTimer (elapsed time lands in `registry`'s histogram named
/// `name`), but spans form a per-thread stack so nested instrumentation
/// knows its context: Current() is the innermost live span and depth()
/// tells how deep this span sits. The pipeline wraps its run / detect /
/// select / query sections in spans and derives PipelineMetrics' timing
/// fields from the recorded histograms.
///
/// When the flight recorder (obs/trace_log.h) is enabled, every span also
/// emits begin/end trace events, so the nested structure is replayable on
/// a timeline (chrome://tracing / Perfetto).
///
/// Spans are expected to unwind LIFO per thread; an explicit Stop() on a
/// parent while children are live is handled defensively (the children
/// are closed innermost-first and a warning is logged) instead of
/// corrupting the thread-local stack.
class TraceSpan {
 public:
  TraceSpan(MetricsRegistry* registry, std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span now (records + pops the stack); idempotent.
  double Stop();

  const std::string& name() const { return name_; }
  /// 0 for a root span, parent's depth + 1 otherwise.
  int depth() const { return depth_; }
  const TraceSpan* parent() const { return parent_; }

  /// Innermost span still open on this thread (null outside any span).
  static const TraceSpan* Current();

 private:
  MetricsRegistry* registry_;
  std::string name_;
  double start_;
  double elapsed_ = 0.0;
  TraceSpan* parent_;
  int depth_;
  bool stopped_ = false;
};

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_TIMER_H_
