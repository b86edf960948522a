#ifndef VDRIFT_OBS_TRACE_LOG_H_
#define VDRIFT_OBS_TRACE_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace vdrift::obs {

/// \brief One flight-recorder event, in Chrome trace-event terms.
///
/// Spans emit a kBegin/kEnd pair; kernel ops emit a single kComplete event
/// carrying their duration and FLOP/byte attribution. Timestamps are
/// microseconds since the recorder was enabled (the Chrome "ts" unit).
struct TraceEvent {
  enum class Phase : char { kBegin = 'B', kEnd = 'E', kComplete = 'X' };

  std::string name;
  const char* category = "span";  ///< "span" or "op"; static strings only.
  Phase phase = Phase::kComplete;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< kComplete only.
  int tid = 0;          ///< Recorder-assigned small thread id (1-based).
  int64_t flops = 0;    ///< Arithmetic work of the op (0 for spans).
  int64_t bytes = 0;    ///< Bytes touched by the op (0 for spans).
};

/// \brief Bounded, lock-cheap flight recorder behind TraceSpan and the
/// kernel profiling hooks.
///
/// Each thread appends into its own fixed-capacity ring buffer (one
/// uncontended mutex acquisition per event; the oldest events are
/// overwritten once the ring is full, so a recorder left enabled for hours
/// stays bounded and keeps the most recent history — the flight-recorder
/// property). Drain() empties every ring and returns the events sorted by
/// (tid, ts), which is also the order the Chrome trace JSON is emitted in.
///
/// The recorder is process-wide (Instance()) and disabled by default: the
/// per-event fast path behind a disabled recorder is a single relaxed
/// atomic load. Setting `VDRIFT_TRACE_JSON=<path>` enables it at first use
/// and registers an atexit hook that writes the Chrome trace-event file
/// (loadable in chrome://tracing or https://ui.perfetto.dev) on exit —
/// so any bench or tool can be traced without code changes.
class TraceLog {
 public:
  struct Options {
    /// Events retained per thread before the ring wraps.
    int per_thread_capacity = 1 << 17;
  };

  /// The process-wide recorder. First use reads VDRIFT_TRACE_JSON and,
  /// when it is set, enables the default Options and arms the exit-time
  /// export.
  static TraceLog& Instance();

  /// Starts recording (idempotent; resets the trace epoch and drops any
  /// buffered events). Also turns kernel profiling on so tensor/nn op
  /// events land in the trace.
  void Enable(const Options& options);
  void Enable();
  /// Stops recording; buffered events stay drainable.
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Span lifecycle events. `*_seconds` are MonotonicSeconds() readings.
  void RecordBegin(const std::string& name, double start_seconds);
  void RecordEnd(const std::string& name, double end_seconds);
  /// One completed op with FLOP/byte attribution ("X" event).
  void RecordComplete(const char* category, const std::string& name,
                      double start_seconds, double end_seconds,
                      int64_t flops, int64_t bytes);

  /// Removes and returns all buffered events, sorted by (tid, ts).
  std::vector<TraceEvent> Drain();
  /// Events overwritten by ring wraparound since Enable().
  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drains and serialises to a Chrome trace-event JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms",
  ///  "otherData":{"dropped_events":N}}, N = dropped_events() — nonzero
  /// when the rings wrapped and the trace lost its oldest events.
  std::string DrainChromeJson();
  /// DrainChromeJson() to `path` (trailing newline included).
  Status WriteChromeJson(const std::string& path);

  /// Serialises already-drained events (exposed for tests/tools).
  static std::string ChromeJson(const std::vector<TraceEvent>& events,
                                int64_t dropped_events);

 private:
  struct ThreadRing;

  TraceLog() = default;
  ThreadRing* RingForThisThread();
  void Append(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  /// ts origin (seconds), captured at Enable(). Atomic: the record paths
  /// read it without taking the rings lock.
  std::atomic<double> epoch_seconds_{0.0};
  mutable Mutex rings_mutex_;
  Options options_ VDRIFT_GUARDED_BY(rings_mutex_);
  std::vector<std::unique_ptr<ThreadRing>> rings_
      VDRIFT_GUARDED_BY(rings_mutex_);
  /// Exit-time export target ("" = none).
  std::string export_path_ VDRIFT_GUARDED_BY(rings_mutex_);
};

/// Kernel (tensor/nn op) profiling switch. Off by default: the hooks then
/// cost three relaxed atomic adds (call/FLOP/byte counters) and take no
/// clock readings. On, each op also records its wall time into a
/// per-op histogram and — when the flight recorder is enabled — emits a
/// complete trace event. Initialised from VDRIFT_KERNEL_PROFILE, and
/// turned on by TraceLog::Enable().
void SetKernelProfiling(bool enabled);
bool KernelProfilingEnabled();

/// \brief Per-call-site instrument bundle of one kernel op, registered in
/// Global() under "vdrift.ops.<scope>.<op>.{calls,flops,bytes}" counters
/// and a ".seconds" histogram. Cache it in a function-local static (see
/// VDRIFT_OP_PROBE) so the registry lookup happens once per process.
struct OpCounters {
  std::string trace_name;  ///< "<scope>.<op>", the trace event name.
  Counter* calls = nullptr;
  Counter* flops = nullptr;
  Counter* bytes = nullptr;
  Histogram* seconds = nullptr;
};

OpCounters RegisterOp(const char* scope, const char* op);

/// \brief RAII probe bracketing one kernel-op execution.
///
/// Always attributes FLOPs/bytes/calls; times the op and feeds the flight
/// recorder only while kernel profiling is on (see SetKernelProfiling).
class OpProbe {
 public:
  OpProbe(const OpCounters& counters, int64_t flops, int64_t bytes);
  ~OpProbe();

  OpProbe(const OpProbe&) = delete;
  OpProbe& operator=(const OpProbe&) = delete;

 private:
  const OpCounters& counters_;
  int64_t flops_;
  int64_t bytes_;
  bool timed_;
  double start_;
};

/// Declares the op's instruments once (thread-safe function-local static)
/// and opens a probe for the enclosing scope. One use per function body.
#define VDRIFT_OP_PROBE(scope, op, flops, bytes)                       \
  static const ::vdrift::obs::OpCounters vdrift_op_counters_ =         \
      ::vdrift::obs::RegisterOp(scope, op);                            \
  ::vdrift::obs::OpProbe vdrift_op_probe_(vdrift_op_counters_, (flops), \
                                          (bytes))

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_TRACE_LOG_H_
