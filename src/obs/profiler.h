#ifndef VDRIFT_OBS_PROFILER_H_
#define VDRIFT_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace vdrift::obs {

/// \brief In-process sampling profiler (SIGPROF / ITIMER_PROF driven).
///
/// Answers "where did the CPU time go" without external tooling: a profiling
/// interval timer delivers SIGPROF on whichever thread is burning CPU, and
/// the (async-signal-safe) handler copies that thread's current *profile
/// context* — the stack of live TraceSpan names plus the innermost kernel
/// op-probe, maintained by obs/timer.cc and obs/trace_log.cc while the
/// profiler is armed — into a bounded per-thread sample buffer (the same
/// fixed-capacity per-thread idiom as the trace_log rings; here new samples
/// are dropped and counted once a buffer fills, so already-drained history
/// is never silently rewritten under a concurrent drain).
///
/// Samples aggregate to folded-stack output ("span;child;kernel count" per
/// line), the format flamegraph.pl and speedscope consume directly, and the
/// one tools/check_metrics.sh validates.
///
/// Dispatch cost: when `VDRIFT_PROFILE_FOLDED` is unset and Start() is never
/// called, no timer is armed, no signal handler is installed, no buffer is
/// allocated and no sample is ever taken; the only residue on the hot path
/// is one relaxed atomic flag load per TraceSpan / OpProbe (the same
/// discipline as the flight recorder's enabled() gate).
///
/// Environment (read once at Instance() first use):
///   VDRIFT_PROFILE_FOLDED    path; arms the profiler at startup with the
///                            default Options and writes the folded
///                            aggregate there at process exit
class SamplingProfiler {
 public:
  struct Options {
    /// SIGPROF delivery rate in samples per second of *CPU time* —
    /// ITIMER_PROF counts process CPU, so an idle process takes no samples
    /// and sample counts are comparable across machine load. An off-round
    /// prime avoids lockstep with periodic work.
    int sample_hz = 199;
    /// Samples retained per thread before new ones are dropped (counted in
    /// dropped_samples()). Bounded like the trace_log rings.
    int per_thread_capacity = 1 << 15;
  };

  /// One drained sample: the profile context of the interrupted thread.
  struct Sample {
    std::string stack;  ///< "outer;inner;kernel", root-first; never empty.
    int tid = 0;        ///< Profiler-assigned small thread id (1-based).
    int64_t ts_ns = 0;  ///< CLOCK_MONOTONIC at sample time.
  };

  /// The process-wide profiler. First use reads VDRIFT_PROFILE_FOLDED;
  /// when a folded path is configured the profiler starts immediately and
  /// an atexit hook stops, drains and writes the folded aggregate.
  static SamplingProfiler& Instance();

  /// Installs the SIGPROF handler and arms ITIMER_PROF. Idempotent while
  /// running; restarting after Stop() resets all sample buffers.
  [[nodiscard]] Status Start(const Options& options);
  [[nodiscard]] Status Start() { return Start(Options{}); }
  /// Disarms the timer and stops sampling; buffered samples stay drainable.
  /// The signal handler stays installed (a disarmed handler ignores any
  /// straggler SIGPROF instead of the default action terminating us).
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Returns the samples accumulated since the previous Drain() (calls
  /// Stop() first when still running — draining a live profiler would race
  /// the handler's slot writes).
  std::vector<Sample> Drain();

  /// Samples taken since Start() (including any later dropped).
  int64_t total_samples() const;
  /// Samples dropped because a per-thread buffer filled.
  int64_t dropped_samples() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Samples landing on threads that never entered a span/op while armed
  /// (no profile context registered; nothing to attribute to).
  int64_t unattributed_samples() const {
    return unattributed_.load(std::memory_order_relaxed);
  }

  /// Aggregates samples to folded-stack lines ("stack count\n", sorted by
  /// stack), the flamegraph.pl input format.
  static std::string Folded(const std::vector<Sample>& samples);
  /// Drain() + Folded().
  std::string DrainFolded();
  /// DrainFolded() to `path` (trailing newline per line; empty aggregate
  /// still writes an empty file so "armed but idle" is distinguishable
  /// from "never armed").
  [[nodiscard]] Status WriteFolded(const std::string& path);

 private:
  struct ThreadState;
  friend struct ProfilerSignalAccess;

  SamplingProfiler() = default;
  ThreadState* RegisterThisThread();

  std::atomic<bool> running_{false};
  std::atomic<bool> handler_installed_{false};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> unattributed_{0};
  mutable Mutex mutex_;
  Options options_ VDRIFT_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<ThreadState>> threads_
      VDRIFT_GUARDED_BY(mutex_);
  std::string export_path_ VDRIFT_GUARDED_BY(mutex_);
};

/// True while the profiler is armed — the gate TraceSpan / OpProbe check
/// (one relaxed load) before maintaining the profile context.
bool ProfilerArmed();

/// Pushes a frame label onto this thread's profile context. `label` must
/// stay valid until the matching pop (span names and op trace_names are
/// stable for the frame's lifetime). Returns true when the frame was
/// pushed — the caller must call ProfilePopFrame() exactly when it got
/// true, so arm/disarm races stay balanced.
bool ProfilePushFrame(const char* label);
void ProfilePopFrame();

}  // namespace vdrift::obs

#endif  // VDRIFT_OBS_PROFILER_H_
