// The SIGPROF handler below runs in async-signal context: it may only
// touch lock-free memory (this thread's profile context and sample
// buffer) and async-signal-safe syscalls. obs::MonotonicSeconds() is a
// std::chrono call with no signal-safety guarantee, so this file reads
// the raw monotonic clock directly where the handler needs a timestamp.
#include "obs/profiler.h"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/env.h"
#include "common/logging.h"

namespace vdrift::obs {

namespace {

/// Armed flag behind ProfilerArmed(): the only profiler cost TraceSpan /
/// OpProbe pay when the profiler is off is this one relaxed load.
std::atomic<bool> g_armed{false};

/// Set (once, before any handler can be installed) by Instance(); the
/// handler reads members through it.
SamplingProfiler* g_instance = nullptr;

}  // namespace

bool ProfilerArmed() { return g_armed.load(std::memory_order_relaxed); }

/// \brief Per-thread profiler state.
///
/// The frame stack is written by the owning thread (ProfilePushFrame /
/// ProfilePopFrame, normal path) and read by the SIGPROF handler
/// *interrupting that same thread* — signal fences order the label write
/// before the depth publish, so at any interrupt point frames[0..depth)
/// are valid labels. The sample slots have a single writer (the handler;
/// SIGPROF is masked during its own handling) and are read cross-thread
/// by Drain() via the release/acquire `count` publish.
struct SamplingProfiler::ThreadState {
  static constexpr int kMaxDepth = 64;
  static constexpr int kMaxStackChars = 230;

  // Deliberately no default member initializers: slots are allocated
  // default-initialized (untouched pages) and the handler fully writes a
  // slot before publishing it through `count`, so arming the profiler
  // costs one virtual allocation instead of faulting in the whole buffer
  // (~8MB of soft page faults measurably slowed short bench runs).
  struct Slot {
    int64_t ts_ns;
    uint16_t len;
    char stack[kMaxStackChars];
  };

  ThreadState(int tid_in, int capacity_in)
      : tid(tid_in),
        capacity(capacity_in),
        slots(new Slot[static_cast<size_t>(capacity_in)]) {
    std::memset(frames, 0, sizeof(frames));
  }

  const int tid;
  const char* frames[kMaxDepth];
  std::atomic<int> depth{0};
  int capacity;
  std::unique_ptr<Slot[]> slots;
  std::atomic<uint32_t> count{0};
  /// Samples already returned by Drain(); guarded by the profiler mutex_.
  uint32_t drained_upto = 0;
};

/// Friend of SamplingProfiler so the file-scope signal path can reach the
/// private ThreadState without widening the public API.
struct ProfilerSignalAccess {
  static thread_local SamplingProfiler::ThreadState* tls_state;

  static void Handler(int /*signum*/, siginfo_t* /*info*/, void* /*ctx*/) {
    SamplingProfiler* profiler = g_instance;
    if (profiler == nullptr ||
        !profiler->running_.load(std::memory_order_relaxed)) {
      return;  // Straggler signal after Stop(): ignore.
    }
    const int saved_errno = errno;
    SamplingProfiler::ThreadState* state = tls_state;
    if (state == nullptr) {
      // This thread never entered a span/op while armed: no context to
      // attribute to (and registering here would allocate, which a signal
      // handler must not).
      profiler->unattributed_.fetch_add(1, std::memory_order_relaxed);
      errno = saved_errno;
      return;
    }
    const uint32_t index = state->count.load(std::memory_order_relaxed);
    if (index >= static_cast<uint32_t>(state->capacity)) {
      profiler->dropped_.fetch_add(1, std::memory_order_relaxed);
      errno = saved_errno;
      return;
    }
    SamplingProfiler::ThreadState::Slot& slot = state->slots[index];
    struct timespec now;
    // vdrift-lint: allow(no-raw-chrono): async-signal context —
    // clock_gettime(CLOCK_MONOTONIC) is signal-safe, obs::MonotonicSeconds
    // (std::chrono) is not guaranteed to be.
    clock_gettime(CLOCK_MONOTONIC, &now);
    slot.ts_ns = static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
    const int depth = state->depth.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_acquire);
    int len = 0;
    if (depth == 0) {
      static const char kNoSpan[] = "(no span)";
      for (const char* c = kNoSpan; *c != '\0'; ++c) slot.stack[len++] = *c;
    }
    for (int i = 0; i < depth; ++i) {
      const char* label = state->frames[i];
      if (label == nullptr) break;
      if (i > 0) {
        if (len >= SamplingProfiler::ThreadState::kMaxStackChars) break;
        slot.stack[len++] = ';';
      }
      while (*label != '\0' &&
             len < SamplingProfiler::ThreadState::kMaxStackChars) {
        slot.stack[len++] = *label++;
      }
    }
    slot.len = static_cast<uint16_t>(len);
    // Publish the slot before the count so Drain() (another thread) never
    // reads a half-written sample.
    state->count.store(index + 1, std::memory_order_release);
    errno = saved_errno;
  }

  static bool Push(const char* label) {
    SamplingProfiler::ThreadState* state = tls_state;
    if (state == nullptr) {
      state = SamplingProfiler::Instance().RegisterThisThread();
    }
    const int depth = state->depth.load(std::memory_order_relaxed);
    if (depth >= SamplingProfiler::ThreadState::kMaxDepth) return false;
    state->frames[depth] = label;
    // Order the label write before the depth publish against the SIGPROF
    // handler interrupting this same thread.
    std::atomic_signal_fence(std::memory_order_release);
    state->depth.store(depth + 1, std::memory_order_relaxed);
    return true;
  }

  static void Pop() {
    SamplingProfiler::ThreadState* state = tls_state;
    if (state == nullptr) return;
    const int depth = state->depth.load(std::memory_order_relaxed);
    if (depth > 0) state->depth.store(depth - 1, std::memory_order_relaxed);
  }
};

thread_local SamplingProfiler::ThreadState* ProfilerSignalAccess::tls_state =
    nullptr;

SamplingProfiler& SamplingProfiler::Instance() {
  static SamplingProfiler* profiler = [] {
    auto* instance = new SamplingProfiler();
    g_instance = instance;
    std::string path = env::String("VDRIFT_PROFILE_FOLDED");
    if (!path.empty()) {
      {
        MutexLock lock(&instance->mutex_);
        instance->export_path_ = path;
      }
      Status status = instance->Start();
      if (!status.ok()) {
        VDRIFT_LOG_WARNING << "profiler not started: " << status.ToString();
      }
      std::atexit([] {
        SamplingProfiler& prof = SamplingProfiler::Instance();
        std::string export_path;
        {
          MutexLock lock(&prof.mutex_);
          export_path = prof.export_path_;
        }
        if (export_path.empty()) return;
        Status status = prof.WriteFolded(export_path);
        if (status.ok()) {
          std::fprintf(stderr, "profile written to %s\n",
                       export_path.c_str());
        } else {
          std::fprintf(stderr, "profile not written: %s\n",
                       status.ToString().c_str());
        }
      });
    }
    return instance;
  }();
  return *profiler;
}

namespace {

/// Touches Instance() at load time so VDRIFT_PROFILE_FOLDED arms the
/// profiler in any binary linking vdrift_obs, mirroring how
/// VDRIFT_TRACE_JSON arms the flight recorder without code changes.
const bool g_profiler_env_probe = [] {
  SamplingProfiler::Instance();
  return true;
}();

}  // namespace

SamplingProfiler::ThreadState* SamplingProfiler::RegisterThisThread() {
  ThreadState* state = ProfilerSignalAccess::tls_state;
  if (state != nullptr) return state;
  MutexLock lock(&mutex_);
  threads_.push_back(std::make_unique<ThreadState>(
      static_cast<int>(threads_.size()) + 1, options_.per_thread_capacity));
  state = threads_.back().get();
  ProfilerSignalAccess::tls_state = state;
  return state;
}

Status SamplingProfiler::Start(const Options& options) {
  if (options.sample_hz < 1 || options.sample_hz > 100000) {
    return Status::InvalidArgument("profiler sample_hz out of range: " +
                                   std::to_string(options.sample_hz));
  }
  if (options.per_thread_capacity < 1) {
    return Status::InvalidArgument("profiler per_thread_capacity must be >= 1");
  }
  if (running()) return Status::OK();
  {
    MutexLock lock(&mutex_);
    options_ = options;
    // No handler is live here (timer disarmed, running_ false), so the
    // buffers can be reset/resized in place; threads keep their cached
    // ThreadState pointers, exactly like the trace_log rings on re-Enable.
    for (const std::unique_ptr<ThreadState>& thread : threads_) {
      if (thread->capacity != options_.per_thread_capacity) {
        thread->slots.reset(new ThreadState::Slot[static_cast<size_t>(
            options_.per_thread_capacity)]);
        thread->capacity = options_.per_thread_capacity;
      }
      thread->count.store(0, std::memory_order_relaxed);
      thread->drained_upto = 0;
    }
  }
  dropped_.store(0, std::memory_order_relaxed);
  unattributed_.store(0, std::memory_order_relaxed);

  if (!handler_installed_.load(std::memory_order_relaxed)) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &ProfilerSignalAccess::Handler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal("sigaction(SIGPROF) failed: " +
                              std::string(std::strerror(errno)));
    }
    handler_installed_.store(true, std::memory_order_relaxed);
  }

  // Track the starting thread even before it opens a span so its samples
  // attribute to a tid ("(no span)") instead of the unattributed bucket.
  RegisterThisThread();

  // Arm the context tracking before the timer so the first samples already
  // see span frames.
  running_.store(true, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);

  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  const long interval_usec = std::max(1L, 1000000L / options.sample_hz);
  timer.it_interval.tv_sec = interval_usec / 1000000;
  timer.it_interval.tv_usec = interval_usec % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    running_.store(false, std::memory_order_relaxed);
    g_armed.store(false, std::memory_order_relaxed);
    return Status::Internal("setitimer(ITIMER_PROF) failed: " +
                            std::string(std::strerror(errno)));
  }
  return Status::OK();
}

void SamplingProfiler::Stop() {
  if (!running()) return;
  struct itimerval zero;
  std::memset(&zero, 0, sizeof(zero));
  setitimer(ITIMER_PROF, &zero, nullptr);
  // The handler stays installed: a SIGPROF already in flight finds it
  // disarmed (running_ false) and is ignored, instead of hitting the
  // default action, which would terminate the process.
  g_armed.store(false, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
}

std::vector<SamplingProfiler::Sample> SamplingProfiler::Drain() {
  Stop();
  std::vector<Sample> out;
  MutexLock lock(&mutex_);
  for (const std::unique_ptr<ThreadState>& thread : threads_) {
    const uint32_t count = std::min<uint32_t>(
        thread->count.load(std::memory_order_acquire),
        static_cast<uint32_t>(thread->capacity));
    for (uint32_t i = thread->drained_upto; i < count; ++i) {
      const ThreadState::Slot& slot = thread->slots[i];
      Sample sample;
      sample.stack.assign(slot.stack, slot.len);
      sample.tid = thread->tid;
      sample.ts_ns = slot.ts_ns;
      out.push_back(std::move(sample));
    }
    thread->drained_upto = count;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

int64_t SamplingProfiler::total_samples() const {
  int64_t total = dropped_.load(std::memory_order_relaxed);
  MutexLock lock(&mutex_);
  for (const std::unique_ptr<ThreadState>& thread : threads_) {
    total += thread->count.load(std::memory_order_relaxed);
  }
  return total;
}

std::string SamplingProfiler::Folded(const std::vector<Sample>& samples) {
  std::map<std::string, int64_t> counts;
  for (const Sample& sample : samples) counts[sample.stack] += 1;
  std::string out;
  for (const auto& [stack, count] : counts) {
    out += stack + " " + std::to_string(count) + "\n";
  }
  return out;
}

std::string SamplingProfiler::DrainFolded() { return Folded(Drain()); }

Status SamplingProfiler::WriteFolded(const std::string& path) {
  const int64_t dropped = dropped_samples();
  const int64_t unattributed = unattributed_samples();
  std::string folded = DrainFolded();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open folded profile for writing: " + path);
  }
  out << folded;
  out.flush();
  if (!out) return Status::IoError("failed writing folded profile: " + path);
  if (dropped > 0) {
    VDRIFT_LOG_WARNING << "profiler dropped " << dropped
                       << " samples (per-thread buffer filled); raise "
                          "Options::per_thread_capacity for longer profiles";
  }
  if (unattributed > 0) {
    VDRIFT_LOG_WARNING << "profiler took " << unattributed
                       << " samples on threads with no profile context";
  }
  return Status::OK();
}

bool ProfilePushFrame(const char* label) {
  if (!ProfilerArmed()) return false;
  return ProfilerSignalAccess::Push(label);
}

void ProfilePopFrame() { ProfilerSignalAccess::Pop(); }

}  // namespace vdrift::obs
