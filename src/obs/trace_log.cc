#include "obs/trace_log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "obs/json.h"
#include "obs/timer.h"

namespace vdrift::obs {

namespace {

// -1 = not yet read from VDRIFT_KERNEL_PROFILE, else 0/1.
std::atomic<int> g_kernel_profiling{-1};

}  // namespace

void SetKernelProfiling(bool enabled) {
  g_kernel_profiling.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool KernelProfilingEnabled() {
  int state = g_kernel_profiling.load(std::memory_order_relaxed);
  if (state < 0) {
    state = env::Flag("VDRIFT_KERNEL_PROFILE") ? 1 : 0;
    g_kernel_profiling.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

struct TraceLog::ThreadRing {
  explicit ThreadRing(int tid_in, int capacity) : tid(tid_in) {
    slots.resize(static_cast<size_t>(capacity));
  }

  Mutex mutex;
  std::vector<TraceEvent> slots VDRIFT_GUARDED_BY(mutex);
  /// Slot the next event lands in.
  size_t next VDRIFT_GUARDED_BY(mutex) = 0;
  /// Events ever appended.
  uint64_t total VDRIFT_GUARDED_BY(mutex) = 0;
  const int tid;
};

TraceLog& TraceLog::Instance() {
  static TraceLog* log = [] {
    auto* instance = new TraceLog();
    std::string path = env::String("VDRIFT_TRACE_JSON");
    if (!path.empty()) {
      instance->Enable();
      {
        MutexLock lock(&instance->rings_mutex_);
        instance->export_path_ = path;
      }
      std::atexit([] {
        TraceLog& log = TraceLog::Instance();
        std::string export_path;
        {
          MutexLock lock(&log.rings_mutex_);
          export_path = log.export_path_;
        }
        if (export_path.empty()) return;
        Status status = log.WriteChromeJson(export_path);
        if (status.ok()) {
          std::fprintf(stderr, "trace written to %s\n", export_path.c_str());
        } else {
          std::fprintf(stderr, "trace not written: %s\n",
                       status.ToString().c_str());
        }
      });
    }
    return instance;
  }();
  return *log;
}

void TraceLog::Enable() { Enable(Options{}); }

void TraceLog::Enable(const Options& options) {
  {
    MutexLock rings_lock(&rings_mutex_);
    VDRIFT_CHECK(options.per_thread_capacity >= 1);
    options_ = options;
    epoch_seconds_.store(MonotonicSeconds(), std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    // Rings are never freed (threads cache raw pointers to them), so a
    // re-Enable resets them in place: drop buffered events and adopt the
    // new capacity.
    for (const std::unique_ptr<ThreadRing>& ring : rings_) {
      MutexLock lock(&ring->mutex);
      ring->slots.clear();
      ring->slots.resize(
          static_cast<size_t>(options_.per_thread_capacity));
      ring->next = 0;
      ring->total = 0;
    }
  }
  SetKernelProfiling(true);
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceLog::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

TraceLog::ThreadRing* TraceLog::RingForThisThread() {
  // Rings live as long as the recorder (which is process-wide and never
  // destroyed), so each thread caches its ring pointer after the one
  // registry-locked lookup.
  thread_local ThreadRing* cached_ring = nullptr;
  if (cached_ring != nullptr) return cached_ring;
  MutexLock lock(&rings_mutex_);
  rings_.push_back(std::make_unique<ThreadRing>(
      static_cast<int>(rings_.size()) + 1, options_.per_thread_capacity));
  cached_ring = rings_.back().get();
  return cached_ring;
}

void TraceLog::Append(TraceEvent event) {
  // Racing a concurrent Disable() may admit a stray event; the guarantee
  // that matters is that a disabled recorder records nothing new.
  if (!enabled()) return;
  ThreadRing* ring = RingForThisThread();
  MutexLock lock(&ring->mutex);
  event.tid = ring->tid;
  if (ring->total >= ring->slots.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ring->slots[ring->next] = std::move(event);
  ring->next = (ring->next + 1) % ring->slots.size();
  ring->total += 1;
}

void TraceLog::RecordBegin(const std::string& name, double start_seconds) {
  TraceEvent event;
  event.name = name;
  event.category = "span";
  event.phase = TraceEvent::Phase::kBegin;
  event.ts_us =
      (start_seconds - epoch_seconds_.load(std::memory_order_relaxed)) * 1e6;
  Append(std::move(event));
}

void TraceLog::RecordEnd(const std::string& name, double end_seconds) {
  TraceEvent event;
  event.name = name;
  event.category = "span";
  event.phase = TraceEvent::Phase::kEnd;
  event.ts_us =
      (end_seconds - epoch_seconds_.load(std::memory_order_relaxed)) * 1e6;
  Append(std::move(event));
}

void TraceLog::RecordComplete(const char* category, const std::string& name,
                              double start_seconds, double end_seconds,
                              int64_t flops, int64_t bytes) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = TraceEvent::Phase::kComplete;
  event.ts_us =
      (start_seconds - epoch_seconds_.load(std::memory_order_relaxed)) * 1e6;
  event.dur_us = (end_seconds - start_seconds) * 1e6;
  event.flops = flops;
  event.bytes = bytes;
  Append(std::move(event));
}

std::vector<TraceEvent> TraceLog::Drain() {
  std::vector<TraceEvent> out;
  MutexLock rings_lock(&rings_mutex_);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    MutexLock lock(&ring->mutex);
    size_t count = std::min<uint64_t>(ring->total, ring->slots.size());
    // Oldest-first: once wrapped, the oldest slot is `next`.
    size_t start = ring->total > ring->slots.size() ? ring->next : 0;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(
          std::move(ring->slots[(start + i) % ring->slots.size()]));
    }
    ring->next = 0;
    ring->total = 0;
  }
  // (tid, ts): per-thread chronological order, the order the Chrome
  // trace is written in.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::string TraceLog::ChromeJson(const std::vector<TraceEvent>& events,
                                 int64_t dropped_events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json::Escape(event.name) + "\"";
    out += ",\"cat\":\"" + json::Escape(event.category) + "\"";
    out += ",\"ph\":\"";
    out += static_cast<char>(event.phase);
    out += "\"";
    out += ",\"ts\":" + json::FormatDouble(event.ts_us);
    if (event.phase == TraceEvent::Phase::kComplete) {
      out += ",\"dur\":" + json::FormatDouble(event.dur_us);
    }
    out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    if (event.flops != 0 || event.bytes != 0) {
      out += ",\"args\":{\"bytes\":" + std::to_string(event.bytes) +
             ",\"flops\":" + std::to_string(event.flops) + "}";
    } else {
      out += ",\"args\":{}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" +
         std::to_string(dropped_events) + "}}";
  return out;
}

std::string TraceLog::DrainChromeJson() {
  const int64_t dropped = dropped_events();
  return ChromeJson(Drain(), dropped);
}

Status TraceLog::WriteChromeJson(const std::string& path) {
  int64_t dropped = dropped_events();
  std::string doc = DrainChromeJson();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open trace for writing: " + path);
  }
  out << doc << "\n";
  out.flush();
  if (!out) return Status::IoError("failed writing trace: " + path);
  if (dropped > 0) {
    VDRIFT_LOG_WARNING << "flight recorder dropped " << dropped
                       << " events (ring wrapped); raise "
                          "Options::per_thread_capacity for a longer window";
  }
  return Status::OK();
}

OpCounters RegisterOp(const char* scope, const char* op) {
  std::string base = std::string("vdrift.ops.") + scope + "." + op;
  OpCounters counters;
  counters.trace_name = std::string(scope) + "." + op;
  MetricsRegistry& registry = Global();
  counters.calls = &registry.GetCounter(base + ".calls");
  counters.flops = &registry.GetCounter(base + ".flops");
  counters.bytes = &registry.GetCounter(base + ".bytes");
  counters.seconds = &registry.GetHistogram(base + ".seconds");
  return counters;
}

OpProbe::OpProbe(const OpCounters& counters, int64_t flops, int64_t bytes)
    : counters_(counters),
      flops_(flops),
      bytes_(bytes),
      timed_(KernelProfilingEnabled()),
      start_(timed_ ? MonotonicSeconds() : 0.0) {
  counters_.calls->Increment();
  counters_.flops->Increment(flops);
  counters_.bytes->Increment(bytes);
}

OpProbe::~OpProbe() {
  if (!timed_) return;
  double end = MonotonicSeconds();
  counters_.seconds->Record(end - start_);
  TraceLog& log = TraceLog::Instance();
  if (log.enabled()) {
    log.RecordComplete("op", counters_.trace_name, start_, end, flops_,
                       bytes_);
  }
}

}  // namespace vdrift::obs
