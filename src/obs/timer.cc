// vdrift-lint: allow-file(no-raw-chrono): this file IS the sanctioned
// clock — MonotonicSeconds() is the single std::chrono call site the rest
// of the tree is required to route through.
#include "obs/timer.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/trace_log.h"

namespace vdrift::obs {

namespace {

thread_local TraceSpan* g_current_span = nullptr;

}  // namespace

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ScopedTimer::Stop() {
  if (stopped_) return elapsed_;
  stopped_ = true;
  elapsed_ = MonotonicSeconds() - start_;
  if (histogram_ != nullptr) histogram_->Record(elapsed_);
  return elapsed_;
}

TraceSpan::TraceSpan(MetricsRegistry* registry, std::string name)
    : registry_(registry),
      name_(std::move(name)),
      start_(MonotonicSeconds()),
      parent_(g_current_span),
      depth_(g_current_span == nullptr ? 0 : g_current_span->depth_ + 1) {
  g_current_span = this;
  TraceLog& log = TraceLog::Instance();
  if (log.enabled()) log.RecordBegin(name_, start_);
}

TraceSpan::~TraceSpan() { Stop(); }

double TraceSpan::Stop() {
  if (stopped_) return elapsed_;
  stopped_ = true;
  // Spans should unwind LIFO on a thread; scope-bound usage guarantees it.
  // An explicit Stop() on a parent while children are alive must not
  // corrupt the thread-local stack, so unwind defensively *before* taking
  // this span's end reading: close the live children (innermost first —
  // each recursive Stop() sees itself on top and pops normally), so their
  // end timestamps precede this span's on the trace timeline.
  if (g_current_span != this) {
    bool on_stack = false;
    for (TraceSpan* span = g_current_span; span != nullptr;
         span = span->parent_) {
      if (span == this) {
        on_stack = true;
        break;
      }
    }
    if (on_stack) {
      VDRIFT_LOG_WARNING << "TraceSpan \"" << name_
                         << "\" stopped while child spans were live; "
                            "closing them out of order";
      while (g_current_span != this) g_current_span->Stop();
    } else {
      // Not on this thread's stack at all (already unwound past, or
      // stopped from a foreign thread): record the timing but leave the
      // stack alone.
      VDRIFT_LOG_WARNING << "TraceSpan \"" << name_
                         << "\" stopped off its thread's span stack; "
                            "span stack left untouched";
    }
  }
  double end = MonotonicSeconds();
  elapsed_ = end - start_;
  if (registry_ != nullptr) registry_->GetHistogram(name_).Record(elapsed_);
  TraceLog& log = TraceLog::Instance();
  if (log.enabled()) log.RecordEnd(name_, end);
  if (g_current_span == this) g_current_span = parent_;
  return elapsed_;
}

const TraceSpan* TraceSpan::Current() { return g_current_span; }

}  // namespace vdrift::obs
