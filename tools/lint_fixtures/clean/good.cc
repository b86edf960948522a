// Negative control: idiomatic vdrift code that must produce ZERO findings.
#include "common/logging.h"
#include "common/sync.h"
#include "obs/timer.h"

namespace vdrift::clean {

class GoodQueue {
 public:
  void Touch() {
    MutexLock lock(&mutex_);
    ++touches_;
  }

  // Mentions of std::mutex, std::chrono, getenv, VDRIFT_CHECK inside
  // comments must not fire (patterns run on comment-stripped code).
  double Elapsed() const { return obs::MonotonicSeconds() - start_; }

 private:
  mutable Mutex mutex_;
  int touches_ VDRIFT_GUARDED_BY(mutex_) = 0;
  double start_ = 0.0;
};

/* Block comment spanning lines also masks std::rand() and
   std::lock_guard<std::mutex> mentions from the checks. */
int Runtime(int lifetime) { return lifetime + 1; }

// String and character literals are masked too: the time() call, the
// chrono and getenv mentions and the // inside the banner must not fire.
const char* Banner() { return "detection time (s), std::chrono // getenv()"; }
char Quote() { return '"'; }
int Million() { return 1'000'000; }  // a digit separator is not a quote

}  // namespace vdrift::clean
