#include "runtime/parallel.h"

namespace vdrift::runtime {

namespace {

// ScopedThreads override; only the thread that owns the scope mutates it.
// Workers read it when a chunk opens a nested region. Such a read falls
// inside a Run() that published its task under the queue mutex and
// returns only after the chunk completed, so the scope's writes are
// ordered around every read and a plain pointer suffices.
ThreadPool* g_pool_override = nullptr;

}  // namespace

ThreadPool& CurrentPool() {
  return g_pool_override != nullptr ? *g_pool_override
                                    : ThreadPool::Instance();
}

ScopedThreads::ScopedThreads(int threads)
    : previous_(g_pool_override),
      pool_(std::make_unique<ThreadPool>(threads)) {
  g_pool_override = pool_.get();
}

ScopedThreads::~ScopedThreads() { g_pool_override = previous_; }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  int64_t range = end - begin;
  int64_t num_chunks = (range + grain - 1) / grain;
  ThreadPool& pool = CurrentPool();
  if (num_chunks == 1 || pool.threads() == 1) {
    body(begin, end);
    return;
  }
  pool.Run(num_chunks, [&](int64_t chunk) {
    int64_t b = begin + chunk * grain;
    int64_t e = std::min(end, b + grain);
    body(b, e);
  });
}

}  // namespace vdrift::runtime
