#ifndef VDRIFT_RUNTIME_PARALLEL_H_
#define VDRIFT_RUNTIME_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/thread_pool.h"

namespace vdrift::runtime {

/// \brief Deterministic data-parallel loops over the process-wide pool.
///
/// Determinism contract: every construct here decomposes [begin, end)
/// into the SAME fixed chunk sequence regardless of how many threads
/// execute it — chunk k is [begin + k*grain, min(end, begin + (k+1)*grain)).
/// ParallelFor bodies write disjoint outputs per index, so any execution
/// order gives the serial answer; ParallelReduce computes one partial per
/// chunk and combines them in ascending chunk order on the calling
/// thread. Results are therefore bit-identical for every VDRIFT_THREADS
/// value, including 1.

/// The pool parallel constructs execute on: a ScopedThreads override if
/// one is live, else ThreadPool::Instance().
ThreadPool& CurrentPool();

/// \brief Temporarily routes ParallelFor/ParallelReduce onto a private
/// pool of the given size (tests and benchmarks sweep thread counts with
/// this without re-exec'ing under a different VDRIFT_THREADS).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads);
  ~ScopedThreads();

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  ThreadPool* previous_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Chunk size that puts at least `min_cost` units of work (e.g. FLOPs)
/// into each chunk, given `cost_per_item` units per loop index. Depends
/// only on the workload — never on the thread count — so reductions
/// grained by it stay deterministic. The default floor keeps each chunk
/// at tens of microseconds of arithmetic: dispatching the pool for less
/// than that costs more in wakeups and chunk claiming than it saves
/// (the microsecond-scale per-frame encode GEMMs in particular must stay
/// inline or detection latency regresses under oversubscription). The
/// floor assumes scalar-rate loops; a vectorized kernel passes a larger
/// `min_cost` (the GEMM uses 1 << 20 FLOPs).
inline int64_t GrainForCost(int64_t cost_per_item,
                            int64_t min_cost = 1 << 17) {
  return std::max<int64_t>(1,
                           min_cost / std::max<int64_t>(1, cost_per_item));
}

/// Runs `body(chunk_begin, chunk_end)` over [begin, end) in chunks of
/// `grain`. Chunks run concurrently (the calling thread participates);
/// a single-chunk range or a serial pool runs inline. A call nested in
/// another region's chunk is queued like a top-level one, so idle threads
/// help with it (see ThreadPool). The first exception thrown by a body is
/// rethrown on the caller.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

/// Deterministic-order reduction: `map(chunk_begin, chunk_end)` produces
/// one partial per chunk, then the partials fold left-to-right in chunk
/// index order via `combine(acc, partial)` on the calling thread. The
/// chunking — and therefore the result, bit for bit — is independent of
/// the executing thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 MapFn map, CombineFn combine) {
  if (end <= begin) return identity;
  if (grain < 1) grain = 1;
  int64_t range = end - begin;
  int64_t num_chunks = (range + grain - 1) / grain;
  std::vector<T> partials(static_cast<size_t>(num_chunks), identity);
  auto run_chunk = [&](int64_t chunk) {
    int64_t b = begin + chunk * grain;
    int64_t e = std::min(end, b + grain);
    partials[static_cast<size_t>(chunk)] = map(b, e);
  };
  ThreadPool& pool = CurrentPool();
  if (num_chunks == 1 || pool.threads() == 1) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
  } else {
    pool.Run(num_chunks, run_chunk);
  }
  T acc = identity;
  for (const T& partial : partials) acc = combine(acc, partial);
  return acc;
}

}  // namespace vdrift::runtime

#endif  // VDRIFT_RUNTIME_PARALLEL_H_
