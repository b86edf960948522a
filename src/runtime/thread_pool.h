#ifndef VDRIFT_RUNTIME_THREAD_POOL_H_
#define VDRIFT_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace vdrift::runtime {

/// Worker count resolved from `VDRIFT_THREADS`: a positive value is taken
/// verbatim (clamped to 512), unset/empty/0 means "all hardware threads",
/// and a value that is not a non-negative integer aborts (env::Int).
int DefaultThreads();

/// \brief Work-sharing thread pool behind ParallelFor / ParallelReduce.
///
/// The pool owns `threads() - 1` worker threads (the caller of Run() is
/// the remaining executor, so `threads() == 1` means fully serial and no
/// thread is ever spawned). Workers start lazily on the first Run() and
/// are joined by Shutdown() or the destructor, so a binary that never
/// enters a parallel region pays nothing.
///
/// Run() executes a task of `num_chunks` independent chunks: every
/// participating thread repeatedly claims the next unclaimed chunk index
/// (an atomic increment — work sharing, not work stealing) and invokes
/// `fn(chunk)`. Chunks of one task may run on any thread in any order;
/// determinism is the caller's contract (see parallel.h).
///
/// Nesting: a Run() issued from inside a chunk is queued like a top-level
/// one. Its caller drains the task's chunks itself and idle threads claim
/// the rest. A caller waiting for its task's in-flight chunks, and an idle
/// worker, both run chunks of any queued task (newest first); a thread
/// blocks on `queue_cv_` only when no queued chunk is left to claim, and
/// the last chunk of a task signals that condvar. Exceptions thrown by
/// `fn` cancel the task's remaining chunks and the first one is rethrown
/// on the caller once every in-flight chunk has finished.
///
/// Lock rule: never hold a Mutex across ParallelFor / ParallelReduce /
/// Run(). While it waits, the caller may execute another task's chunk; a
/// chunk that takes the same mutex would then deadlock on its own thread.
/// No code in src/ holds a lock across a parallel region.
///
/// Locking: `queue_mutex_` guards the task queue, `lifecycle_mutex_`
/// serializes Start()/Shutdown() (and guards `workers_`), and each Task
/// carries a mutex for its first error. The annotations are enforced by
/// -Werror=thread-safety under clang (see common/sync.h).
class ThreadPool {
 public:
  /// Pool with the given total executor count (min 1, caller included).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized by DefaultThreads() at first use.
  static ThreadPool& Instance();

  /// Total executors (worker threads + the calling thread).
  int threads() const { return threads_; }
  /// True once worker threads are running.
  bool started() const { return started_.load(std::memory_order_acquire); }

  /// Spawns the workers now (idempotent; Run() calls it lazily).
  void Start();
  /// Joins the workers (idempotent). The pool can Start() again later;
  /// Run() on a shut-down pool restarts it.
  void Shutdown();

  /// Runs `fn(chunk)` for every chunk in [0, num_chunks). The caller
  /// participates and the call returns once all chunks completed.
  /// Rethrows the first exception thrown by any chunk.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn);

  /// True on a thread currently executing a task chunk.
  static bool InTask();

 private:
  struct Task {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t num_chunks = 0;
    /// The Run() caller: the thread a last chunk finished elsewhere wakes.
    std::thread::id owner;
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> completed{0};
    std::atomic<bool> cancelled{false};
    Mutex error_mutex;
    /// First failure across all chunks.
    std::exception_ptr error VDRIFT_GUARDED_BY(error_mutex);
  };

  void WorkerLoop();
  /// Claims and executes one chunk of `task`; false when none is left.
  bool RunOneChunk(Task* task);
  /// The newest queued task with an unclaimed chunk (null if none).
  /// Retires exhausted tasks from the queue on the way.
  std::shared_ptr<Task> ClaimableLocked() VDRIFT_REQUIRES(queue_mutex_);

  const int threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<std::shared_ptr<Task>> queue_ VDRIFT_GUARDED_BY(queue_mutex_);
  Mutex lifecycle_mutex_;  ///< Serializes Start()/Shutdown().
  std::vector<std::thread> workers_ VDRIFT_GUARDED_BY(lifecycle_mutex_);
};

}  // namespace vdrift::runtime

#endif  // VDRIFT_RUNTIME_THREAD_POOL_H_
