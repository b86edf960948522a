#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdint>

#include "common/env.h"
#include "obs/timer.h"
#include "obs/trace_log.h"

namespace vdrift::runtime {

namespace {

constexpr int kMaxThreads = 512;

// Depth of task execution on this thread; > 0 inside a chunk.
thread_local int t_task_depth = 0;

}  // namespace

int DefaultThreads() {
  // 0 means "all hardware threads".
  int64_t threads = env::Int("VDRIFT_THREADS", 0, 0, INT64_MAX);
  if (threads > 0) {
    return static_cast<int>(std::min<int64_t>(threads, kMaxThreads));
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0
             ? 1
             : static_cast<int>(
                   std::min<unsigned>(hardware, kMaxThreads));
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {}

ThreadPool::~ThreadPool() { Shutdown(); }

ThreadPool& ThreadPool::Instance() {
  // Meyers singleton: the destructor joins the workers at exit, which
  // keeps TSan and the flight recorder's atexit export happy.
  static ThreadPool instance(DefaultThreads());
  return instance;
}

bool ThreadPool::InTask() { return t_task_depth > 0; }

void ThreadPool::Start() {
  if (threads_ == 1 || started()) return;
  MutexLock lifecycle(&lifecycle_mutex_);
  if (started()) return;
  stop_.store(false, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_.store(true, std::memory_order_release);
}

void ThreadPool::Shutdown() {
  MutexLock lifecycle(&lifecycle_mutex_);
  if (!started()) return;
  {
    MutexLock lock(&queue_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  started_.store(false, std::memory_order_release);
}

int64_t ThreadPool::DrainTask(Task* task, bool is_worker) {
  int64_t done_here = 0;
  ++t_task_depth;
  // Workers surface as their own rows in the Perfetto timeline: one span
  // per task participation, emitted only while the recorder is armed so
  // the steady-state hot path stays span-free.
  std::unique_ptr<obs::TraceSpan> span;
  while (true) {
    int64_t chunk =
        task->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= task->num_chunks) break;
    if (is_worker && span == nullptr &&
        obs::TraceLog::Instance().enabled()) {
      span = std::make_unique<obs::TraceSpan>(
          &obs::Global(), "vdrift.runtime.worker_chunks");
    }
    if (!task->cancelled.load(std::memory_order_acquire)) {
      try {
        (*task->fn)(chunk);
      } catch (...) {
        {
          MutexLock lock(&task->mutex);
          if (task->error == nullptr) {
            task->error = std::current_exception();
          }
        }
        task->cancelled.store(true, std::memory_order_release);
      }
    }
    ++done_here;
    if (task->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        task->num_chunks) {
      MutexLock lock(&task->mutex);
      task->done_cv.NotifyAll();
    }
  }
  --t_task_depth;
  return done_here;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Task> task;
    {
      MutexLock lock(&queue_mutex_);
      while (!stop_.load(std::memory_order_acquire) && queue_.empty()) {
        queue_cv_.Wait(&queue_mutex_);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      task = queue_.front();
    }
    DrainTask(task.get(), /*is_worker=*/true);
    {
      // The task is exhausted (every chunk claimed); retire it from the
      // queue if nobody else already has.
      MutexLock lock(&queue_mutex_);
      if (!queue_.empty() && queue_.front() == task) queue_.pop_front();
    }
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (threads_ == 1 || InTask()) {
    // Serial pool or nested region: execute inline, same chunk order.
    ++t_task_depth;
    try {
      for (int64_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk);
    } catch (...) {
      --t_task_depth;
      throw;
    }
    --t_task_depth;
    return;
  }
  Start();
  auto task = std::make_shared<Task>();
  task->fn = &fn;
  task->num_chunks = num_chunks;
  {
    MutexLock lock(&queue_mutex_);
    queue_.push_back(task);
  }
  queue_cv_.NotifyAll();
  DrainTask(task.get(), /*is_worker=*/false);
  {
    MutexLock lock(&task->mutex);
    while (task->completed.load(std::memory_order_acquire) !=
           task->num_chunks) {
      task->done_cv.Wait(&task->mutex);
    }
  }
  {
    // Drop the queue's reference if the workers have not already.
    MutexLock lock(&queue_mutex_);
    auto it = std::find(queue_.begin(), queue_.end(), task);
    if (it != queue_.end()) queue_.erase(it);
  }
  // Reading `error` needs the task mutex even though every chunk is done —
  // the annotation has no "quiescent" exception, and the lock also pairs
  // with the writer's release for a clean happens-before.
  std::exception_ptr error;
  {
    MutexLock lock(&task->mutex);
    error = task->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace vdrift::runtime
