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

bool ThreadPool::RunOneChunk(Task* task) {
  int64_t chunk = task->next_chunk.fetch_add(1, std::memory_order_relaxed);
  if (chunk >= task->num_chunks) return false;
  if (!task->cancelled.load(std::memory_order_acquire)) {
    ++t_task_depth;
    try {
      (*task->fn)(chunk);
    } catch (...) {
      {
        MutexLock lock(&task->error_mutex);
        if (task->error == nullptr) task->error = std::current_exception();
      }
      task->cancelled.store(true, std::memory_order_release);
    }
    --t_task_depth;
  }
  if (task->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          task->num_chunks &&
      task->owner != std::this_thread::get_id()) {
    // The owner may be blocked on the queue condvar. It checked
    // `completed` under `queue_mutex_`, so taking the mutex here orders
    // this notify after its Wait() began.
    { MutexLock lock(&queue_mutex_); }
    queue_cv_.NotifyAll();
  }
  return true;
}

std::shared_ptr<ThreadPool::Task> ThreadPool::ClaimableLocked() {
  // Newest first: a nested region is newer than the chunk that opened it,
  // so waiting threads finish inner work before taking outer chunks.
  for (auto it = queue_.end(); it != queue_.begin();) {
    --it;
    if ((*it)->next_chunk.load(std::memory_order_relaxed) <
        (*it)->num_chunks) {
      return *it;
    }
    it = queue_.erase(it);
  }
  return nullptr;
}

void ThreadPool::WorkerLoop() {
  // Workers surface as their own rows in the Perfetto timeline: one span
  // per busy stretch (wake-up to the next block), emitted only while the
  // recorder is armed so the steady-state hot path stays span-free.
  std::unique_ptr<obs::TraceSpan> busy;
  while (true) {
    std::shared_ptr<Task> task;
    {
      MutexLock lock(&queue_mutex_);
      // Block only once the busy span is closed, which happens outside
      // the lock.
      while (!stop_.load(std::memory_order_acquire) &&
             (task = ClaimableLocked()) == nullptr && busy == nullptr) {
        queue_cv_.Wait(&queue_mutex_);
      }
      if (stop_.load(std::memory_order_acquire)) return;
    }
    if (task == nullptr) {
      busy.reset();
      continue;
    }
    if (busy == nullptr && obs::TraceLog::Instance().enabled()) {
      busy = std::make_unique<obs::TraceSpan>(
          &obs::Global(), "vdrift.runtime.worker_chunks");
    }
    while (RunOneChunk(task.get())) {
    }
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (threads_ == 1 || num_chunks == 1) {
    // Serial pool or a single chunk: execute inline, same chunk order.
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
  task->owner = std::this_thread::get_id();
  {
    MutexLock lock(&queue_mutex_);
    queue_.push_back(task);
  }
  queue_cv_.NotifyAll();
  while (RunOneChunk(task.get())) {
  }
  // Every chunk is claimed. Until the in-flight ones finish, help with
  // any queued task one chunk at a time, so this task's completion is
  // noticed between chunks.
  while (true) {
    std::shared_ptr<Task> other;
    {
      MutexLock lock(&queue_mutex_);
      while (task->completed.load(std::memory_order_acquire) != num_chunks &&
             (other = ClaimableLocked()) == nullptr) {
        queue_cv_.Wait(&queue_mutex_);
      }
      if (other == nullptr) {
        // Drop the queue's reference if no scan has retired it yet.
        auto it = std::find(queue_.begin(), queue_.end(), task);
        if (it != queue_.end()) queue_.erase(it);
        break;
      }
    }
    RunOneChunk(other.get());
  }
  // Reading `error` needs the task mutex even though every chunk is done —
  // the annotation has no "quiescent" exception, and the lock also pairs
  // with the writer's release for a clean happens-before.
  std::exception_ptr error;
  {
    MutexLock lock(&task->error_mutex);
    error = task->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace vdrift::runtime
