#include "par/thread_pool.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace demsort::par {

ThreadPool::ThreadPool(size_t num_threads, int trace_rank) {
  if (num_threads <= 1) return;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, trace_rank] {
      TRACE_THREAD_RANK(trace_rank);
      TRACE_THREAD_NAME("pool-worker");
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t seen = 0;
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (current_ != nullptr && generation_ != seen);
    });
    if (shutdown_) return;
    seen = generation_;
    Batch* batch = current_;
    while (batch->next_task < batch->num_tasks) {
      size_t task = batch->next_task++;
      lock.unlock();
      (*batch->fn)(task);
      lock.lock();
      ++batch->done;
      if (batch->done == batch->num_tasks) batch->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t num_tasks,
                             const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  if (threads_.empty() || num_tasks == 1) {
    for (size_t i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.num_tasks = num_tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DEMSORT_CHECK(current_ == nullptr) << "nested ParallelFor on one pool";
    current_ = &batch;
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread participates too.
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.next_task < batch.num_tasks) {
    size_t task = batch.next_task++;
    lock.unlock();
    fn(task);
    lock.lock();
    ++batch.done;
  }
  batch.done_cv.wait(lock, [&] { return batch.done == batch.num_tasks; });
  current_ = nullptr;
}

void ThreadPool::ParallelChunks(size_t begin, size_t end,
                                const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  size_t n = end - begin;
  size_t parts = std::min(n, num_threads());
  size_t chunk = (n + parts - 1) / parts;
  ParallelFor(parts, [&](size_t i) {
    size_t lo = begin + i * chunk;
    size_t hi = std::min(end, lo + chunk);
    if (lo < hi) fn(lo, hi);
  });
}

}  // namespace demsort::par
