// Fixed-size worker pool for intra-PE (shared-memory) parallelism.
//
// In the paper's terms, each PE is a multi-core node; the MCSTL provides
// parallel sorting/merging inside a node. This pool plays that role. Each PE
// owns its own pool so PEs never share compute resources implicitly.
#ifndef DEMSORT_PAR_THREAD_POOL_H_
#define DEMSORT_PAR_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace demsort::par {

class ThreadPool {
 public:
  /// num_threads == 0 or 1 makes every call run inline (useful for tests and
  /// for keeping thread counts sane when emulating many PEs).
  ///
  /// `trace_rank`: the owning PE's rank, stamped on every worker thread so
  /// span-trace events they record land on that rank's tracks (workers are
  /// PE-private; -1 leaves them unattributed).
  explicit ThreadPool(size_t num_threads, int trace_rank = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

  /// Runs fn(i) for i in [0, num_tasks) across the pool and waits for all of
  /// them. The calling thread participates, so the pool can be size 0.
  ///
  /// Contract: task indexes are handed to executors in strictly increasing
  /// order.
  void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& fn);

  /// Splits [begin, end) into roughly equal chunks, one per available thread,
  /// and runs fn(chunk_begin, chunk_end) on each. Blocks until done.
  void ParallelChunks(
      size_t begin, size_t end,
      const std::function<void(size_t, size_t)>& fn);

 private:
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_tasks = 0;
    size_t next_task = 0;
    size_t done = 0;
    std::condition_variable done_cv;
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  Batch* current_ = nullptr;  // guarded by mu_
  /// Bumped per batch (guarded by mu_): back-to-back batches from one call
  /// site often reuse the same stack address, so workers recognise a new
  /// batch by its generation, not by current_.
  uint64_t generation_ = 0;
  bool shutdown_ = false;  // guarded by mu_
};

}  // namespace demsort::par

#endif  // DEMSORT_PAR_THREAD_POOL_H_
