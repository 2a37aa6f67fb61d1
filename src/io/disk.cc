#include "io/disk.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/timer.h"

namespace demsort::io {

VirtualDisk::VirtualDisk(std::unique_ptr<StorageBackend> backend,
                         Options options)
    : backend_(std::move(backend)),
      options_(options),
      inline_(!options_.async || (backend_->completes_in_memory() &&
                                  !options_.model.throttle)),
      signal_(std::make_shared<internal::CompletionSignal>()),
      trace_track_("disk", options_.trace_rank) {
  const size_t capacity = backend_->queue_capacity();
  depth_ = options_.queue_depth == 0 ? capacity
                                     : std::min(options_.queue_depth, capacity);
  if (depth_ == 0) depth_ = 1;
  if (!inline_) pump_ = std::thread([this] { PumpLoop(); });
}

VirtualDisk::~VirtualDisk() {
  if (!inline_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    pump_.join();
  }
}

Request VirtualDisk::ReadAsync(uint64_t block, void* buf) {
  Op op;
  op.is_write = false;
  op.block = block;
  op.read_buf = buf;
  return Enqueue(std::move(op));
}

Request VirtualDisk::WriteAsync(uint64_t block, const void* buf) {
  Op op;
  op.is_write = true;
  op.block = block;
  op.write_buf = buf;
  return Enqueue(std::move(op));
}

Request VirtualDisk::Enqueue(Op op) {
  op.state = std::make_shared<internal::RequestState>(signal_);
  Request request(op.state);
  if (inline_) {
    // Serve the operation on the caller's thread, serialized against other
    // submitters (the backend seam and the trace track are single-driver).
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    Issue(std::move(op));
    while (!request.done()) {
      if (ReapSome(/*wait=*/true) == 0 && !request.done()) {
        DEMSORT_CHECK(false) << "inline I/O completion never arrived";
      }
    }
    return request;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    queue_.push_back(std::move(op));
  }
  cv_.notify_all();
  return request;
}

void VirtualDisk::Issue(Op op) {
  const size_t bs = backend_->block_size();
  const bool seek = !has_last_block_ || op.block != last_block_ + 1;
  has_last_block_ = true;
  last_block_ = op.block;

  InFlight inf;
  inf.seek = seek;
  double model_s = options_.model.TransferSeconds(bs) +
                   (seek ? options_.model.SeekSeconds() : 0.0);
  inf.model_ns = static_cast<uint64_t>(model_s * 1e9);
  inf.issue_ns = NowNanos();

  IoOp io;
  io.is_write = op.is_write;
  io.block = op.block;
  io.read_buf = op.read_buf;
  io.write_buf = op.write_buf;
  io.user_data = next_token_++;
  inf.op = std::move(op);
  while (!backend_->Submit(io)) {
    // Device queue full: free a slot before retrying.
    DEMSORT_CHECK_GT(ReapSome(/*wait=*/true), 0u)
        << "device queue full but nothing completes";
  }
  inf.depth_at_issue = in_flight_.size() + 1;
  in_flight_.emplace(io.user_data, std::move(inf));
}

size_t VirtualDisk::ReapSome(bool wait) {
  completions_.clear();
  backend_->Reap(&completions_, wait);
  const size_t bs = backend_->block_size();
  for (IoCompletion& c : completions_) {
    auto it = in_flight_.find(c.user_data);
    DEMSORT_CHECK(it != in_flight_.end()) << "completion for unknown op";
    InFlight inf = std::move(it->second);
    in_flight_.erase(it);
    if (options_.model.throttle) {
      // Batch sub-millisecond service times into one sleep: the OS rounds
      // short sleeps up to scheduler granularity, which would inflate the
      // emulated device far beyond its model.
      throttle_debt_ns_ += inf.model_ns;
      if (throttle_debt_ns_ >= 2'000'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(throttle_debt_ns_));
        throttle_debt_ns_ = 0;
      }
    }
    uint64_t latency_ns = static_cast<uint64_t>(NowNanos() - inf.issue_ns);
    if (inf.op.is_write) {
      stats_.RecordWrite(bs, inf.seek, inf.model_ns, latency_ns,
                         inf.depth_at_issue);
    } else {
      stats_.RecordRead(bs, inf.seek, inf.model_ns, latency_ns,
                        inf.depth_at_issue);
    }
    // The op's submit→reap life as a complete-span at its issue timestamp:
    // queueing at the device included, so Perfetto shows the real depth.
    TRACE_TRACK_COMPLETE2(
        trace_track_, "io", inf.op.is_write ? "io.write" : "io.read",
        inf.issue_ns, static_cast<int64_t>(latency_ns), "block",
        inf.op.block, "depth", inf.depth_at_issue);
    Request::Complete(inf.op.state, std::move(c.status));
  }
  size_t n = completions_.size();
  outstanding_.fetch_sub(n, std::memory_order_release);
  return n;
}

void VirtualDisk::PumpLoop() {
  std::vector<Op> to_issue;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] {
      return shutdown_ || !queue_.empty() || !in_flight_.empty();
    });
    if (shutdown_ && queue_.empty() && in_flight_.empty()) return;
    to_issue.clear();
    while (!queue_.empty() && in_flight_.size() + to_issue.size() < depth_) {
      to_issue.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    for (Op& op : to_issue) Issue(std::move(op));
    if (!in_flight_.empty()) {
      ReapSome(/*wait=*/true);
    }
    lock.lock();
    // Issue() can also reap internally (full device queue), so notify
    // unconditionally: Drain() rechecks its predicate anyway.
    cv_.notify_all();
  }
}

void VirtualDisk::Drain() {
  if (inline_) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

Status VirtualDisk::Flush() {
  Drain();
  // Nothing outstanding: the pump is parked in its cv wait (or absent in
  // inline mode), so the backend is safe to touch from this thread. Holding
  // mu_ keeps the pump parked while the barrier runs.
  std::lock_guard<std::mutex> lock(mu_);
  return backend_->Flush();
}

size_t VirtualDisk::queue_depth() const {
  return outstanding_.load(std::memory_order_acquire);
}

}  // namespace demsort::io
