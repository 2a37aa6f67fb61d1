// Recycling frame-buffer pool and the pooled-buffer handle (Frame) that
// moves through the transport instead of per-message vector allocations.
//
// The hierarchical transport touches every cross-node byte at several
// hops: frame, uplink, demux, mailbox. Allocating a fresh std::vector at
// each hop would cost an allocation per message. A Frame leases its backing
// buffer from a BufferPool and returns it on destruction, so steady-state
// traffic allocates O(pool) buffers, not O(messages); `Consume` replaces
// the front-erase memmove with an offset bump.
//
// A Frame keeps its pool alive via shared_ptr: frames legally outlive the
// transport that leased them (a node's frame lands in a peer node's mailbox
// and is drained after the sender shut down), so the pool must not die
// under an in-flight buffer.
#ifndef DEMSORT_NET_BUFFER_POOL_H_
#define DEMSORT_NET_BUFFER_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "net/net_stats.h"

namespace demsort::net {

/// Thread-safe free list of byte buffers. Lease() prefers a recycled buffer
/// with enough capacity (a pool hit); Recycle() returns a buffer, retaining
/// it up to `max_retained_bytes`. The free list is split into two size
/// classes (small control messages vs payload chunks), each with its own
/// retained-entry cap, so thousands of recycled 8-byte credit buffers can
/// neither crowd out chunk buffers nor stretch the under-lock scan a
/// chunk-sized lease pays. An optional `budget_bytes` bounds the
/// outstanding leased bytes: Lease blocks until enough frames are recycled,
/// except when nothing is outstanding (a single oversized lease must never
/// deadlock against its own budget — mirrors the TagChannel cap rule).
class BufferPool {
 public:
  struct Options {
    /// Free-list retention cap; recycled buffers beyond it are freed.
    size_t max_retained_bytes = 32u << 20;
    /// Buffers with at most this capacity recycle into the small class.
    size_t small_class_bytes = 4u << 10;
    /// Per-class retained-entry cap: bounds the Lease() scan (and the
    /// number of stranded tiny buffers) independently of the byte cap.
    size_t max_retained_per_class = 64;
    /// Outstanding-lease cap; 0 = unbounded (compatible default).
    size_t budget_bytes = 0;
  };

  BufferPool() : BufferPool(Options{}) {}
  explicit BufferPool(const Options& options) : options_(options) {}

  /// Leases a buffer of exactly `bytes` logical size. Records
  /// pool_leases (always) and pool_hits / pool_recycled_bytes (when served
  /// from the free list) on `stats` when non-null.
  std::vector<uint8_t> Lease(size_t bytes, NetStats* stats) {
    return LeaseImpl(bytes, stats, /*budgeted=*/true);
  }

  /// Budget-exempt lease for receiver-side payloads (the TCP reader
  /// thread): their volume is already bounded by socket backpressure and
  /// the mailbox watermark, and letting them contend for the send budget
  /// could interlock the reader against an application sender blocked in
  /// Lease — a stall neither side can break. Pair with a Frame charge of
  /// 0 so Recycle releases no budget either.
  std::vector<uint8_t> LeaseExempt(size_t bytes, NetStats* stats) {
    return LeaseImpl(bytes, stats, /*budgeted=*/false);
  }

  /// Returns a leased buffer. `charge` is the size the matching Lease was
  /// charged with (Frame tracks it; logical size may have shrunk since).
  void Recycle(std::vector<uint8_t>&& buf, size_t charge) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_bytes_ -= std::min(charge, outstanding_bytes_);
      const size_t cap = buf.capacity();
      std::vector<std::vector<uint8_t>>& cls = free_class(cap);
      if (cap != 0 && cls.size() < options_.max_retained_per_class &&
          retained_bytes_ + cap <= options_.max_retained_bytes) {
        retained_bytes_ += cap;
        cls.push_back(std::move(buf));
      }
    }
    budget_cv_.notify_all();
  }

  /// Releases a lease's budget charge without returning the buffer (the
  /// buffer was detached into a plain vector via Frame::IntoVector).
  void Forget(size_t charge) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_bytes_ -= std::min(charge, outstanding_bytes_);
    }
    budget_cv_.notify_all();
  }

  /// Releases Lease() calls blocked on the budget RIGHT NOW (failure
  /// paths — a dead PE may hold leased frames forever, and a sender parked
  /// on the budget must fail through its poisoned channel instead of
  /// stalling). Scoped to the waiters parked at call time via a
  /// generation bump: later leases see the budget re-armed, so one fault
  /// does not silently unbound the pool for every surviving PE for the
  /// rest of the run.
  void CancelWaits() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++cancel_gen_;
    }
    budget_cv_.notify_all();
  }

  size_t outstanding_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return outstanding_bytes_;
  }

 private:
  std::vector<uint8_t> LeaseImpl(size_t bytes, NetStats* stats,
                                 bool budgeted) {
    std::vector<uint8_t> buf;
    bool hit = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (budgeted && options_.budget_bytes != 0) {
        const uint64_t gen = cancel_gen_;
        budget_cv_.wait(lock, [&] {
          return cancel_gen_ != gen || outstanding_bytes_ == 0 ||
                 outstanding_bytes_ + bytes <= options_.budget_bytes;
        });
      }
      // Fit rule: enough capacity, but not grossly more — a tiny lease
      // (credit message) must not strip a chunk-sized buffer from the
      // free list and then strand its capacity on an 8-byte message.
      const size_t max_fit = std::max(bytes * 4, size_t{4} << 10);
      if (!TakeFitLocked(free_class(bytes), bytes, max_fit, &buf)) {
        // A small request whose fit range crosses the class boundary may
        // still be served by a modest large-class buffer.
        if (bytes <= options_.small_class_bytes &&
            max_fit > options_.small_class_bytes) {
          TakeFitLocked(free_large_, bytes, max_fit, &buf);
        }
      }
      hit = buf.capacity() != 0;
      if (budgeted) outstanding_bytes_ += bytes;
    }
    buf.resize(bytes);
    if (stats != nullptr) stats->RecordPoolLease(hit, hit ? bytes : 0);
    return buf;
  }

  bool TakeFitLocked(std::vector<std::vector<uint8_t>>& cls, size_t bytes,
                     size_t max_fit, std::vector<uint8_t>* out) {
    for (size_t i = cls.size(); i-- > 0;) {
      const size_t cap = cls[i].capacity();
      if (cap >= bytes && cap <= max_fit) {
        *out = std::move(cls[i]);
        cls.erase(cls.begin() + static_cast<ptrdiff_t>(i));
        retained_bytes_ -= cap;
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<uint8_t>>& free_class(size_t cap) {
    return cap <= options_.small_class_bytes ? free_small_ : free_large_;
  }

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable budget_cv_;
  uint64_t cancel_gen_ = 0;
  size_t outstanding_bytes_ = 0;
  size_t retained_bytes_ = 0;
  std::vector<std::vector<uint8_t>> free_small_;
  std::vector<std::vector<uint8_t>> free_large_;
};

/// Move-only handle on a message payload: a byte buffer, a logical window
/// into it (`offset_` consumed bytes precede the window), and an
/// optional owning pool the buffer returns to on destruction. Implicitly
/// convertible from a plain vector so unpooled call sites keep working;
/// such frames simply free their buffer like before.
class Frame {
 public:
  Frame() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): vectors are frames.
  Frame(std::vector<uint8_t> buf) : buf_(std::move(buf)) {}
  Frame(std::vector<uint8_t> buf, std::shared_ptr<BufferPool> pool,
        size_t charge)
      : buf_(std::move(buf)), pool_(std::move(pool)), charge_(charge) {}

  Frame(Frame&& other) noexcept
      : buf_(std::move(other.buf_)),
        offset_(other.offset_),
        pool_(std::move(other.pool_)),
        charge_(other.charge_) {
    other.buf_.clear();
    other.offset_ = 0;
    other.charge_ = 0;
  }
  Frame& operator=(Frame&& other) noexcept {
    if (this != &other) {
      Release();
      buf_ = std::move(other.buf_);
      offset_ = other.offset_;
      pool_ = std::move(other.pool_);
      charge_ = other.charge_;
      other.buf_.clear();
      other.offset_ = 0;
      other.charge_ = 0;
    }
    return *this;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  ~Frame() { Release(); }

  uint8_t* data() { return buf_.data() + offset_; }
  const uint8_t* data() const { return buf_.data() + offset_; }
  size_t size() const { return buf_.size() - offset_; }
  bool empty() const { return size() == 0; }
  std::span<const uint8_t> span() const { return {data(), size()}; }

  /// Advances the window past `n` leading bytes (a consumed header). O(1).
  void Consume(size_t n) { offset_ += n; }

  /// Detaches the payload as a plain vector (erasing consumed bytes). The
  /// buffer leaves the pool's ownership — its budget charge is released
  /// but it will not be recycled.
  std::vector<uint8_t> IntoVector() && {
    if (offset_ != 0) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<ptrdiff_t>(offset_));
      offset_ = 0;
    }
    if (pool_ != nullptr) {
      pool_->Forget(charge_);
      pool_.reset();
      charge_ = 0;
    }
    return std::move(buf_);
  }

 private:
  void Release() {
    if (pool_ != nullptr) {
      pool_->Recycle(std::move(buf_), charge_);
      pool_.reset();
    }
    buf_.clear();
    offset_ = 0;
    charge_ = 0;
  }

  std::vector<uint8_t> buf_;
  size_t offset_ = 0;
  std::shared_ptr<BufferPool> pool_;
  size_t charge_ = 0;
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_BUFFER_POOL_H_
