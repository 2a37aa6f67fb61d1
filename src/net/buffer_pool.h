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
/// it up to kMaxRetainedBytes. The free list is split into two size
/// classes (small control messages vs payload chunks), each with its own
/// retained-entry cap, so thousands of recycled 8-byte credit buffers can
/// neither crowd out chunk buffers nor stretch the under-lock scan a
/// chunk-sized lease pays. Lease never blocks: the bytes out on lease are
/// bounded by the transport's windows, not by the pool (Comm's send
/// window and the streaming exchange's receive-side credits).
class BufferPool {
 public:
  /// Free-list retention cap; recycled buffers beyond it are freed.
  static constexpr size_t kMaxRetainedBytes = 32u << 20;
  /// Buffers with at most this capacity recycle into the small class.
  static constexpr size_t kSmallClassBytes = 4u << 10;
  /// Per-class retained-entry cap: bounds the Lease() scan (and the number
  /// of stranded tiny buffers) independently of the byte cap.
  static constexpr size_t kMaxRetainedPerClass = 64;

  /// Leases a buffer of exactly `bytes` logical size. Records
  /// pool_leases (always) and pool_hits / pool_recycled_bytes (when served
  /// from the free list) on `stats` when non-null.
  std::vector<uint8_t> Lease(size_t bytes, NetStats* stats) {
    std::vector<uint8_t> buf;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Fit rule: enough capacity, but not grossly more — a tiny lease
      // (credit message) must not strip a chunk-sized buffer from the
      // free list and then strand its capacity on an 8-byte message.
      const size_t max_fit = std::max(bytes * 4, size_t{4} << 10);
      if (!TakeFitLocked(free_class(bytes), bytes, max_fit, &buf)) {
        // A small request whose fit range crosses the class boundary may
        // still be served by a modest large-class buffer.
        if (bytes <= kSmallClassBytes && max_fit > kSmallClassBytes) {
          TakeFitLocked(free_large_, bytes, max_fit, &buf);
        }
      }
    }
    const bool hit = buf.capacity() != 0;
    buf.resize(bytes);
    if (stats != nullptr) stats->RecordPoolLease(hit, hit ? bytes : 0);
    return buf;
  }

  /// Returns a leased buffer to the free list (or frees it past the caps).
  void Recycle(std::vector<uint8_t>&& buf) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t cap = buf.capacity();
    std::vector<std::vector<uint8_t>>& cls = free_class(cap);
    if (cap != 0 && cls.size() < kMaxRetainedPerClass &&
        retained_bytes_ + cap <= kMaxRetainedBytes) {
      retained_bytes_ += cap;
      cls.push_back(std::move(buf));
    }
  }

 private:
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
    return cap <= kSmallClassBytes ? free_small_ : free_large_;
  }

  std::mutex mu_;
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
  Frame(std::vector<uint8_t> buf, std::shared_ptr<BufferPool> pool)
      : buf_(std::move(buf)), pool_(std::move(pool)) {}

  Frame(Frame&& other) noexcept
      : buf_(std::move(other.buf_)),
        offset_(other.offset_),
        pool_(std::move(other.pool_)) {
    other.buf_.clear();
    other.offset_ = 0;
  }
  Frame& operator=(Frame&& other) noexcept {
    if (this != &other) {
      Release();
      buf_ = std::move(other.buf_);
      offset_ = other.offset_;
      pool_ = std::move(other.pool_);
      other.buf_.clear();
      other.offset_ = 0;
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
  /// buffer leaves the pool's ownership and will not be recycled.
  std::vector<uint8_t> IntoVector() && {
    if (offset_ != 0) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<ptrdiff_t>(offset_));
      offset_ = 0;
    }
    pool_.reset();
    return std::move(buf_);
  }

 private:
  void Release() {
    if (pool_ != nullptr) {
      pool_->Recycle(std::move(buf_));
      pool_.reset();
    }
    buf_.clear();
    offset_ = 0;
  }

  std::vector<uint8_t> buf_;
  size_t offset_ = 0;
  std::shared_ptr<BufferPool> pool_;
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_BUFFER_POOL_H_
