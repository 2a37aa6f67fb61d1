// StripedWriter: append-only record stream writing block-sized chunks round-
// robin across a PE's local disks, with a bounded window of in-flight async
// writes (the "D write buffer blocks" of §III, applied locally).
#ifndef DEMSORT_IO_STRIPED_WRITER_H_
#define DEMSORT_IO_STRIPED_WRITER_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "io/block_manager.h"
#include "io/request.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace demsort::io {

template <typename R>
class StripedWriter {
 public:
  /// `max_in_flight` bounds buffered, un-acknowledged blocks (default: two
  /// generations per disk).
  StripedWriter(BlockManager* bm, size_t max_in_flight = 0)
      : bm_(bm),
        epb_(bm->block_size() / sizeof(R)),
        max_in_flight_(max_in_flight == 0 ? 2 * bm->num_disks()
                                          : max_in_flight) {
    DEMSORT_CHECK_GT(epb_, 0u);
    current_ = AlignedBuffer(bm_->block_size());
  }

  void Append(const R& record) {
    if (fill_ == 0) first_records_.push_back(record);
    std::memcpy(current_.data() + fill_ * sizeof(R), &record, sizeof(R));
    if (++fill_ == epb_) Flush();
    ++total_;
  }

  void AppendSpan(const R* records, size_t count) {
    while (count > 0) {
      size_t room = 0;
      R* window = Window(&room);
      const size_t take = std::min(room, count);
      std::memcpy(static_cast<void*>(window), records, take * sizeof(R));
      Commit(take);
      records += take;
      count -= take;
    }
  }

  /// Writable space for the next *room >= 1 records: the rest of the
  /// current block. Valid until the next Commit or Append.
  R* Window(size_t* room) {
    *room = epb_ - fill_;
    return reinterpret_cast<R*>(current_.data()) + fill_;
  }

  /// Appends the first `n` records written into the current Window.
  void Commit(size_t n) {
    DEMSORT_CHECK_LE(n, epb_ - fill_);
    if (n == 0) return;
    if (fill_ == 0) {
      first_records_.push_back(*reinterpret_cast<const R*>(current_.data()));
    }
    fill_ += n;
    total_ += n;
    if (fill_ == epb_) Flush();
  }

  /// Splices `count` already-written full blocks (with their first records)
  /// into the output stream, as if their contents had been Append'ed here.
  /// Used by the parallel final merge: workers write the grid-aligned body
  /// of their partition directly, and the stitching pass adopts those
  /// blocks between the boundary spans it writes itself. Only legal on a
  /// block boundary (no partial fill pending).
  void AdoptFullBlocks(const BlockId* ids, const R* firsts, size_t count) {
    DEMSORT_CHECK_EQ(fill_, 0u) << "adoption must land on a block boundary";
    blocks_.insert(blocks_.end(), ids, ids + count);
    first_records_.insert(first_records_.end(), firsts, firsts + count);
    total_ += static_cast<uint64_t>(count) * epb_;
  }

  /// Records appended since the last flushed block boundary.
  size_t pending_fill() const { return fill_; }

  /// Flushes the partial tail block (if any) and waits for all writes.
  void Finish() {
    final_fill_ = fill_ == 0 ? epb_ : fill_;
    if (fill_ > 0) Flush();
    while (!in_flight_.empty()) Reap();
  }

  uint64_t total_appended() const { return total_; }
  const std::vector<BlockId>& blocks() const { return blocks_; }
  const std::vector<R>& block_first_records() const { return first_records_; }
  /// Elements in the last block (== epb unless the total is not a multiple
  /// of the block capacity). Valid after Finish().
  size_t last_block_fill() const { return final_fill_; }
  /// Time spent waiting for in-flight writes: the full write window's
  /// stalls plus Finish's drain.
  uint64_t io_wait_ns() const { return io_wait_ns_; }

 private:
  void Flush() {
    BlockId id = bm_->Allocate();
    blocks_.push_back(id);
    in_flight_.push_back(
        {bm_->WriteAsync(id, current_.data()), std::move(current_)});
    current_ = AlignedBuffer(bm_->block_size());
    fill_ = 0;
    while (in_flight_.size() > max_in_flight_) Reap();
  }

  void Reap() {
    int64_t t0 = NowNanos();
    in_flight_.front().first.WaitOk();
    in_flight_.pop_front();
    io_wait_ns_ += NowNanos() - t0;
  }

  BlockManager* bm_;
  size_t epb_;
  size_t max_in_flight_;
  AlignedBuffer current_;
  size_t fill_ = 0;
  size_t final_fill_ = 0;
  uint64_t total_ = 0;
  std::vector<BlockId> blocks_;
  std::vector<R> first_records_;
  std::deque<std::pair<Request, AlignedBuffer>> in_flight_;
  uint64_t io_wait_ns_ = 0;
};

}  // namespace demsort::io

#endif  // DEMSORT_IO_STRIPED_WRITER_H_
