#include "io/block_manager.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace demsort::io {

namespace {

// Gives the whole pages inside [data, data + bytes) back to the OS. Rounds
// inward: madvise rounds its length up to whole pages, which would also
// drop the bytes of neighbouring blocks that share a page with this one.
void ReleasePages(uint8_t* data, size_t bytes) {
  static const uintptr_t page =
      static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t at = reinterpret_cast<uintptr_t>(data);
  const uintptr_t begin = (at + page - 1) / page * page;
  const uintptr_t end = (at + bytes) / page * page;
  if (begin < end) {
    // Advisory: on failure the pages stay resident until the buffer goes.
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_DONTNEED);
  }
}

}  // namespace

std::string BlockManager::DiskFilePath(const std::string& file_dir, int pe_id,
                                       uint32_t disk) {
  return file_dir + "/demsort_pe" + std::to_string(pe_id) + "_disk" +
         std::to_string(disk) + ".bin";
}

Status BlockManager::ProbeBackend(BackendKind kind, size_t block_size,
                                  const std::string& dir) {
  if (!IsFileBacked(kind)) return Status::OK();
  if (dir.empty()) {
    return Status::InvalidArgument("file-backed backend requires file_dir");
  }
  BackendFileOptions options;
  options.path = dir + "/demsort_probe_" + std::to_string(::getpid()) +
                 ".bin";
  options.unlink_on_close = true;
  options.queue_depth = 2;
  auto made = MakeBackend(kind, block_size, options);
  if (!made.ok()) return made.status();
  // One write+read round trip so O_DIRECT EINVALs (unsupported filesystem)
  // surface here instead of mid-sort.
  AlignedBuffer buf(block_size);
  buf.Zero();
  StorageBackend& backend = *made.value();
  DEMSORT_RETURN_IF_ERROR(backend.WriteBlock(0, buf.data()));
  DEMSORT_RETURN_IF_ERROR(backend.ReadBlock(0, buf.data()));
  return Status::OK();
}

BlockManager::BlockManager(const Options& options) : options_(options) {
  DEMSORT_CHECK_GT(options.num_disks, 0u);
  DEMSORT_CHECK_GT(options.block_size, 0u);
  if (IsFileBacked(options.backend)) {
    DEMSORT_CHECK(!options.file_dir.empty())
        << "file-backed backend requires file_dir";
  } else {
    DEMSORT_CHECK(!options.reuse_files)
        << "recovery reuse requires a file-backed backend (memory-backed "
           "blocks die with the epoch)";
  }
  disks_.reserve(options.num_disks);
  for (uint32_t d = 0; d < options.num_disks; ++d) {
    BackendFileOptions file_options;  // ignored by the memory backend
    file_options.path = DiskFilePath(options.file_dir, options.pe_id, d);
    file_options.unlink_on_close = !options.durable_files;
    file_options.reuse_existing = options.reuse_files;
    if (options.queue_depth != 0) {
      file_options.queue_depth = static_cast<unsigned>(options.queue_depth);
    }
    auto backend =
        MakeBackend(options.backend, options.block_size, file_options);
    DEMSORT_CHECK(backend.ok()) << backend.status().ToString();
    VirtualDisk::Options disk_options;
    disk_options.async = options.async;
    disk_options.queue_depth = options.queue_depth;
    disk_options.model = options.model;
    disk_options.trace_rank = options.pe_id;
    disks_.push_back(std::make_unique<VirtualDisk>(std::move(backend).value(),
                                                   disk_options));
  }
  free_lists_.resize(options.num_disks);
  next_fresh_.assign(options.num_disks, 0);
}

BlockId BlockManager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t disk = rr_cursor_;
  rr_cursor_ = (rr_cursor_ + 1) % num_disks();
  BlockId id;
  id.disk = disk;
  if (!free_lists_[disk].empty()) {
    id.block = free_lists_[disk].back();
    free_lists_[disk].pop_back();
  } else {
    id.block = next_fresh_[disk]++;
  }
  ++in_use_;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return id;
}

std::vector<BlockId> BlockManager::AllocateMany(size_t n) {
  std::vector<BlockId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(Allocate());
  return ids;
}

BlockId BlockManager::AllocateOnDisk(uint32_t disk) {
  DEMSORT_CHECK_LT(disk, num_disks());
  std::lock_guard<std::mutex> lock(mu_);
  BlockId id;
  id.disk = disk;
  if (!free_lists_[disk].empty()) {
    id.block = free_lists_[disk].back();
    free_lists_[disk].pop_back();
  } else {
    id.block = next_fresh_[disk]++;
  }
  ++in_use_;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return id;
}

void BlockManager::Free(BlockId id) {
  DEMSORT_CHECK(id.valid());
  DEMSORT_CHECK_LT(id.disk, num_disks());
  KeptBlock kept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DEMSORT_CHECK_GT(in_use_, 0u);
    if (auto it = kept_.find(id); it != kept_.end()) {
      kept = std::move(it->second);
      kept_.erase(it);
      num_kept_.store(kept_.size(), std::memory_order_release);
    }
    if (defer_frees_) {
      // Still counted in in_use_ and absent from the free lists: the block
      // stays unreadable-for-reuse until the phase checkpoint commits. A
      // kept block's memory can go at once: a checkpoint flushes it to
      // disk first, so only a block no checkpoint vouches for dies here.
      deferred_frees_.push_back(id);
    } else {
      --in_use_;
      free_lists_[id.disk].push_back(id.block);
    }
  }
  // Outside the lock. Other blocks of the same buffer stay intact; the last
  // share to go frees the buffer.
  if (kept.owner != nullptr) ReleasePages(kept.data, block_size());
}

void BlockManager::Keep(const std::vector<BlockId>& ids,
                        AlignedBuffer buffer) {
  DEMSORT_CHECK_LE(ids.size() * block_size(), buffer.size());
  auto owner = std::make_shared<AlignedBuffer>(std::move(buffer));
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < ids.size(); ++i) {
    DEMSORT_CHECK(ids[i].valid());
    DEMSORT_CHECK_LT(ids[i].disk, num_disks());
    const bool added =
        kept_.emplace(ids[i], KeptBlock{owner, owner->data() +
                                                   i * block_size()})
            .second;
    DEMSORT_CHECK(added) << "block " << ids[i].disk << ":" << ids[i].block
                         << " is kept twice";
  }
  num_kept_.store(kept_.size(), std::memory_order_release);
}

uint64_t BlockManager::blocks_kept() const {
  return num_kept_.load(std::memory_order_acquire);
}

void BlockManager::SetDeferFrees(bool defer) {
  std::lock_guard<std::mutex> lock(mu_);
  defer_frees_ = defer;
}

void BlockManager::CommitDeferredFrees() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const BlockId& id : deferred_frees_) {
    DEMSORT_CHECK_GT(in_use_, 0u);
    --in_use_;
    free_lists_[id.disk].push_back(id.block);
  }
  deferred_frees_.clear();
}

void BlockManager::RestoreAllocator(const std::vector<BlockId>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  DEMSORT_CHECK(deferred_frees_.empty());
  DEMSORT_CHECK(kept_.empty());
  std::vector<std::vector<uint64_t>> per_disk(num_disks());
  for (const BlockId& id : live) {
    DEMSORT_CHECK(id.valid());
    DEMSORT_CHECK_LT(id.disk, num_disks());
    per_disk[id.disk].push_back(id.block);
  }
  for (uint32_t d = 0; d < num_disks(); ++d) {
    std::sort(per_disk[d].begin(), per_disk[d].end());
    next_fresh_[d] =
        per_disk[d].empty() ? 0 : per_disk[d].back() + 1;
    // Every index below the high-water mark that the manifest does not claim
    // is a leftover of the killed epoch — recycle it.
    free_lists_[d].clear();
    size_t li = 0;
    for (uint64_t b = 0; b < next_fresh_[d]; ++b) {
      if (li < per_disk[d].size() && per_disk[d][li] == b) {
        ++li;
      } else {
        free_lists_[d].push_back(b);
      }
    }
    disks_[d]->TrustOnly(per_disk[d]);
  }
  in_use_ = live.size();
  peak_in_use_ = std::max(peak_in_use_, in_use_);
}

Request BlockManager::ReadAsync(BlockId id, void* buf) {
  DEMSORT_CHECK(id.valid());
  if (num_kept_.load(std::memory_order_acquire) == 0) {
    return disks_[id.disk]->ReadAsync(id.block, buf);
  }
  KeptBlock kept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = kept_.find(id); it != kept_.end()) kept = it->second;
  }
  if (kept.owner == nullptr) return disks_[id.disk]->ReadAsync(id.block, buf);
  // Copied outside the lock: the share keeps the buffer alive while other
  // threads read or free its other blocks.
  std::memcpy(buf, kept.data, block_size());
  return Request();
}

Request BlockManager::WriteAsync(BlockId id, const void* buf) {
  DEMSORT_CHECK(id.valid());
  return disks_[id.disk]->WriteAsync(id.block, buf);
}

std::vector<Request> BlockManager::ReadBatch(
    const std::vector<std::pair<BlockId, void*>>& ops) {
  std::vector<Request> requests;
  requests.reserve(ops.size());
  for (const auto& [id, buf] : ops) requests.push_back(ReadAsync(id, buf));
  return requests;
}

std::vector<Request> BlockManager::WriteBatch(
    const std::vector<std::pair<BlockId, const void*>>& ops) {
  std::vector<Request> requests;
  requests.reserve(ops.size());
  for (const auto& [id, buf] : ops) requests.push_back(WriteAsync(id, buf));
  return requests;
}

void BlockManager::DrainAll() {
  for (auto& disk : disks_) disk->Drain();
}

Status BlockManager::FlushAll() {
  // Write-back of the kept blocks. They stay readable from memory until
  // their writes complete, and are ordinary disk blocks afterwards.
  std::vector<std::pair<BlockId, KeptBlock>> kept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    kept.assign(kept_.begin(), kept_.end());
  }
  std::vector<Request> writes;
  writes.reserve(kept.size());
  for (const auto& [id, block] : kept) {
    writes.push_back(disks_[id.disk]->WriteAsync(id.block, block.data));
  }
  Status first = WaitAll(writes);
  if (first.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, block] : kept) kept_.erase(id);
    num_kept_.store(kept_.size(), std::memory_order_release);
  }
  for (auto& disk : disks_) {
    Status s = disk->Flush();
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

uint64_t BlockManager::blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

uint64_t BlockManager::peak_blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_use_;
}

IoStatsSnapshot BlockManager::TotalStats() const {
  IoStatsSnapshot total;
  for (const auto& disk : disks_) total += disk->Stats();
  return total;
}

void BlockManager::ResetQueueDepthPeaks() {
  for (auto& disk : disks_) disk->ResetQueueDepthPeak();
}

double BlockManager::MaxDiskModelBusySeconds() const {
  double max_s = 0.0;
  for (const auto& disk : disks_) {
    max_s = std::max(max_s, disk->Stats().model_busy_s());
  }
  return max_s;
}

}  // namespace demsort::io
