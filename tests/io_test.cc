#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <vector>

#include "io/backend.h"
#include "io/block_manager.h"
#include "io/disk.h"
#include "io/io_stats.h"
#include "io/striped_writer.h"
#include "util/aligned_buffer.h"

namespace demsort::io {
namespace {

constexpr size_t kBlock = 4096;

AlignedBuffer PatternBlock(uint8_t tag) {
  AlignedBuffer buf(kBlock);
  std::memset(buf.data(), tag, kBlock);
  return buf;
}

// ------------------------------------------------------------ IoStats ----

TEST(IoStatsTest, LatencyBucketsSplitAtPowersOfTwoMicroseconds) {
  EXPECT_EQ(IoLatencyBucket(0), 0u);
  EXPECT_EQ(IoLatencyBucket(500), 0u);        // sub-µs
  EXPECT_EQ(IoLatencyBucket(1'000), 0u);      // 1 µs
  EXPECT_EQ(IoLatencyBucket(1'999), 0u);
  EXPECT_EQ(IoLatencyBucket(2'000), 1u);      // 2 µs
  EXPECT_EQ(IoLatencyBucket(3'000), 1u);      // 3 µs
  EXPECT_EQ(IoLatencyBucket(4'000), 2u);
  EXPECT_EQ(IoLatencyBucket(32'767'000), kIoLatencyBuckets - 2);
  EXPECT_EQ(IoLatencyBucket(32'768'000), kIoLatencyBuckets - 1);  // ~32 ms
  EXPECT_EQ(IoLatencyBucket(40'000'000), kIoLatencyBuckets - 1);
  EXPECT_EQ(IoLatencyBucket(uint64_t{10'000'000'000}), kIoLatencyBuckets - 1);
}

TEST(IoStatsTest, PercentilesAndIntervalArithmeticWorkPerBucket) {
  IoStats stats;
  EXPECT_EQ(stats.Snapshot().LatencyPercentileUpperUs(0.5), 0u);
  // First interval: two ops in bucket 0, three in bucket 1, one past 32 ms.
  for (uint64_t ns : {500, 1'000, 2'000, 3'000, 3'000, 40'000'000}) {
    stats.RecordRead(kBlock, false, 0, ns, 1);
  }
  const IoStatsSnapshot first = stats.Snapshot();
  EXPECT_EQ(first.lat_hist_us[0], 2u);
  EXPECT_EQ(first.lat_hist_us[1], 3u);
  EXPECT_EQ(first.lat_hist_us[kIoLatencyBuckets - 1], 1u);
  // The median (rank 3 of 6) lies in [2, 4) µs; the p99 in the last bucket.
  EXPECT_EQ(first.LatencyPercentileUpperUs(0.5), 4u);
  EXPECT_EQ(first.LatencyPercentileUpperUs(0.99),
            uint64_t{1} << kIoLatencyBuckets);

  // Second interval: writes in buckets 1 and 2.
  for (uint64_t ns : {2'000, 4'000, 7'000}) {
    stats.RecordWrite(kBlock, true, 0, ns, 2);
  }
  const IoStatsSnapshot second = stats.Snapshot();
  const IoStatsSnapshot delta = second - first;
  EXPECT_EQ(delta.reads, 0u);
  EXPECT_EQ(delta.writes, 3u);
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    const uint64_t want = b == 1 ? 1 : b == 2 ? 2 : 0;
    EXPECT_EQ(delta.lat_hist_us[b], want) << "bucket " << b;
  }
  EXPECT_EQ(delta.LatencyPercentileUpperUs(0.5), 8u);

  IoStatsSnapshot sum = first;
  sum += delta;
  EXPECT_EQ(sum.reads, second.reads);
  EXPECT_EQ(sum.writes, second.writes);
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    EXPECT_EQ(sum.lat_hist_us[b], second.lat_hist_us[b]) << "bucket " << b;
  }
}

// ------------------------------------------------------------ Backend ----

TEST(MemoryBackendTest, RoundTrip) {
  MemoryBackend backend(kBlock);
  AlignedBuffer w = PatternBlock(0xAB);
  ASSERT_TRUE(backend.WriteBlock(5, w.data()).ok());
  AlignedBuffer r(kBlock);
  ASSERT_TRUE(backend.ReadBlock(5, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(MemoryBackendTest, ReadBeforeWriteFails) {
  MemoryBackend backend(kBlock);
  AlignedBuffer r(kBlock);
  EXPECT_EQ(backend.ReadBlock(0, r.data()).code(), StatusCode::kNotFound);
}

TEST(MemoryBackendTest, OverwriteReplaces) {
  MemoryBackend backend(kBlock);
  AlignedBuffer a = PatternBlock(1), b = PatternBlock(2), r(kBlock);
  ASSERT_TRUE(backend.WriteBlock(0, a.data()).ok());
  ASSERT_TRUE(backend.WriteBlock(0, b.data()).ok());
  ASSERT_TRUE(backend.ReadBlock(0, r.data()).ok());
  EXPECT_EQ(r.data()[17], 2);
}

TEST(FileBackendTest, RoundTrip) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_test.bin";
  auto created = FileBackend::Create(path, kBlock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto backend = std::move(created).value();
  AlignedBuffer w = PatternBlock(0xCD), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(9, w.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(9, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(FileBackendTest, ReadBeforeWriteFails) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_rbw.bin";
  auto created = FileBackend::Create(path, kBlock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto backend = std::move(created).value();
  AlignedBuffer w = PatternBlock(0x33), r(kBlock);
  // Never-written block in a fresh file.
  EXPECT_EQ(backend->ReadBlock(0, r.data()).code(), StatusCode::kNotFound);
  // Writing block 5 leaves a filesystem hole at 0..4; reading the hole must
  // still fail loudly instead of returning zeros.
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  EXPECT_EQ(backend->ReadBlock(3, r.data()).code(), StatusCode::kNotFound);
  EXPECT_TRUE(backend->ReadBlock(5, r.data()).ok());
}

TEST(FileBackendTest, CreateTruncatesScratchCleansUp) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_scratch.bin";
  {
    auto created = FileBackend::Create(path, kBlock);
    ASSERT_TRUE(created.ok());
    AlignedBuffer w = PatternBlock(1);
    ASSERT_TRUE(created.value()->WriteBlock(0, w.data()).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  // Default Create() semantics: scratch disk, unlinked on close.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FileBackendTest, ReopenPreservesContents) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_reopen.bin";
  {
    auto created = FileBackend::Create(path, kBlock,
                                       /*unlink_on_close=*/false);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    AlignedBuffer a = PatternBlock(0x41), b = PatternBlock(0x42);
    ASSERT_TRUE(created.value()->WriteBlock(0, a.data()).ok());
    ASSERT_TRUE(created.value()->WriteBlock(1, b.data()).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    auto reopened = FileBackend::Open(path, kBlock);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    AlignedBuffer r(kBlock);
    ASSERT_TRUE(reopened.value()->ReadBlock(1, r.data()).ok());
    EXPECT_EQ(r.data()[99], 0x42);
    ASSERT_TRUE(reopened.value()->ReadBlock(0, r.data()).ok());
    EXPECT_EQ(r.data()[99], 0x41);
    // Beyond the reopened file's extent: never written.
    EXPECT_EQ(reopened.value()->ReadBlock(7, r.data()).code(),
              StatusCode::kNotFound);
    // New writes extend the reopened file.
    AlignedBuffer c = PatternBlock(0x43);
    ASSERT_TRUE(reopened.value()->WriteBlock(7, c.data()).ok());
    EXPECT_TRUE(reopened.value()->ReadBlock(7, r.data()).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));  // Open never unlinks
  std::filesystem::remove(path);
}

TEST(FileBackendTest, OpenMissingFileIsNotFound) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_missing.bin";
  std::filesystem::remove(path);
  auto opened = FileBackend::Open(path, kBlock);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------- VirtualDisk ----

TEST(VirtualDiskTest, AsyncRoundTrip) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer w = PatternBlock(0x11), r(kBlock);
  disk.WriteAsync(3, w.data()).WaitOk();
  disk.ReadAsync(3, r.data()).WaitOk();
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(VirtualDiskTest, SyncModeWorks) {
  VirtualDisk::Options options;
  options.async = false;
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), options);
  AlignedBuffer w = PatternBlock(0x22), r(kBlock);
  Request wr = disk.WriteAsync(0, w.data());
  EXPECT_TRUE(wr.done());  // inline execution completes immediately
  disk.ReadAsync(0, r.data()).WaitOk();
  EXPECT_EQ(r.data()[0], 0x22);
}

TEST(VirtualDiskTest, FifoOrderPreservesReadAfterWrite) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  // Queue many write/read pairs to the same block; FIFO must serialize.
  for (int round = 0; round < 50; ++round) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(round));
    AlignedBuffer r(kBlock);
    Request wreq = disk.WriteAsync(0, w.data());
    Request rreq = disk.ReadAsync(0, r.data());
    rreq.WaitOk();
    EXPECT_EQ(r.data()[100], static_cast<uint8_t>(round));
    wreq.WaitOk();
  }
}

TEST(VirtualDiskTest, StatsCountOpsAndBytes) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 10; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  for (uint64_t b = 0; b < 4; ++b) disk.ReadAsync(b, buf.data()).WaitOk();
  disk.Drain();
  IoStatsSnapshot stats = disk.Stats();
  EXPECT_EQ(stats.writes, 10u);
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.bytes_written, 10 * kBlock);
  EXPECT_EQ(stats.bytes_read, 4 * kBlock);
  EXPECT_GT(stats.model_busy_ns, 0u);
}

TEST(VirtualDiskTest, SequentialAccessAvoidsSeeks) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 20; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  uint64_t seq_seeks = disk.Stats().seeks;
  EXPECT_EQ(seq_seeks, 1u);  // only the first access seeks

  for (uint64_t b = 0; b < 20; b += 2) {
    disk.ReadAsync(19 - b, buf.data()).WaitOk();
  }
  EXPECT_GT(disk.Stats().seeks, seq_seeks + 5);
}

TEST(VirtualDiskTest, ReadErrorSurfaces) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer r(kBlock);
  Status s = disk.ReadAsync(99, r.data()).Wait();
  EXPECT_FALSE(s.ok());
}

TEST(DiskModelTest, TransferTimeScalesWithBytes) {
  DiskModel model;
  EXPECT_NEAR(model.TransferSeconds(67 * 1024 * 1024), 1.0, 1e-9);
  EXPECT_GT(model.SeekSeconds(), 0.0);
}

// -------------------------------------------------------- BlockManager ----

BlockManager::Options SmallBm(uint32_t disks = 3) {
  BlockManager::Options options;
  options.num_disks = disks;
  options.block_size = kBlock;
  return options;
}

TEST(BlockManagerTest, AllocationStripesAcrossDisks) {
  BlockManager bm(SmallBm(3));
  std::vector<BlockId> ids = bm.AllocateMany(9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(ids[i].disk, static_cast<uint32_t>(i % 3));
  }
}

TEST(BlockManagerTest, FreeListIsReused) {
  BlockManager bm(SmallBm(1));
  BlockId a = bm.Allocate();
  bm.Free(a);
  BlockId b = bm.Allocate();
  EXPECT_EQ(a, b);
  EXPECT_EQ(bm.blocks_in_use(), 1u);
}

TEST(BlockManagerTest, PeakTracksHighWater) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(10);
  for (const BlockId& id : ids) bm.Free(id);
  bm.AllocateMany(3);
  EXPECT_EQ(bm.blocks_in_use(), 3u);
  EXPECT_EQ(bm.peak_blocks_in_use(), 10u);
}

TEST(BlockManagerTest, ReadWriteThroughIds) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(4);
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(i + 1));
    bm.WriteSync(ids[i], w.data());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer r(kBlock);
    bm.ReadSync(ids[i], r.data());
    EXPECT_EQ(r.data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BlockManagerTest, FileBackendEndToEnd) {
  BlockManager::Options options = SmallBm(2);
  options.backend = BlockManager::BackendKind::kFile;
  options.file_dir = std::filesystem::temp_directory_path().string();
  options.pe_id = 77;
  BlockManager bm(options);
  std::vector<BlockId> ids = bm.AllocateMany(6);
  AlignedBuffer w = PatternBlock(0x5A), r(kBlock);
  bm.WriteSync(ids[5], w.data());
  bm.ReadSync(ids[5], r.data());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(BlockManagerTest, AllocateOnDiskPins) {
  BlockManager bm(SmallBm(3));
  BlockId id = bm.AllocateOnDisk(2);
  EXPECT_EQ(id.disk, 2u);
}

TEST(BlockManagerTest, TotalStatsAggregatesDisks) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(8);
  AlignedBuffer w = PatternBlock(1);
  for (const BlockId& id : ids) bm.WriteSync(id, w.data());
  EXPECT_EQ(bm.TotalStats().writes, 8u);
  EXPECT_EQ(bm.DiskStats(0).writes + bm.DiskStats(1).writes, 8u);
}

// Kept blocks: block i of the buffer handed to Keep holds byte i + 1.
AlignedBuffer KeptBuffer(size_t blocks, size_t block_size) {
  AlignedBuffer buf(blocks * block_size);
  for (size_t i = 0; i < blocks; ++i) {
    std::memset(buf.data() + i * block_size, static_cast<int>(i + 1),
                block_size);
  }
  return buf;
}

bool HoldsKeptPattern(const AlignedBuffer& block, size_t i) {
  for (size_t b = 0; b < block.size(); ++b) {
    if (block.data()[b] != static_cast<uint8_t>(i + 1)) return false;
  }
  return true;
}

TEST(BlockManagerTest, KeptBlocksReadBackExactAndCostNoIo) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(6);
  bm.Keep(ids, KeptBuffer(ids.size(), kBlock));
  EXPECT_EQ(bm.blocks_kept(), 6u);
  std::vector<AlignedBuffer> got;
  std::vector<std::pair<BlockId, void*>> ops;
  for (const BlockId& id : ids) {
    got.emplace_back(kBlock);
    ops.emplace_back(id, got.back().data());
  }
  std::vector<Request> reads = bm.ReadBatch(ops);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(reads[i].done()) << "a kept read completes at once";
    EXPECT_TRUE(HoldsKeptPattern(got[i], i)) << "block " << i;
    AlignedBuffer again(kBlock);
    bm.ReadSync(ids[i], again.data());
    EXPECT_TRUE(HoldsKeptPattern(again, i)) << "block " << i;
  }
  EXPECT_EQ(bm.TotalStats().ops(), 0u);
  EXPECT_EQ(bm.TotalStats().bytes(), 0u);
  for (const BlockId& id : ids) bm.Free(id);
  EXPECT_EQ(bm.blocks_kept(), 0u);
  EXPECT_EQ(bm.blocks_in_use(), 0u);
}

TEST(BlockManagerTest, FreeingAKeptBlockLeavesItsNeighboursIntact) {
  // Free gives back only the whole pages inside a block. 1 KiB blocks hold
  // no whole page; 3 and 6 KiB blocks share pages with their neighbours.
  for (size_t block_size : {size_t{1024}, size_t{3072}, size_t{6144}}) {
    BlockManager::Options options = SmallBm(1);
    options.block_size = block_size;
    BlockManager bm(options);
    std::vector<BlockId> ids = bm.AllocateMany(12);
    bm.Keep(ids, KeptBuffer(ids.size(), block_size));
    std::vector<bool> freed(ids.size(), false);
    for (size_t victim : {5, 0, 11, 6, 4, 1}) {
      bm.Free(ids[victim]);
      freed[victim] = true;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (freed[i]) continue;
        AlignedBuffer block(block_size);
        bm.ReadSync(ids[i], block.data());
        EXPECT_TRUE(HoldsKeptPattern(block, i))
            << block_size << " B blocks: block " << i << " after freeing "
            << victim;
      }
    }
    EXPECT_EQ(bm.blocks_kept(), 6u);
  }
}

TEST(BlockManagerTest, FlushAllWritesKeptBlocksToDisk) {
  BlockManager::Options options = SmallBm(2);
  options.backend = BlockManager::BackendKind::kFile;
  options.file_dir = std::filesystem::temp_directory_path().string();
  options.pe_id = 78;
  options.durable_files = true;
  std::vector<BlockId> ids;
  {
    BlockManager bm(options);
    ids = bm.AllocateMany(5);
    bm.Keep(ids, KeptBuffer(ids.size(), kBlock));
    ASSERT_TRUE(bm.FlushAll().ok());
    EXPECT_EQ(bm.blocks_kept(), 0u);
    EXPECT_EQ(bm.TotalStats().bytes_written, ids.size() * kBlock);
  }
  // A fresh manager over the same files reads them from disk.
  options.reuse_files = true;
  BlockManager reopened(options);
  reopened.RestoreAllocator(ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer block(kBlock);
    reopened.ReadSync(ids[i], block.data());
    EXPECT_TRUE(HoldsKeptPattern(block, i)) << "block " << i;
  }
  EXPECT_EQ(reopened.TotalStats().bytes_read, ids.size() * kBlock);
  for (uint32_t d = 0; d < options.num_disks; ++d) {
    std::filesystem::remove(
        BlockManager::DiskFilePath(options.file_dir, options.pe_id, d));
  }
}

// ------------------------------------------------------- StripedWriter ----

TEST(StripedWriterTest, WritesAndTracksFirstRecords) {
  BlockManager bm(SmallBm(2));
  StripedWriter<uint64_t> writer(&bm);
  const size_t epb = kBlock / sizeof(uint64_t);
  for (uint64_t i = 0; i < 3 * epb + 7; ++i) writer.Append(i);
  writer.Finish();
  EXPECT_EQ(writer.total_appended(), 3 * epb + 7);
  ASSERT_EQ(writer.blocks().size(), 4u);
  EXPECT_EQ(writer.block_first_records()[1], epb);
  EXPECT_EQ(writer.last_block_fill(), 7u);

  AlignedBuffer r(kBlock);
  bm.ReadSync(writer.blocks()[2], r.data());
  EXPECT_EQ(reinterpret_cast<uint64_t*>(r.data())[0], 2 * epb);
}

TEST(StripedWriterTest, EmptyFinishIsSafe) {
  BlockManager bm(SmallBm(2));
  StripedWriter<uint64_t> writer(&bm);
  writer.Finish();
  EXPECT_EQ(writer.total_appended(), 0u);
  EXPECT_TRUE(writer.blocks().empty());
}

TEST(StripedWriterTest, ExactBlockBoundary) {
  BlockManager bm(SmallBm(1));
  StripedWriter<uint64_t> writer(&bm);
  const size_t epb = kBlock / sizeof(uint64_t);
  for (uint64_t i = 0; i < 2 * epb; ++i) writer.Append(i);
  writer.Finish();
  EXPECT_EQ(writer.blocks().size(), 2u);
  EXPECT_EQ(writer.last_block_fill(), epb);
}

TEST(StripedWriterTest, AppendSpanMatchesAppend) {
  BlockManager bm(SmallBm(2));
  const size_t epb = kBlock / sizeof(uint64_t);
  std::vector<uint64_t> data(3 * epb + 11);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i * 7;

  StripedWriter<uint64_t> a(&bm), b(&bm);
  for (uint64_t v : data) a.Append(v);
  // Spans sliced at awkward offsets must produce the identical stream.
  b.AppendSpan(data.data(), 3);
  b.AppendSpan(data.data() + 3, epb);
  b.AppendSpan(data.data() + 3 + epb, data.size() - 3 - epb);
  a.Finish();
  b.Finish();
  EXPECT_EQ(a.total_appended(), b.total_appended());
  EXPECT_EQ(a.block_first_records(), b.block_first_records());
  EXPECT_EQ(a.last_block_fill(), b.last_block_fill());
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  for (size_t i = 0; i < a.blocks().size(); ++i) {
    AlignedBuffer ra(kBlock), rb(kBlock);
    bm.ReadSync(a.blocks()[i], ra.data());
    bm.ReadSync(b.blocks()[i], rb.data());
    size_t fill = (i + 1 == a.blocks().size() ? a.last_block_fill() : epb) *
                  sizeof(uint64_t);
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), fill), 0) << "block " << i;
  }
}

// ------------------------------------------------- Backend conformance ----
//
// One suite, every compiled-in backend kind: the async seam contract
// (Submit/Reap, sync convenience, read-before-write rejection, queue
// capacity), the TrustOnly recovery mask, and reopen durability. Kinds the
// host cannot serve (O_DIRECT on tmpfs, io_uring behind a seccomp filter
// or forced off at configure time) skip with the reason in the log — the
// CI matrix covers both configurations.

class BackendConformanceTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::string NewPath(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            (std::string("demsort_conf_") + BackendKindName(GetParam()) +
             "_" + tag + ".bin"))
        .string();
  }
};

#define MAKE_BACKEND_OR_SKIP(var, opts)                                   \
  std::unique_ptr<StorageBackend> var;                                    \
  {                                                                       \
    auto made = MakeBackend(GetParam(), kBlock, opts);                    \
    if (!made.ok()) {                                                     \
      GTEST_SKIP() << BackendKindName(GetParam())                         \
                   << " unavailable here: " << made.status().ToString();  \
    }                                                                     \
    var = std::move(made).value();                                        \
  }

TEST_P(BackendConformanceTest, SyncRoundTrip) {
  BackendFileOptions opts;
  opts.path = NewPath("rt");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0xA7), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(5, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST_P(BackendConformanceTest, ReadBeforeWriteRejected) {
  BackendFileOptions opts;
  opts.path = NewPath("rbw");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x11), r(kBlock);
  EXPECT_FALSE(backend->ReadBlock(0, r.data()).ok());
  // A write at 5 leaves 0..4 unwritten; the hole must still be rejected.
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(3, r.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(5, r.data()).ok());
}

TEST_P(BackendConformanceTest, OverwriteReplaces) {
  BackendFileOptions opts;
  opts.path = NewPath("ow");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer a = PatternBlock(1), b = PatternBlock(2), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(0, a.data()).ok());
  ASSERT_TRUE(backend->WriteBlock(0, b.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(0, r.data()).ok());
  EXPECT_EQ(r.data()[17], 2);
}

TEST_P(BackendConformanceTest, SubmitReapBatchAtQueueDepth) {
  BackendFileOptions opts;
  opts.path = NewPath("batch");
  opts.queue_depth = 8;
  MAKE_BACKEND_OR_SKIP(backend, opts);
  EXPECT_GE(backend->queue_capacity(), 1u);

  // Fill the device queue with writes, then reap them all.
  constexpr int kOps = 24;
  std::vector<AlignedBuffer> bufs;
  for (int i = 0; i < kOps; ++i) {
    bufs.push_back(PatternBlock(static_cast<uint8_t>(i + 1)));
  }
  std::vector<IoCompletion> done;
  size_t submitted = 0, reaped = 0;
  while (submitted < kOps || reaped < kOps) {
    bool progressed = false;
    while (submitted < kOps) {
      IoOp op;
      op.is_write = true;
      op.block = submitted;
      op.write_buf = bufs[submitted].data();
      op.user_data = submitted;
      if (!backend->Submit(op)) break;  // device queue full
      ++submitted;
      progressed = true;
    }
    done.clear();
    size_t n = backend->Reap(&done, /*wait=*/!progressed);
    reaped += n;
    for (const IoCompletion& c : done) {
      EXPECT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_LT(c.user_data, static_cast<uint64_t>(kOps));
    }
  }
  EXPECT_EQ(reaped, static_cast<size_t>(kOps));
  // Nothing in flight: a blocking reap must return 0, not hang.
  done.clear();
  EXPECT_EQ(backend->Reap(&done, /*wait=*/true), 0u);

  // Reads at depth verify every block's payload.
  std::vector<AlignedBuffer> reads(kOps);
  for (int i = 0; i < kOps; ++i) reads[i] = AlignedBuffer(kBlock);
  submitted = 0;
  reaped = 0;
  while (submitted < kOps || reaped < kOps) {
    bool progressed = false;
    while (submitted < kOps) {
      IoOp op;
      op.block = submitted;
      op.read_buf = reads[submitted].data();
      op.user_data = submitted;
      if (!backend->Submit(op)) break;
      ++submitted;
      progressed = true;
    }
    done.clear();
    size_t n = backend->Reap(&done, /*wait=*/!progressed);
    reaped += n;
    for (const IoCompletion& c : done) {
      ASSERT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_EQ(reads[c.user_data].data()[40],
                static_cast<uint8_t>(c.user_data + 1));
    }
  }
}

TEST_P(BackendConformanceTest, FlushSucceedsWithNothingInFlight) {
  BackendFileOptions opts;
  opts.path = NewPath("flush");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x77);
  ASSERT_TRUE(backend->WriteBlock(2, w.data()).ok());
  EXPECT_TRUE(backend->Flush().ok());
}

TEST_P(BackendConformanceTest, TrustOnlyMasksUnlistedBlocks) {
  if (!IsFileBacked(GetParam())) {
    GTEST_SKIP() << "TrustOnly is the recovery contract of the "
                    "file-backed kinds";
  }
  BackendFileOptions opts;
  opts.path = NewPath("trust");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x55), r(kBlock);
  for (uint64_t b = 0; b < 6; ++b) {
    ASSERT_TRUE(backend->WriteBlock(b, w.data()).ok());
  }
  backend->TrustOnly({1, 4});
  EXPECT_TRUE(backend->ReadBlock(1, r.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(4, r.data()).ok());
  // Untrusted blocks read as never-written even though their bytes exist.
  EXPECT_FALSE(backend->ReadBlock(0, r.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(3, r.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(5, r.data()).ok());
  // Rewriting an untrusted block re-earns trust.
  ASSERT_TRUE(backend->WriteBlock(3, w.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(3, r.data()).ok());
}

TEST_P(BackendConformanceTest, FlushThenReopenPreservesContents) {
  if (!IsFileBacked(GetParam())) {
    GTEST_SKIP() << "reopen durability applies to the file-backed kinds";
  }
  std::string path = NewPath("reopen");
  std::filesystem::remove(path);
  {
    BackendFileOptions opts;
    opts.path = path;
    opts.unlink_on_close = false;
    MAKE_BACKEND_OR_SKIP(backend, opts);
    AlignedBuffer a = PatternBlock(0x61), b = PatternBlock(0x62);
    ASSERT_TRUE(backend->WriteBlock(0, a.data()).ok());
    ASSERT_TRUE(backend->WriteBlock(3, b.data()).ok());
    ASSERT_TRUE(backend->Flush().ok());
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    BackendFileOptions opts;
    opts.path = path;
    opts.unlink_on_close = false;
    opts.reuse_existing = true;
    MAKE_BACKEND_OR_SKIP(backend, opts);
    AlignedBuffer r(kBlock);
    ASSERT_TRUE(backend->ReadBlock(0, r.data()).ok());
    EXPECT_EQ(r.data()[9], 0x61);
    ASSERT_TRUE(backend->ReadBlock(3, r.data()).ok());
    EXPECT_EQ(r.data()[9], 0x62);
    // Beyond the reopened extent: never written.
    EXPECT_FALSE(backend->ReadBlock(64, r.data()).ok());
  }
  std::filesystem::remove(path);
}

TEST_P(BackendConformanceTest, VirtualDiskServesInlineWhenBackendCompletesInMemory) {
  // Memory and file complete in memory, so a VirtualDisk over them
  // settles each request before ReadAsync / WriteAsync returns. The other
  // kinds keep the pump, which on uring drives the device queue past 1.
  BackendFileOptions opts;
  opts.path = NewPath("vdisk");
  opts.queue_depth = 8;
  MAKE_BACKEND_OR_SKIP(backend, opts);
  const BackendKind kind = GetParam();
  const bool in_memory =
      kind == BackendKind::kMemory || kind == BackendKind::kFile;
  EXPECT_EQ(backend->completes_in_memory(), in_memory);
  VirtualDisk disk(std::move(backend), {});
  EXPECT_EQ(disk.serves_inline(), in_memory);

  constexpr int kOps = 32;
  std::vector<AlignedBuffer> writes, reads;
  std::vector<Request> requests;
  for (int i = 0; i < kOps; ++i) {
    writes.push_back(PatternBlock(static_cast<uint8_t>(i + 1)));
    requests.push_back(disk.WriteAsync(i, writes.back().data()));
    if (in_memory) {
      EXPECT_TRUE(requests.back().done()) << "write " << i;
    }
  }
  WaitAllOk(requests);
  requests.clear();
  for (int i = 0; i < kOps; ++i) {
    reads.emplace_back(kBlock);
    requests.push_back(disk.ReadAsync(i, reads.back().data()));
    if (in_memory) {
      EXPECT_TRUE(requests.back().done()) << "read " << i;
    }
  }
  WaitAllOk(requests);
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(reads[i].data()[40], static_cast<uint8_t>(i + 1));
  }
  if (kind == BackendKind::kUring) {
    EXPECT_GT(disk.Stats().queue_depth_peak, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformanceTest,
                         ::testing::Values(BackendKind::kMemory,
                                           BackendKind::kFile,
                                           BackendKind::kDirect,
                                           BackendKind::kUring),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// --------------------------------------------------- queue-depth gauges ----

TEST(VirtualDiskTest, QueueDepthGaugesPopulate) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 8; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  disk.Drain();
  IoStatsSnapshot stats = disk.Stats();
  EXPECT_GE(stats.queue_depth_peak, 1u);
  EXPECT_GE(stats.queue_depth_sum, stats.writes);
  EXPECT_GT(stats.submit_complete_ns, 0u);
  EXPECT_GE(stats.mean_queue_depth(), 1.0);

  disk.ResetQueueDepthPeak();
  EXPECT_EQ(disk.Stats().queue_depth_peak, 0u);
}

TEST(VirtualDiskTest, FlushDrainsAndSucceeds) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(2);
  std::vector<Request> reqs;
  for (uint64_t b = 0; b < 16; ++b) {
    reqs.push_back(disk.WriteAsync(b, buf.data()));
  }
  EXPECT_TRUE(disk.Flush().ok());
  for (Request& r : reqs) EXPECT_TRUE(r.done());
}

TEST(RequestTest, WaitAllReportsFirstErrorAfterAllComplete) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer w = PatternBlock(3), r(kBlock);
  disk.WriteAsync(0, w.data()).WaitOk();
  std::vector<Request> reqs;
  reqs.push_back(disk.ReadAsync(0, r.data()));
  reqs.push_back(disk.ReadAsync(99, r.data()));  // never written: fails
  reqs.push_back(disk.ReadAsync(0, r.data()));
  Status s = WaitAll(reqs);
  EXPECT_FALSE(s.ok());
  // Every request settled even though one failed — WaitAll must not
  // abandon in-flight requests on the first error.
  for (Request& req : reqs) EXPECT_TRUE(req.done());
}

}  // namespace
}  // namespace demsort::io
