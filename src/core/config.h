// SortConfig: every tunable of the sorting pipeline in one place, mirroring
// the parameters of the paper (Table I plus implementation knobs of §V-VI).
#ifndef DEMSORT_CORE_CONFIG_H_
#define DEMSORT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "io/block_manager.h"
#include "io/io_stats.h"
#include "net/message.h"
#include "util/status.h"

namespace demsort::core {

struct SortConfig {
  // ----------------------------------------------------------- EM model --
  /// B, in bytes (the paper uses 8 MiB on 16 GiB nodes; scale accordingly).
  size_t block_size = 64 * 1024;
  /// D per PE (the paper's nodes had 4 local disks).
  uint32_t disks_per_pe = 2;
  /// m = M/P, in bytes: the per-PE share of one run. R = ceil(N / (P*m)).
  size_t memory_per_pe = 2 * 1024 * 1024;

  // ---------------------------------------------------------- algorithm --
  /// §IV randomization: shuffle local input block IDs before run formation.
  bool randomize_blocks = true;
  uint64_t seed = 12345;
  /// Sample every K-th element of each run piece for selection/prediction;
  /// 0 means once per block (K = elements per block — Appendix B's choice).
  size_t sample_every_k = 0;
  /// Per-sub-step memory budget of the external all-to-all (§IV-C), bytes;
  /// 0 means memory_per_pe.
  size_t alltoall_budget = 0;
  /// Chunk of the streaming exchanges (external all-to-all, window
  /// redistribution, selection gathers): each destination's payload travels
  /// as bounded chunks the receiver unpacks as they land, so receive-side
  /// buffering is O(chunk x sources) instead of O(sub-step payload).
  /// 0 = net::Comm::kDefaultStreamChunkBytes. This is the INITIAL chunk;
  /// the controller resizes within [min, max] below.
  size_t stream_chunk_bytes = 0;
  /// Chunk bounds; 0 = auto (stream_chunk_bytes divided / multiplied by
  /// net::kStreamAutoRangeFactor). min == max fixes the chunk size.
  size_t stream_chunk_min_bytes = 0;
  size_t stream_chunk_max_bytes = 0;
  /// Prefetch buffer pool size in blocks; 0 = auto. With W merge workers the
  /// pool is split across partitions (floor: 2 blocks per live run per
  /// worker).
  size_t prefetch_buffers = 0;
  /// Overlap I/O with sorting during run formation (§IV-E Overlapping).
  bool overlap_run_formation = true;
  /// Cache capacity (blocks) of the selection block cache (§IV-A "we cache
  /// the most recently accessed disk blocks").
  size_t selection_cache_blocks = 64;

  // ---------------------------------------------------------- substrate --
  /// Worker threads per PE for intra-PE parallelism (the paper's 8 cores).
  uint32_t threads_per_pe = 1;
  bool async_io = true;
  io::BlockManager::BackendKind backend =
      io::BlockManager::BackendKind::kMemory;
  std::string file_dir;  // for the file-backed backends
  /// Stripes per disk: each disk's blocks fan out over this many files, so
  /// one "disk" drives K independent NVMe queues (file-backed kinds only).
  uint32_t files_per_disk = 1;
  /// Per-disk target I/O queue depth; 0 = the backend's own capacity
  /// (1 for the inline backends, the SQ depth for uring).
  size_t io_queue_depth = 0;
  io::DiskModel disk_model;

  // ----------------------------------------------------------- recovery --
  /// Directory for per-rank checkpoint manifests. Empty disables recovery.
  /// Requires the file backend: a resumed epoch re-opens the durable disk
  /// files the manifests describe.
  std::string checkpoint_dir;

  /// Elements per block for record type R (floor; partial use for types that
  /// do not divide the block size, e.g. 100-byte records in binary blocks).
  template <typename R>
  size_t ElementsPerBlock() const {
    return block_size / sizeof(R);
  }
  template <typename R>
  size_t ElementsPerPeMemory() const {
    return memory_per_pe / sizeof(R);
  }

  /// The streaming-collective tuning the config's knobs describe, with
  /// chunk boundaries aligned to `align_bytes` (the record size of typed
  /// streams; 1 for byte streams whose consumers handle any split).
  net::StreamOptions StreamOptionsFor(size_t align_bytes) const {
    net::StreamOptions options;
    options.chunk_bytes = stream_chunk_bytes;
    options.align_bytes = align_bytes;
    options.min_chunk_bytes = stream_chunk_min_bytes;
    options.max_chunk_bytes = stream_chunk_max_bytes;
    return options;
  }

  Status Validate() const {
    if (block_size == 0) return Status::InvalidArgument("block_size == 0");
    if (disks_per_pe == 0) return Status::InvalidArgument("disks_per_pe == 0");
    if (memory_per_pe < 2 * block_size) {
      return Status::InvalidArgument(
          "memory_per_pe must hold at least two blocks");
    }
    if (files_per_disk == 0) {
      return Status::InvalidArgument("files_per_disk == 0");
    }
    if (io::IsFileBacked(backend) && file_dir.empty()) {
      return Status::InvalidArgument(
          std::string("storage backend '") + io::BackendKindName(backend) +
          "' requires file_dir");
    }
    if (backend == io::BackendKind::kDirect &&
        block_size % io::kBlockAlign != 0) {
      return Status::InvalidArgument(
          "O_DIRECT requires block_size to be a multiple of " +
          std::to_string(io::kBlockAlign));
    }
    return Status::OK();
  }
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_CONFIG_H_
