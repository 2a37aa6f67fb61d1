// PeContext: the bundle of per-PE resources every pipeline phase receives —
// its communicator, its local disks, and its local thread pool.
#ifndef DEMSORT_CORE_PE_CONTEXT_H_
#define DEMSORT_CORE_PE_CONTEXT_H_

#include <memory>

#include "core/config.h"
#include "io/block_manager.h"
#include "net/comm.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace demsort::core {

struct PeContext {
  net::Comm* comm = nullptr;
  io::BlockManager* bm = nullptr;
  par::ThreadPool* pool = nullptr;

  int rank() const { return comm->rank(); }
  int num_pes() const { return comm->size(); }
};

/// Owning variant for harnesses: builds a PE's BlockManager and ThreadPool
/// from a SortConfig. (The Comm comes from the Cluster.)
class PeResources {
 public:
  /// `reuse_files` is the recovery re-entry path: reopen the durable disk
  /// files of a prior epoch instead of truncating fresh scratch.
  PeResources(net::Comm* comm, const SortConfig& config,
              bool reuse_files = false) {
    // Fails before any disk or pool thread starts (e.g. a wrapped count).
    DEMSORT_CHECK_OK(config.Validate());
    io::BlockManager::Options options;
    options.num_disks = config.disks_per_pe;
    options.block_size = config.block_size;
    options.backend = config.backend;
    options.file_dir = config.file_dir;
    options.pe_id = comm->rank();
    options.async = config.async_io;
    options.queue_depth = config.io_queue_depth;
    options.model = config.disk_model;
    options.durable_files = !config.checkpoint_dir.empty();
    options.reuse_files = reuse_files;
    // Span-trace attribution: PeResources is built on the PE's own thread,
    // so this stamps the PE main thread; the pool stamps its workers, and
    // each disk its trace track, with the same rank.
    TRACE_THREAD_RANK(comm->rank());
    TRACE_THREAD_NAME("pe");
    bm_ = std::make_unique<io::BlockManager>(options);
    pool_ =
        std::make_unique<par::ThreadPool>(config.threads_per_pe, comm->rank());
    ctx_.comm = comm;
    ctx_.bm = bm_.get();
    ctx_.pool = pool_.get();
  }

  PeContext& ctx() { return ctx_; }

 private:
  std::unique_ptr<io::BlockManager> bm_;
  std::unique_ptr<par::ThreadPool> pool_;
  PeContext ctx_;
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_PE_CONTEXT_H_
