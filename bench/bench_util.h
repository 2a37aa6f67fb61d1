// Shared harness for the figure/table reproductions.
//
// Geometry scaling (documented in DESIGN.md): the paper sorts 100 GiB/PE
// with 16-byte elements, B = 8 MiB blocks, m = 2^34 bytes of node memory and
// D = 4 disks/node. We shrink every length by ~2^11 while preserving the
// ratios that drive the algorithm's regimes:
//   B = 4 KiB, m = 512 KiB (=> m/B = 128 blocks of memory per PE),
//   N/PE = 2 MiB (=> R = N/M = 4 runs, paper ~6),
//   seek/transfer ratio of the disk model preserved by scaling seek time
//   with the block size.
// Times are reported two ways: real wall milliseconds of the emulation
// (meaningless vs the paper, 2 cores emulate everything) and modeled
// seconds from sim::CostModel applied to the *exactly measured* per-phase
// I/O and communication volumes.
#ifndef DEMSORT_BENCH_BENCH_UTIL_H_
#define DEMSORT_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "io/backend.h"
#include "io/block_manager.h"
#include "net/cluster.h"
#include "net/tcp_transport.h"
#include "sim/cost_model.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace demsort::bench {

inline core::SortConfig FigureConfig(size_t block_size = 4 * 1024) {
  core::SortConfig config;
  config.block_size = block_size;
  config.memory_per_pe = 512 * 1024;
  config.disks_per_pe = 4;
  config.threads_per_pe = 1;
  config.async_io = false;  // identical semantics; keeps 64-PE sweeps lean
  config.seed = 20091014;   // arXiv date of the paper
  // The scaled testbed's disk: all lengths shrink by 2048 (8 MiB -> 4 KiB
  // reference block), so the seek time shrinks by the same factor — and
  // stays FIXED when a bench sweeps the block size, exactly like a physical
  // disk would (smaller blocks => more seeks => worse throughput).
  config.disk_model.seek_ms = 12.0 / 2048.0;
  config.disk_model.mib_per_s = 67.0;
  return config;
}

struct SortRunResult {
  std::vector<core::SortReport> reports;
  double wall_ms = 0;
  bool valid = false;
  uint64_t total_elements = 0;
};

/// How a bench run drives its PEs over the substrate. A PE or link failure
/// during a measured run propagates out of RunCanonical as net::CommError
/// (rethrown by the cluster harness) — a bench never hangs on a dead PE;
/// the TCP mesh setup is likewise bounded by the connect deadline.
struct RunOptions {
  net::TransportKind transport = net::TransportKind::kInProc;
  /// In-process fabric (per-channel cap) or hier (node-uplink channel
  /// cap): in-flight byte bound, 0 = off.
  size_t channel_cap_bytes = 0;
  /// TCP (reader-thread mailbox watermark) or hier (demux pause
  /// watermark): 0 = drain eagerly.
  size_t tcp_recv_watermark_bytes = 0;
  /// TCP only: mesh-setup deadline (0 = wait forever).
  int64_t tcp_connect_timeout_ms = 30'000;
  /// Hier only: PEs per emulated node (0 = the default of 2).
  int pes_per_node = 0;
  /// Outstanding-lease cap of each endpoint's frame-buffer pool
  /// (net::BufferPool); 0 = unbounded.
  size_t pool_budget_bytes = 0;
};

/// Parses --transport / --channel-cap / --recv-watermark /
/// --connect-timeout-ms / --pes-per-node / --pool-budget; a bad value
/// aborts the bench (a silent inproc fallback would mislabel every
/// measured number).
inline RunOptions RunOptionsFromFlags(const FlagParser& flags) {
  RunOptions options;
  auto kind = net::ParseTransportKind(flags.GetString("transport", "inproc"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    std::exit(2);
  }
  options.transport = kind.value();
  int64_t cap = ParseSize(flags.GetString("channel-cap", "0"));
  if (cap < 0) {
    std::fprintf(stderr, "--channel-cap must be >= 0\n");
    std::exit(2);
  }
  options.channel_cap_bytes = static_cast<size_t>(cap);
  if (options.transport == net::TransportKind::kTcp &&
      options.channel_cap_bytes != 0) {
    std::fprintf(stderr,
                 "--channel-cap applies to the in-process fabric and the "
                 "hier uplink only\n");
    std::exit(2);
  }
  int64_t watermark = ParseSize(flags.GetString("recv-watermark", "0"));
  if (watermark < 0) {
    std::fprintf(stderr, "--recv-watermark must be >= 0\n");
    std::exit(2);
  }
  options.tcp_recv_watermark_bytes = static_cast<size_t>(watermark);
  if (options.transport == net::TransportKind::kInProc &&
      options.tcp_recv_watermark_bytes != 0) {
    std::fprintf(stderr,
                 "--recv-watermark applies to the tcp and hier transports "
                 "only\n");
    std::exit(2);
  }
  int64_t pes_per_node = flags.GetInt("pes-per-node", 0);
  if (pes_per_node < 0 ||
      (pes_per_node != 0 && options.transport != net::TransportKind::kHier)) {
    std::fprintf(stderr,
                 "--pes-per-node applies to the hier transport only\n");
    std::exit(2);
  }
  options.pes_per_node = static_cast<int>(pes_per_node);
  int64_t connect_timeout =
      flags.GetInt("connect-timeout-ms", options.tcp_connect_timeout_ms);
  if (connect_timeout < 0) {
    std::fprintf(stderr, "--connect-timeout-ms must be >= 0\n");
    std::exit(2);
  }
  options.tcp_connect_timeout_ms = connect_timeout;
  int64_t pool_budget = ParseSize(flags.GetString("pool-budget", "0"));
  if (pool_budget < 0) {
    std::fprintf(stderr, "--pool-budget must be >= 0\n");
    std::exit(2);
  }
  options.pool_budget_bytes = static_cast<size_t>(pool_budget);
  return options;
}

/// Parses --storage={memory,file,direct,uring,mmap}, --file-dir=DIR,
/// --files-per-disk=K and --queue-depth=N into `config`. A malformed value
/// aborts the bench; a backend the HOST cannot serve (O_DIRECT on tmpfs,
/// io_uring filtered or compiled out) prints a '# storage ... unavailable'
/// marker and returns false — callers exit 0 so sweep scripts record a
/// skip, not a failure.
inline bool ApplyStorageFlags(const FlagParser& flags,
                              core::SortConfig* config) {
  std::string storage = flags.GetString("storage", "");
  if (!storage.empty()) {
    auto kind = io::ParseBackendKind(storage);
    if (!kind.ok()) {
      std::fprintf(stderr, "--storage: %s\n",
                   kind.status().ToString().c_str());
      std::exit(2);
    }
    config->backend = kind.value();
  }
  config->files_per_disk = static_cast<uint32_t>(
      flags.GetInt("files-per-disk", config->files_per_disk));
  config->io_queue_depth =
      static_cast<size_t>(flags.GetInt("queue-depth", 0));
  if (io::IsFileBacked(config->backend)) {
    config->file_dir = flags.GetString("file-dir", "/tmp/demsort_bench");
    if (::mkdir(config->file_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "--file-dir %s: %s\n", config->file_dir.c_str(),
                   std::strerror(errno));
      std::exit(2);
    }
    Status probe = io::BlockManager::ProbeBackend(
        config->backend, config->block_size, config->file_dir);
    if (!probe.ok()) {
      std::printf("# storage=%s unavailable: %s\n",
                  io::BackendKindName(config->backend),
                  probe.ToString().c_str());
      return false;
    }
  }
  return true;
}

/// Runs CANONICALMERGESORT on P emulated PEs and validates the output.
inline SortRunResult RunCanonical(int num_pes, workload::Distribution dist,
                                  const core::SortConfig& config,
                                  uint64_t elements_per_pe,
                                  const RunOptions& run_options = {}) {
  SortRunResult result;
  // Credit frames share the socket with data frames; a watermark below one
  // credit window lets the reader pause with a credit queued behind data,
  // throttling the streamed exchanges (see TcpTransport::Options). The
  // window is sized from the LARGEST chunk the adaptive controller may
  // grow to, not the configured initial chunk — and on the hierarchical
  // transport by the number of PEs SHARING the node's uplink endpoint,
  // whose flows all land behind the same demux pause: a per-PE-sized
  // watermark would silently under-provision the node endpoint.
  if (run_options.tcp_recv_watermark_bytes != 0 ||
      run_options.pool_budget_bytes != 0) {
    size_t chunk = config.stream_chunk_bytes != 0
                       ? config.stream_chunk_bytes
                       : net::Comm::kDefaultStreamChunkBytes;
    size_t max_chunk = config.stream_chunk_max_bytes != 0
                           ? config.stream_chunk_max_bytes
                           : chunk * net::kStreamAutoRangeFactor;
    size_t pes_per_uplink =
        run_options.transport == net::TransportKind::kHier
            ? static_cast<size_t>(
                  run_options.pes_per_node > 0 ? run_options.pes_per_node : 2)
            : 1;
    size_t credit_window = net::Comm::kStreamSendCreditChunks *
                           (max_chunk + sizeof(net::StreamChunkHeader)) *
                           pes_per_uplink;
    if ((run_options.transport == net::TransportKind::kTcp ||
         run_options.transport == net::TransportKind::kHier) &&
        run_options.tcp_recv_watermark_bytes != 0 &&
        run_options.tcp_recv_watermark_bytes < credit_window) {
      std::fprintf(stderr,
                   "warning: --recv-watermark=%zu is below the streaming "
                   "credit window (%zu bytes = %llu chunks x %zu max x %zu "
                   "PE(s) per uplink); credit frames may stall behind "
                   "paused reads\n",
                   run_options.tcp_recv_watermark_bytes, credit_window,
                   static_cast<unsigned long long>(
                       net::Comm::kStreamSendCreditChunks),
                   max_chunk, pes_per_uplink);
    }
    // The pool budget gates frame LEASES like the watermark gates frame
    // delivery: with a watermark pause holding up to a watermark's worth
    // of leased frames undrained, the sender still needs a credit window
    // of fresh leases to keep the exchange moving. A budget below the sum
    // can park every leased byte behind the pause while the sender blocks
    // in Lease — a stall no credit message can break.
    if (run_options.pool_budget_bytes != 0 &&
        run_options.pool_budget_bytes <
            run_options.tcp_recv_watermark_bytes + credit_window) {
      std::fprintf(stderr,
                   "warning: --pool-budget=%zu is below the recv watermark "
                   "(%zu) plus one streaming credit window (%zu bytes); "
                   "frame leases may stall behind paused deliveries\n",
                   run_options.pool_budget_bytes,
                   run_options.tcp_recv_watermark_bytes, credit_window);
    }
  }
  result.reports.resize(num_pes);
  std::mutex mu;
  bool all_valid = true;
  int64_t start = NowNanos();
  auto body = [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      comm.rank(), num_pes, config.seed);
    core::SortOutput<core::KV16> out =
        core::CanonicalMergeSort<core::KV16>(ctx, config, gen.input);
    auto v = workload::ValidateCollective<core::KV16>(
        ctx, out.blocks, out.num_elements, gen.checksum);
    std::lock_guard<std::mutex> lock(mu);
    result.reports[comm.rank()] = out.report;
    if (!v.ok() || !v.partition_exact) all_valid = false;
  };
  net::Cluster::Options cluster_options;
  cluster_options.num_pes = num_pes;
  cluster_options.channel_cap_bytes = run_options.channel_cap_bytes;
  cluster_options.tcp_recv_watermark_bytes =
      run_options.tcp_recv_watermark_bytes;
  cluster_options.tcp_connect_timeout_ms =
      run_options.tcp_connect_timeout_ms;
  cluster_options.pes_per_node = run_options.pes_per_node;
  cluster_options.pool_budget_bytes = run_options.pool_budget_bytes;
  net::RunOverTransport(run_options.transport, cluster_options, body);
  result.wall_ms = (NowNanos() - start) * 1e-6;
  result.valid = all_valid;
  result.total_elements = static_cast<uint64_t>(num_pes) * elements_per_pe;
  return result;
}

/// Peak receive-side network buffering of a run: max over PEs and phases
/// of the transport's delivered-but-unconsumed bytes — the footprint the
/// streaming exchanges bound at O(chunk x sources).
inline uint64_t PeakNetBufferBytes(const SortRunResult& run) {
  uint64_t peak = 0;
  for (const core::SortReport& report : run.reports) {
    for (int p = 0; p < static_cast<int>(core::Phase::kNumPhases); ++p) {
      peak = std::max(
          peak,
          report.Get(static_cast<core::Phase>(p)).net.recv_buffer_peak_bytes);
    }
  }
  return peak;
}

/// Prints one figure row: modeled per-phase seconds + totals.
inline void PrintPhaseHeader() {
  std::printf("%4s  %12s  %10s  %10s  %11s  %9s  %12s  %12s  %6s\n", "P",
              "run_form_s", "select_s", "alltoall_s", "final_mrg_s",
              "total_s", "emul_wall_ms", "netbuf_KiB", "valid");
}

inline void PrintPhaseRow(int num_pes, const SortRunResult& run,
                          const sim::CostModel& model) {
  double phase_s[4];
  double total = 0;
  for (int p = 0; p < 4; ++p) {
    phase_s[p] =
        model
            .ClusterPhaseSeconds(static_cast<core::Phase>(p), run.reports)
            .total_s;
    total += phase_s[p];
  }
  std::printf(
      "%4d  %12.3f  %10.4f  %10.3f  %11.3f  %9.3f  %12.0f  %12.1f  %6s\n",
      num_pes, phase_s[0], phase_s[1], phase_s[2], phase_s[3], total,
      run.wall_ms, static_cast<double>(PeakNetBufferBytes(run)) / 1024.0,
      run.valid ? "yes" : "NO");
}

/// Standard weak-scaling PE list (paper: 1..64), trimmed by --max-pes.
inline std::vector<int> PeSweep(const FlagParser& flags,
                                int default_max = 64) {
  int max_pes = static_cast<int>(flags.GetInt("max-pes", default_max));
  std::vector<int> pes;
  for (int p = 1; p <= max_pes; p *= 2) pes.push_back(p);
  return pes;
}

}  // namespace demsort::bench

#endif  // DEMSORT_BENCH_BENCH_UTIL_H_
