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

/// The figure benches' --elements-per-pe (default 2 MiB of KV16) and
/// --block-size (default 4 KiB), range-checked before any narrowing cast;
/// exits 2 on a value out of range.
struct FigureSize {
  uint64_t elements_per_pe;
  size_t block_size;
};
inline FigureSize FigureSizeFromFlags(const FlagParser& flags) {
  const auto elements =
      flags.GetIntInRange("elements-per-pe", (2 << 20) / 16, 0, INT64_MAX);
  const auto block_size =
      flags.GetIntInRange("block-size", 4 * 1024, 1, INT64_MAX);
  if (!elements || !block_size) std::exit(2);
  return {static_cast<uint64_t>(*elements),
          static_cast<size_t>(*block_size)};
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
  /// TCP only: mesh-setup deadline (0 = wait forever).
  int64_t tcp_connect_timeout_ms = 30'000;
  /// Hier only: PEs per emulated node (0 = the default of 2).
  int pes_per_node = 0;
};

/// Parses --transport / --connect-timeout-ms / --pes-per-node; a bad value
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
  return options;
}

/// Parses --storage={memory,file,direct,uring}, --file-dir=DIR and
/// --queue-depth=N into `config`. A malformed value
/// aborts the bench; a backend the HOST cannot serve (O_DIRECT on tmpfs,
/// io_uring filtered or compiled out) prints a '# storage ... unavailable'
/// marker and returns false — callers exit 0 so a sweep over storage
/// kinds records a skip, not a failure.
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
  const auto queue_depth =
      flags.GetIntInRange("queue-depth", 0, 0, INT64_MAX);
  if (!queue_depth) std::exit(2);
  config->io_queue_depth = static_cast<size_t>(*queue_depth);
  // Read even when unused, so sweeps may pass one --file-dir to every
  // storage kind.
  const std::string file_dir =
      flags.GetString("file-dir", "/tmp/demsort_bench");
  if (io::IsFileBacked(config->backend)) {
    config->file_dir = file_dir;
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
  cluster_options.tcp_connect_timeout_ms =
      run_options.tcp_connect_timeout_ms;
  cluster_options.pes_per_node = run_options.pes_per_node;
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
