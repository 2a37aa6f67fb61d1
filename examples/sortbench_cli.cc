// sortbench_cli: a gensort/valsort-style pipeline for 100-byte SortBenchmark
// records — generate, sort (canonical or globally striped), validate, and
// report throughput, the workflow of the paper's §VI entries.
//
//   ./sortbench_cli --pes 8 --records-per-pe 50000 --algo canonical
//   ./sortbench_cli --algo striped --skewed
//   ./sortbench_cli --transport=tcp --pes 4     # PEs as separate processes
//   ./sortbench_cli --transport=hier --pes 8 --pes-per-node 2
//                                               # 4 node processes x 2 PE
//                                               # threads, one TCP uplink
//                                               # endpoint per node
//   ./sortbench_cli --stats                     # per-phase I/O, net volume,
//                                               # peak net buffering and the
//                                               # intra/inter-node split,
//                                               # I/O queue depth + latency
//   ./sortbench_cli --storage=uring --file-dir=/mnt/scratch
//                   --files-per-disk=4 --queue-depth=32
//                                               # real files, io_uring at
//                                               # QD 32, 4 stripe files per
//                                               # emulated disk (also:
//                                               # file, direct, mmap)
//   ./sortbench_cli --threads=4
//                                               # range-partitioned parallel
//                                               # final merge (see --stats'
//                                               # mrg_wrk/cpu/iow columns)
//   ./sortbench_cli --hosts=hosts.txt --rank=0  # one rank of a real
//                                               # cross-machine mesh
//   ./sortbench_cli --trace=trace.json          # merged per-rank span trace
//                                               # (open in Perfetto or
//                                               # chrome://tracing)
//   ./sortbench_cli --stats-json=stats.json     # straggler report as JSON:
//                                               # per-rank per-phase wall /
//                                               # IO / net distributions
//
// With --transport=tcp every PE is a forked OS process with its own address
// space, connected over loopback sockets through net::TcpTransport — the
// same sort code, nothing shared but messages. Reports and the validation
// verdict travel to rank 0 over the same transport.
//
// With --transport=hier the paper's two-level geometry runs for real: one
// forked OS process per NODE, each hosting --pes-per-node PE threads over
// net::HierarchicalTransport — same-node PEs exchange through shared
// memory, and ONE TcpTransport endpoint per node carries every cross-node
// flow, so N nodes hold an N-endpoint mesh (N*(N-1) directed channels)
// instead of a P-endpoint one.
//
// With --hosts=FILE (one "host:port" per line, rank = line number) the
// same command runs on every machine with its own --rank; the mesh
// rendezvouses by connect-retry within --connect-timeout-ms, so start
// order is arbitrary and a machine that never comes up is a clean error.
// Lines may carry slot counts ("host:port xK"): the file then describes
// the NODES of the hierarchical transport — --rank names the line (node),
// and that machine runs the node's K PE threads behind one endpoint.
// A peer dying mid-sort surfaces as net::CommError and exit code 3 on the
// survivors — never a hang.
//
// With --recover --checkpoint-dir=DIR the canonical sort checkpoints at
// every phase boundary (core/recovery.h) and the launcher supervises: when
// a launch dies with the peer-failure code, everything is torn down and
// relaunched with exponential backoff, and each rank resumes from its
// manifest — completed phases are skipped by re-opening their run files.
// Budget spent (--max-restarts) re-raises the original failure.
#include <csignal>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "core/canonical_mergesort.h"
#include "core/recovery.h"
#include "core/striped_mergesort.h"
#include "net/cluster.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"
#include "net/topology.h"
#include "obs/straggler.h"
#include "obs/trace.h"
#include "obs/trace_gather.h"
#include "sim/cost_model.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace {

using namespace demsort;

struct CliOptions {
  int pes = 8;
  uint64_t records = 50000;
  std::string algo = "canonical";
  bool skewed = false;
  bool stats = false;
  net::TransportKind transport = net::TransportKind::kInProc;
  /// Hier transport: PEs per node of the two-level machine (the paper ran
  /// 2 PEs/node behind one network interface).
  int pes_per_node = 2;
  /// Cross-machine mode: rank→host:port list (one per line) and this
  /// process's rank. Every machine runs the same command with its own
  /// --rank; the mesh rendezvouses by connect-retry within the deadline.
  std::string hosts_file;
  int rank = -1;
  int64_t connect_timeout_ms = 30'000;
  /// --recover: checkpoint at phase boundaries (config.checkpoint_dir) and
  /// supervise the launch — relaunch with backoff on a peer failure, resume
  /// every rank from its manifest, escalate after the restart budget.
  bool recover = false;
  int max_restarts = 3;
  /// --trace=FILE: record span traces on every rank and merge them into one
  /// Chrome trace-event JSON at rank 0 (load in Perfetto). Collection runs
  /// after validation, outside the benchmarked phases.
  std::string trace_file;
  /// --stats-json=FILE: rank 0 writes the per-rank straggler report
  /// (per-phase wall/IO/net distributions + the full metric schema walk).
  std::string stats_json;
  core::SortConfig config;
};

struct PeOutcome {
  core::SortReport report;
  bool ok = false;
};
static_assert(std::is_trivially_copyable_v<core::SortReport>);

/// Checkpointed variant of the SPMD body: Prepare agrees on the cluster
/// resume phase before any per-epoch resources exist, Bind restores the
/// interrupted phase's state from the manifest, and the sort itself skips
/// every completed phase. Scratch epochs (resume 0) generate input as
/// usual; resumed epochs run on the re-opened files alone.
PeOutcome RunOnePeRecoverable(net::Comm& comm, const CliOptions& options) {
  core::RecoveryRuntime<core::Gray100> recovery(options.config, comm.rank(),
                                                comm.size());
  const int resume = recovery.Prepare(comm, options.records);
  core::PeResources resources(&comm, options.config,
                              /*reuse_files=*/resume > 0);
  core::PeContext& ctx = resources.ctx();
  recovery.Bind(ctx);
  core::LocalInput input;
  MultisetChecksum checksum;
  if (resume == 0) {
    auto gen = workload::GenerateGray100(ctx.bm, options.records, comm.rank(),
                                         comm.size(), options.config.seed,
                                         options.skewed);
    input = gen.input;
    checksum = gen.checksum;
    recovery.SetInputChecksum(checksum);
  } else {
    checksum = recovery.input_checksum();
  }
  auto out = core::CanonicalMergeSort<core::Gray100>(ctx, options.config,
                                                     input, &recovery);
  auto v = workload::ValidateCollective<core::Gray100>(
      ctx, out.blocks, out.num_elements, checksum);
  if (!options.trace_file.empty()) {
    obs::GatherTraceToRank0(comm, options.trace_file);
  }
  PeOutcome outcome;
  outcome.report = out.report;
  outcome.ok = v.ok();
  return outcome;
}

/// The SPMD body each PE runs, over whichever transport backs `comm`.
PeOutcome RunOnePe(net::Comm& comm, const CliOptions& options) {
  if (options.recover) return RunOnePeRecoverable(comm, options);
  core::PeResources resources(&comm, options.config);
  core::PeContext& ctx = resources.ctx();
  auto gen = workload::GenerateGray100(ctx.bm, options.records, comm.rank(),
                                       comm.size(), options.config.seed,
                                       options.skewed);
  workload::ValidationResult v;
  PeOutcome outcome;
  if (options.algo == "striped") {
    auto out = core::StripedMergeSort<core::Gray100>(ctx, options.config,
                                                     gen.input);
    v = workload::ValidateStripedCollective<core::Gray100>(
        ctx, out.stream.my_blocks, out.stream.total_elements, gen.checksum);
    outcome.report = out.report;
  } else {
    auto out = core::CanonicalMergeSort<core::Gray100>(ctx, options.config,
                                                       gen.input);
    v = workload::ValidateCollective<core::Gray100>(ctx, out.blocks,
                                                    out.num_elements,
                                                    gen.checksum);
    outcome.report = out.report;
  }
  if (!options.trace_file.empty()) {
    // Collective, and after validation: the trace wire traffic stays out of
    // every benchmarked phase.
    obs::GatherTraceToRank0(comm, options.trace_file);
  }
  outcome.ok = v.ok();
  return outcome;
}

/// --stats: per-phase cluster totals, including the peak receive-side
/// network buffering (max over PEs) — the number the streaming exchanges
/// keep at O(chunk x sources) instead of O(sub-step payload) — plus the
/// credit-protocol gauges: standalone credit messages vs credits that rode
/// data frames for free, and the adaptive controller's converged chunk.
void PrintPhaseStats(const std::vector<core::SortReport>& reports) {
  std::printf(
      "%-18s  %10s  %12s  %12s  %10s  %10s  %14s  %11s  %11s  %9s  %9s"
      "  %8s  %8s  %10s  %7s  %10s  %10s\n",
      "phase", "wall_max_s", "io_MiB", "net_out_MiB", "intra_MiB",
      "inter_MiB", "peak_netbuf_KiB", "credit_msgs", "piggy_creds",
      "chunk_KiB", "pool_hit%", "ioq_peak", "ioq_mean", "io_lat_us",
      "mrg_wrk", "mrg_cpu_ms", "mrg_iow_ms");
  for (int p = 0; p < static_cast<int>(core::Phase::kNumPhases); ++p) {
    core::Phase phase = static_cast<core::Phase>(p);
    double wall_max_s = 0;
    uint64_t io_bytes = 0;
    uint64_t net_bytes = 0;
    uint64_t intra_bytes = 0;
    uint64_t inter_bytes = 0;
    uint64_t peak_buf = 0;
    uint64_t credit_msgs = 0;
    uint64_t piggy = 0;
    uint64_t chunk = 0;
    uint64_t pool_leases = 0;
    uint64_t pool_hits = 0;
    uint64_t ioq_peak = 0;
    uint64_t ioq_sum = 0;
    uint64_t io_ops = 0;
    uint64_t io_lat_ns = 0;
    uint64_t merge_workers = 0;
    double merge_cpu_ms = 0;
    double merge_io_wait_ms = 0;
    for (const core::SortReport& r : reports) {
      const core::PhaseStats& s = r.Get(phase);
      wall_max_s = std::max(wall_max_s, s.wall_s);
      io_bytes += s.io.bytes();
      net_bytes += s.net.bytes_sent;
      intra_bytes += s.net.intra_node_bytes;
      inter_bytes += s.net.inter_node_bytes;
      peak_buf = std::max(peak_buf, s.net.recv_buffer_peak_bytes);
      credit_msgs += s.net.credit_msgs;
      piggy += s.net.piggybacked_credits;
      chunk = std::max(chunk, s.net.stream_chunk_bytes);
      pool_leases += s.net.pool_leases;
      pool_hits += s.net.pool_hits;
      ioq_peak = std::max(ioq_peak, s.io.queue_depth_peak);
      ioq_sum += s.io.queue_depth_sum;
      io_ops += s.io.reads + s.io.writes;
      io_lat_ns += s.io.submit_complete_ns;
      merge_workers = std::max(merge_workers, s.merge_workers);
      merge_cpu_ms += s.merge_cpu_ms;
      merge_io_wait_ms += s.merge_io_wait_ms;
    }
    std::printf(
        "%-18s  %10.3f  %12.1f  %12.1f  %10.1f  %10.1f  %14.1f  %11llu  "
        "%11llu  %9.1f  %9.1f  %8llu  %8.2f  %10.1f  %7llu  %10.1f  %10.1f\n",
        core::PhaseName(phase), wall_max_s,
        static_cast<double>(io_bytes) / (1 << 20),
        static_cast<double>(net_bytes) / (1 << 20),
        static_cast<double>(intra_bytes) / (1 << 20),
        static_cast<double>(inter_bytes) / (1 << 20),
        static_cast<double>(peak_buf) / 1024.0,
        static_cast<unsigned long long>(credit_msgs),
        static_cast<unsigned long long>(piggy),
        static_cast<double>(chunk) / 1024.0,
        100.0 * static_cast<double>(pool_hits) /
            static_cast<double>(std::max<uint64_t>(pool_leases, 1)),
        static_cast<unsigned long long>(ioq_peak),
        static_cast<double>(ioq_sum) /
            static_cast<double>(std::max<uint64_t>(io_ops, 1)),
        static_cast<double>(io_lat_ns) / 1e3 /
            static_cast<double>(std::max<uint64_t>(io_ops, 1)),
        static_cast<unsigned long long>(merge_workers), merge_cpu_ms,
        merge_io_wait_ms);
  }
}

/// --recover: the supervised-restart telemetry, aggregated over PEs the way
/// the gauges are defined (restarts/phases_replayed/recovery_wall_ms are
/// per-job maxima; checkpoint_bytes is a cluster-wide counter).
void PrintRecoveryStats(const std::vector<core::SortReport>& reports) {
  uint64_t restarts = 0, replayed = 0, ckpt_bytes = 0, wall_ms = 0;
  for (const core::SortReport& r : reports) {
    for (int p = 0; p < static_cast<int>(core::Phase::kNumPhases); ++p) {
      const core::PhaseStats& s = r.Get(static_cast<core::Phase>(p));
      restarts = std::max(restarts, s.net.restarts);
      replayed = std::max(replayed, s.net.phases_replayed);
      ckpt_bytes += s.net.checkpoint_bytes;
      wall_ms = std::max(wall_ms, s.net.recovery_wall_ms);
    }
  }
  std::printf(
      "recovery: restarts=%llu phases_replayed=%llu checkpoint_KiB=%.1f "
      "recovery_wall_ms=%llu\n",
      static_cast<unsigned long long>(restarts),
      static_cast<unsigned long long>(replayed),
      static_cast<double>(ckpt_bytes) / 1024.0,
      static_cast<unsigned long long>(wall_ms));
}

void PrintSummary(const CliOptions& options,
                  const std::vector<core::SortReport>& reports, bool ok,
                  double wall_s) {
  sim::CostModel model;
  double modeled_s = model.TotalSeconds(reports);
  double gb =
      static_cast<double>(options.pes) * options.records * 100.0 / 1e9;
  std::printf("%s : sorted %.3f GB over %s transport\n", options.algo.c_str(),
              gb, net::TransportKindName(options.transport));
  std::printf("valsort : %s\n", ok ? "SUCCESS - all records in order, "
                                     "checksums match"
                                   : "FAILURE");
  double gb_per_min = gb / modeled_s * 60.0;
  std::printf(
      "timing  : emulation wall %.2f s | modeled on the paper's testbed "
      "%.3f s (%.1f GB/min, %.2f GB/min/node)\n",
      wall_s, modeled_s, gb_per_min, gb_per_min / options.pes);
  std::printf(
      "paper   : DEMSort GraySort 2009 = 564 GB/min on 195 nodes "
      "(2.89 GB/min/node)\n");
  if (options.recover) PrintRecoveryStats(reports);
  if (options.stats) {
    PrintPhaseStats(reports);
    std::printf("%s", obs::FormatStragglerTable(reports).c_str());
  }
  if (!options.stats_json.empty()) {
    if (!obs::WriteStatsJson(options.stats_json, reports, wall_s)) {
      std::fprintf(stderr, "--stats-json: cannot write %s\n",
                   options.stats_json.c_str());
    }
  }
}

/// Rank 0 gathers every PE's report and verdict over the transport itself
/// and prints the summary; the final barrier keeps teardown off the wire
/// while reports are still in flight. Shared by the flat TCP ranks and
/// the hierarchical node threads.
int GatherAndReport(net::Comm& comm, const CliOptions& options,
                    const PeOutcome& outcome, int64_t start_nanos) {
  constexpr int kReportTag = 1;
  constexpr int kOkTag = 2;
  int exit_code = 0;
  if (comm.rank() == 0) {
    std::vector<core::SortReport> reports(comm.size());
    reports[0] = outcome.report;
    bool ok = outcome.ok;
    for (int p = 1; p < comm.size(); ++p) {
      reports[p] = comm.RecvValue<core::SortReport>(p, kReportTag);
      // No short-circuit: every posted ok message must be drained.
      uint8_t peer_ok = comm.RecvValue<uint8_t>(p, kOkTag);
      ok = ok && peer_ok != 0;
    }
    double wall_s = (NowNanos() - start_nanos) * 1e-9;
    PrintSummary(options, reports, ok, wall_s);
    exit_code = ok ? 0 : 1;
  } else {
    comm.SendValue<core::SortReport>(0, kReportTag, outcome.report);
    comm.SendValue<uint8_t>(0, kOkTag, outcome.ok ? 1 : 0);
  }
  comm.Barrier();  // no teardown while a peer still exchanges reports
  return exit_code;
}

/// Threads-in-one-process mode (the emulation default).
int RunInProc(const CliOptions& options) {
  std::mutex mu;
  std::vector<core::SortReport> reports(options.pes);
  bool ok = true;
  int64_t start = NowNanos();
  try {
    net::Cluster::Run(options.pes, [&](net::Comm& comm) {
      PeOutcome outcome = RunOnePe(comm, options);
      std::lock_guard<std::mutex> lock(mu);
      reports[comm.rank()] = outcome.report;
      if (!outcome.ok) ok = false;
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sort failed: %s\n", e.what());
    if (!options.trace_file.empty()) {
      obs::WriteLocalTrace(options.trace_file + ".partial.json");
    }
    return 3;
  }
  double wall_s = (NowNanos() - start) * 1e-9;
  PrintSummary(options, reports, ok, wall_s);
  return ok ? 0 : 1;
}

int RunTcpRank(int rank, int num_pes, int listen_fd,
               const std::vector<net::TcpTransport::Peer>& peers,
               const CliOptions& options, int64_t start_nanos);
int RunHierNode(const net::Topology& topo, int node, int listen_fd,
                const std::vector<net::TcpTransport::Peer>& node_peers,
                const CliOptions& options, int64_t start_nanos);

/// Cross-machine mode (--hosts=FILE --rank=R): this process is one rank of
/// a real multi-node mesh. Each machine runs the same command; the
/// rendezvous is the hosts file (rank → host:port) plus connect-retry with
/// a deadline, so start order does not matter and a machine that never
/// shows up is a clean per-rank error within --connect-timeout-ms.
int RunHosts(const CliOptions& options) {
  auto peers = net::ParseHostsFile(options.hosts_file);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.status().ToString().c_str());
    return 2;
  }
  const int lines = static_cast<int>(peers.value().size());
  if (options.rank < 0 || options.rank >= lines) {
    std::fprintf(stderr,
                 "--rank must be in [0, %d) to match %s (got %d)\n", lines,
                 options.hosts_file.c_str(), options.rank);
    return 2;
  }
  auto listener = net::CreateListener(peers.value()[options.rank].port,
                                      /*backlog=*/lines);
  if (!listener.ok()) {
    std::fprintf(stderr, "rank %d: %s\n", options.rank,
                 listener.status().ToString().c_str());
    return 2;
  }
  net::Topology topo = net::TopologyFromPeers(peers.value());
  CliOptions opts = options;
  opts.pes = topo.num_pes();  // the hosts file, not --pes, defines the
                              // cluster
  if (topo.num_pes() != lines) {
    // Slotted hosts file (any line with xK > 1, even a single node): each
    // line is a NODE and --rank names the line; this machine runs that
    // node's PE threads behind one endpoint. Keying on the slot totals
    // rather than Topology::hierarchical() keeps a one-node "host:port xK"
    // file from silently collapsing to a 1-PE flat run.
    opts.transport = net::TransportKind::kHier;
    return RunHierNode(topo, opts.rank, listener.value().fd, peers.value(),
                       opts, NowNanos());
  }
  return RunTcpRank(opts.rank, lines, listener.value().fd, peers.value(),
                    opts, NowNanos());
}

/// One TCP rank, start to finish: mesh setup, the sort, report gathering
/// at rank 0, collective teardown. Shared by the forked loopback launcher
/// and the --hosts cross-machine mode. A peer failure surfaces as
/// net::CommError and exits with code 3 instead of hanging or aborting.
int RunTcpRank(int rank, int num_pes, int listen_fd,
               const std::vector<net::TcpTransport::Peer>& peers,
               const CliOptions& options, int64_t start_nanos) {
  net::TcpTransport::Options tcp_options;
  tcp_options.connect_timeout_ms = options.connect_timeout_ms;
  auto transport = net::TcpTransport::Connect(rank, num_pes, listen_fd,
                                              peers, tcp_options);
  if (!transport.ok()) {
    std::fprintf(stderr, "rank %d: %s\n", rank,
                 transport.status().ToString().c_str());
    return 2;
  }
  try {
    net::Comm comm(rank, num_pes, transport.value().get());
    PeOutcome outcome = RunOnePe(comm, options);
    return GatherAndReport(comm, options, outcome, start_nanos);
  } catch (const net::CommError& e) {
    // A peer died mid-sort: contain it — report, abort this endpoint so
    // OUR peers' waits cancel too, and exit with a distinct code.
    std::fprintf(stderr, "rank %d: peer failure: %s\n", rank, e.what());
    if (!options.trace_file.empty()) {
      // The collective gather is impossible now; save this process's own
      // events as a per-rank partial trace instead.
      obs::WriteLocalTrace(options.trace_file + ".rank" +
                           std::to_string(rank) + ".partial.json");
    }
    transport.value()->KillPe(rank, e.status());
    return 3;
  }
}

/// One NODE of the hierarchical deployment, start to finish: the node's
/// TCP uplink endpoint joins the N-node mesh, a HierarchicalTransport
/// fronts it for the node's PE threads, each thread runs the full SPMD
/// sort body, and teardown is collective. A peer failure surfaces as
/// net::CommError and exit code 3 — leader death takes the node, exactly
/// the containment contract of the thread harnesses.
int RunHierNode(const net::Topology& topo, int node, int listen_fd,
                const std::vector<net::TcpTransport::Peer>& node_peers,
                const CliOptions& options, int64_t start_nanos) {
  net::TcpTransport::Options tcp_options;
  tcp_options.connect_timeout_ms = options.connect_timeout_ms;
  auto uplink = net::TcpTransport::Connect(node, topo.num_nodes(), listen_fd,
                                           node_peers, tcp_options);
  if (!uplink.ok()) {
    std::fprintf(stderr, "node %d: %s\n", node,
                 uplink.status().ToString().c_str());
    return 2;
  }
  int exit_code = 0;
  {
    net::HierarchicalTransport hier(topo, node, uplink.value().get());
    const int first = topo.node_first(node);
    const int k = topo.node_size(node);
    std::vector<std::thread> threads;
    threads.reserve(k);
    std::mutex mu;
    for (int lr = 0; lr < k; ++lr) {
      const int rank = first + lr;
      threads.emplace_back([&, rank] {
        int rc = 0;
        try {
          net::Comm comm(rank, topo.num_pes(), &hier, &topo);
          PeOutcome outcome = RunOnePe(comm, options);
          rc = GatherAndReport(comm, options, outcome, start_nanos);
        } catch (const net::CommError& e) {
          std::fprintf(stderr, "rank %d: peer failure: %s\n", rank,
                       e.what());
          if (!options.trace_file.empty()) {
            // Per-rank file name, whole-node contents: every PE thread of
            // this process shares the tracer, so each partial trace holds
            // the node's full event set.
            obs::WriteLocalTrace(options.trace_file + ".rank" +
                                 std::to_string(rank) + ".partial.json");
          }
          hier.KillPe(rank, e.status());
          rc = 3;
        }
        std::lock_guard<std::mutex> lock(mu);
        exit_code = std::max(exit_code, rc);
      });
    }
    for (auto& t : threads) t.join();
    // ~HierarchicalTransport: collective CLOSE exchange with the peer
    // node processes, then the uplink's collective TCP teardown.
  }
  return exit_code;
}

/// Forks one OS process per index in [0, count): each child keeps only
/// its own listener and runs `child_main(idx)`; the parent reaps in
/// completion order and fails fast — if any child dies (mesh setup error,
/// validation CHECK), the survivors are blocked on it forever, so the
/// remaining mesh is killed instead of hanging the launcher. Shared by
/// the per-PE (tcp) and per-node (hier) launchers.
int ForkAndReap(int count, const std::vector<net::TcpListener>& listeners,
                const std::function<int(int)>& child_main) {
  std::fflush(stdout);  // children inherit the stdio buffer; don't let
  std::fflush(stderr);  // them re-flush the banner
  std::vector<pid_t> children;
  for (int idx = 0; idx < count; ++idx) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      // Already-forked children are blocked in mesh setup waiting for
      // peers that will never exist — reap them before giving up.
      for (pid_t child : children) ::kill(child, SIGKILL);
      for (pid_t child : children) ::waitpid(child, nullptr, 0);
      for (int i = 0; i < count; ++i) ::close(listeners[i].fd);
      return 2;
    }
    if (pid == 0) {
      // Child: keep only my listener; everything else arrives via sockets.
      for (int other = 0; other < count; ++other) {
        if (other != idx) ::close(listeners[other].fd);
      }
      int exit_code = child_main(idx);
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(exit_code);  // forked child: skip parent-inherited atexit
    }
    children.push_back(pid);
  }
  for (int idx = 0; idx < count; ++idx) ::close(listeners[idx].fd);
  int exit_code = 0;
  std::vector<pid_t> alive = children;
  while (!alive.empty()) {
    int status = 0;
    pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) break;
    alive.erase(std::remove(alive.begin(), alive.end(), pid), alive.end());
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      if (exit_code == 0) {
        exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
      }
      for (pid_t survivor : alive) ::kill(survivor, SIGKILL);
    }
  }
  return exit_code;
}

/// Multi-process mode: fork one OS process per PE; the mesh runs over
/// loopback TCP. Listeners are created before forking so no connect can
/// race a bind; rank 0 gathers per-PE reports over the transport itself
/// and prints the summary.
int RunTcp(const CliOptions& options) {
  const int P = options.pes;
  auto listeners = net::CreateLoopbackListeners(P);
  if (!listeners.ok()) {
    std::fprintf(stderr, "listener setup failed: %s\n",
                 listeners.status().ToString().c_str());
    return 2;
  }
  auto peers = net::LoopbackPeers(listeners.value());
  int64_t start = NowNanos();
  return ForkAndReap(P, listeners.value(), [&](int rank) {
    return RunTcpRank(rank, P, listeners.value()[rank].fd, peers, options,
                      start);
  });
}

/// Hierarchical multi-process mode: fork one OS process per NODE, each
/// running --pes-per-node PE threads behind one TCP uplink endpoint — the
/// paper's several-PEs-per-network-interface geometry, with N*(N-1)
/// directed node channels instead of P*(P-1).
int RunHier(const CliOptions& options) {
  net::Topology topo =
      net::Topology::Uniform(options.pes, options.pes_per_node);
  const int N = topo.num_nodes();
  auto listeners = net::CreateLoopbackListeners(N);
  if (!listeners.ok()) {
    std::fprintf(stderr, "listener setup failed: %s\n",
                 listeners.status().ToString().c_str());
    return 2;
  }
  auto peers = net::LoopbackPeers(listeners.value());
  int64_t start = NowNanos();
  return ForkAndReap(N, listeners.value(), [&](int node) {
    return RunHierNode(topo, node, listeners.value()[node].fd, peers,
                       options, start);
  });
}

/// --recover: the launch-level supervisor. `launch` runs one full epoch of
/// whichever deployment mode is selected (threads, forked PEs, forked
/// nodes); a peer-failure exit (code 3) tears everything down, waits out an
/// exponential backoff, and relaunches — each rank's RecoveryRuntime then
/// resumes from its manifest. Any other failure, or a budget already spent,
/// propagates unchanged (the PR 3 containment contract).
int SuperviseLaunches(const CliOptions& options,
                      const std::function<int()>& launch) {
  int restarts = 0;
  for (;;) {
    int rc = launch();
    if (rc != 3 || restarts >= options.max_restarts) {
      if (rc == 3) {
        std::fprintf(stderr,
                     "supervisor: restart budget spent (%d), escalating\n",
                     options.max_restarts);
      }
      return rc;
    }
    ++restarts;
    int64_t delay_ms = 50LL << (restarts - 1);
    std::fprintf(stderr,
                 "supervisor: peer failure; relaunch %d/%d in %lld ms\n",
                 restarts, options.max_restarts,
                 static_cast<long long>(delay_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  CliOptions options;
  options.pes = static_cast<int>(flags.GetInt("pes", 8));
  if (options.pes < 1) {
    std::fprintf(stderr, "--pes must be >= 1 (got %d)\n", options.pes);
    return 2;  // the tcp launcher would otherwise fork nothing and
               // report success without sorting a single record
  }
  options.records =
      static_cast<uint64_t>(flags.GetInt("records-per-pe", 50000));
  options.algo = flags.GetString("algo", "canonical");
  options.skewed = flags.GetBool("skewed", false);
  options.stats = flags.GetBool("stats", false);
  options.trace_file = flags.GetString("trace", "");
  options.stats_json = flags.GetString("stats-json", "");
  if (!options.trace_file.empty()) {
    // Arm before any fork/launch: forked PE and node processes inherit the
    // enabled flag, so every rank records from its first event on.
    obs::Tracer::Get().Enable();
  }
  auto kind = net::ParseTransportKind(flags.GetString("transport", "inproc"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  options.transport = kind.value();
  if (flags.Has("pes-per-node")) {
    if (options.transport != net::TransportKind::kHier) {
      // Silently dropping the grouping would mislabel the run; bench_util
      // rejects the same combination.
      std::fprintf(stderr,
                   "--pes-per-node applies to --transport=hier only\n");
      return 2;
    }
    options.pes_per_node =
        static_cast<int>(flags.GetInt("pes-per-node", options.pes_per_node));
    if (options.pes_per_node < 1) {
      std::fprintf(stderr, "--pes-per-node must be >= 1 (got %d)\n",
                   options.pes_per_node);
      return 2;
    }
  }
  options.hosts_file = flags.GetString("hosts", "");
  options.rank = static_cast<int>(flags.GetInt("rank", -1));
  options.connect_timeout_ms =
      flags.GetInt("connect-timeout-ms", options.connect_timeout_ms);
  if (options.connect_timeout_ms < 0) {
    // A negative value would read as 0 = "wait forever" downstream,
    // silently disabling the bounded rendezvous.
    std::fprintf(stderr, "--connect-timeout-ms must be >= 0 (0 = no "
                         "deadline; got %lld)\n",
                 static_cast<long long>(options.connect_timeout_ms));
    return 2;
  }
  if (!options.hosts_file.empty()) {
    // --hosts implies the socket transport; --rank is mandatory (each
    // machine must know which line of the file it is).
    options.transport = net::TransportKind::kTcp;
    if (options.rank < 0) {
      std::fprintf(stderr, "--hosts requires --rank=<this machine's rank>\n");
      return 2;
    }
  }

  // Paper-like node geometry: large blocks so the spinning-disk model is
  // transfer-bound (the reason DEMSort ran with B = 8 MiB), 4 disks/node.
  options.config.block_size = 1024 * 1024;
  options.config.memory_per_pe = 4 * 1024 * 1024;
  options.config.disks_per_pe = 4;
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed", 2009));

  // ---- merge engine: --threads=N workers per PE (range-partitioned final
  // merge + intra-PE parallel sorting).
  options.config.threads_per_pe =
      static_cast<uint32_t>(flags.GetInt("threads", 1));
  if (options.config.threads_per_pe < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }

  // ---- storage engine: --storage={memory,file,direct,uring,mmap},
  // --file-dir=DIR (required for the file-backed kinds), --files-per-disk=K
  // (stripes per disk), --queue-depth=N (0 = backend capacity),
  // --sync-io (inline completion, no pump threads).
  std::string storage = flags.GetString("storage", "");
  if (!storage.empty()) {
    auto parsed = io::ParseBackendKind(storage);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--storage: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    options.config.backend = parsed.value();
  }
  options.config.file_dir = flags.GetString("file-dir", "");
  options.config.files_per_disk =
      static_cast<uint32_t>(flags.GetInt("files-per-disk", 1));
  options.config.io_queue_depth =
      static_cast<size_t>(flags.GetInt("queue-depth", 0));
  options.config.async_io = !flags.GetBool("sync-io", false);
  if (io::IsFileBacked(options.config.backend)) {
    if (options.config.file_dir.empty()) {
      std::fprintf(stderr, "--storage=%s requires --file-dir=DIR\n",
                   io::BackendKindName(options.config.backend));
      return 2;
    }
    if (::mkdir(options.config.file_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::fprintf(stderr, "--file-dir %s: %s\n",
                   options.config.file_dir.c_str(), std::strerror(errno));
      return 2;
    }
    // Fail fast (and helpfully) when the kernel or the filesystem cannot
    // serve the chosen backend — O_DIRECT on tmpfs, io_uring behind a
    // seccomp filter — instead of CHECK-failing inside a forked PE.
    Status probe = io::BlockManager::ProbeBackend(options.config.backend,
                                                  options.config.block_size,
                                                  options.config.file_dir);
    if (!probe.ok()) {
      std::fprintf(stderr, "--storage=%s unavailable here: %s\n",
                   io::BackendKindName(options.config.backend),
                   probe.ToString().c_str());
      return 2;
    }
  }

  options.recover = flags.GetBool("recover", false);
  options.config.checkpoint_dir = flags.GetString("checkpoint-dir", "");
  options.max_restarts =
      static_cast<int>(flags.GetInt("max-restarts", options.max_restarts));
  if (options.recover) {
    if (options.config.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--recover requires --checkpoint-dir=DIR\n");
      return 2;
    }
    if (options.algo != "canonical") {
      std::fprintf(stderr, "--recover supports --algo=canonical only\n");
      return 2;
    }
    if (options.max_restarts < 0) {
      std::fprintf(stderr, "--max-restarts must be >= 0 (got %d)\n",
                   options.max_restarts);
      return 2;
    }
    // Checkpoints need durable run data: unless the user already picked a
    // file-backed store, switch to the file backend, rooted in the
    // checkpoint directory alongside the manifests.
    if (!io::IsFileBacked(options.config.backend)) {
      options.config.backend = io::BackendKind::kFile;
      options.config.file_dir = options.config.checkpoint_dir;
    }
    if (::mkdir(options.config.checkpoint_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::fprintf(stderr, "--checkpoint-dir %s: %s\n",
                   options.config.checkpoint_dir.c_str(),
                   std::strerror(errno));
      return 2;
    }
  } else if (!options.config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-dir applies with --recover only\n");
    return 2;
  }

  if (!options.hosts_file.empty()) {
    if (options.rank == 0) {
      std::printf("gensort : %llu records/rank x 100 B, hosts file %s\n",
                  static_cast<unsigned long long>(options.records),
                  options.hosts_file.c_str());
    }
    if (options.recover) {
      // Every machine runs its own supervisor; a relaunched rank re-joins
      // through the same connect-retry rendezvous as a fresh start.
      return SuperviseLaunches(options, [&] { return RunHosts(options); });
    }
    return RunHosts(options);
  }
  const char* mode = "in-process threads";
  if (options.transport == net::TransportKind::kTcp) {
    mode = "multi-process tcp";
  } else if (options.transport == net::TransportKind::kHier) {
    mode = "hierarchical: node processes x PE threads";
  }
  std::printf("gensort : %llu records x 100 B on %d PEs (%s keys, %s)\n",
              static_cast<unsigned long long>(options.records) * options.pes,
              options.pes, options.skewed ? "skewed" : "uniform", mode);

  auto launch = [&]() -> int {
    switch (options.transport) {
      case net::TransportKind::kTcp:
        return RunTcp(options);
      case net::TransportKind::kHier:
        return RunHier(options);
      default:
        return RunInProc(options);
    }
  };
  if (options.recover) return SuperviseLaunches(options, launch);
  return launch();
}
