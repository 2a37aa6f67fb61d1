// Microbenchmarks of the message-passing substrate: point-to-point
// round-trips, barrier, allgather, and the 64-bit alltoallv — each measured
// over BOTH transports (in-process fabric mailboxes vs. real loopback TCP
// sockets), so the cost of leaving the address space is visible.
//
// AlltoallvStreamed measures Comm::AlltoallvStream's chunked delivery on
// the in-process fabric — throughput AND peak receive-side buffering (the
// peak_netbuf_B counter, O(credit x chunk x sources)); run it alone with
// --benchmark_filter=AlltoallvStreamed.
//
// The StreamTuning family A/Bs the streaming collective's credit protocol
// and chunk controller (msgs_per_record, ctrl_msgs, piggy_credits,
// converged_chunk_B columns); filter with --credit-mode={standalone,
// piggyback} and/or --chunk-mode={fixed,adaptive} (fixed: min == max ==
// chunk; adaptive: the auto bounds around it). `--credit-compare` is
// the self-checking CI smoke: it runs standalone vs piggyback at P=8 and
// exits nonzero unless piggybacking cuts control messages by >= 40% and
// total messages strictly; add --snapshot=FILE to write the measurements
// as JSON (the machine-readable perf trajectory, see bench/run_bench.sh).
//
// `--topo-compare` is the hierarchy smoke: the same streamed exchange over
// the same 2-PEs-per-node machine with flat vs two-level collective
// schedules — it exits nonzero unless the two-level schedule puts strictly
// fewer messages on the node uplinks and the cross-node connection count
// is the node mesh N*(N-1) rather than the flat P*(P-1). Also honors
// --snapshot=FILE.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "net/comm.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"
#include "net/topology.h"
#include "util/timer.h"

namespace {

using demsort::net::Cluster;
using demsort::net::Comm;
using demsort::net::HierCluster;
using demsort::net::NetStatsSnapshot;
using demsort::net::StreamCreditMode;
using demsort::net::StreamOptions;
using demsort::net::Topology;
using demsort::net::TransportKind;

void RunWith(TransportKind kind, int pes,
             const std::function<void(Comm&)>& body) {
  Cluster::Options options;
  options.num_pes = pes;
  demsort::net::RunOverTransport(kind, options, body);
}

void PingPong(benchmark::State& state, TransportKind kind) {
  size_t bytes = state.range(0);
  for (auto _ : state) {
    RunWith(kind, 2, [&](Comm& comm) {
      std::vector<uint8_t> payload(bytes, 1);
      for (int i = 0; i < 100; ++i) {
        if (comm.rank() == 0) {
          comm.Send(1, 1, payload.data(), payload.size());
          comm.Recv(1, 2);
        } else {
          comm.Recv(0, 1);
          comm.Send(0, 2, payload.data(), payload.size());
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 200 * bytes);
}
BENCHMARK_CAPTURE(PingPong, inproc, TransportKind::kInProc)
    ->Arg(64)->Arg(4096)->Arg(1 << 20)->Iterations(10);
BENCHMARK_CAPTURE(PingPong, tcp, TransportKind::kTcp)
    ->Arg(64)->Arg(4096)->Arg(1 << 20)->Iterations(10);

void Barrier(benchmark::State& state, TransportKind kind) {
  int pes = state.range(0);
  for (auto _ : state) {
    RunWith(kind, pes, [](Comm& comm) {
      for (int i = 0; i < 50; ++i) comm.Barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK_CAPTURE(Barrier, inproc, TransportKind::kInProc)
    ->Arg(2)->Arg(8)->Arg(32)->Iterations(10);
BENCHMARK_CAPTURE(Barrier, tcp, TransportKind::kTcp)
    ->Arg(2)->Arg(8)->Iterations(10);

/// The acceptance metric: Alltoallv throughput per transport.
void Alltoallv(benchmark::State& state, TransportKind kind) {
  int pes = state.range(0);
  size_t per_pair = 4096;
  for (auto _ : state) {
    RunWith(kind, pes, [&](Comm& comm) {
      std::vector<std::vector<uint64_t>> sends(comm.size());
      for (auto& s : sends) s.assign(per_pair / 8, comm.rank());
      for (int i = 0; i < 10; ++i) {
        auto recv = comm.Alltoallv<uint64_t>(sends);
        benchmark::DoNotOptimize(recv.size());
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 10 * pes * pes * per_pair);
}
BENCHMARK_CAPTURE(Alltoallv, inproc, TransportKind::kInProc)
    ->Arg(2)->Arg(8)->Arg(16)->Iterations(10);
BENCHMARK_CAPTURE(Alltoallv, tcp, TransportKind::kTcp)
    ->Arg(2)->Arg(8)->Arg(16)->Iterations(10);

/// The streamed exchange without assembly: throughput via
/// SetBytesProcessed, peak receive-side transport buffering via the
/// peak_netbuf_B counter, which stays O(chunk x sources) however large the
/// per-pair payload.
void AlltoallvStreamed(benchmark::State& state) {
  const int pes = static_cast<int>(state.range(0));
  const size_t per_pair = static_cast<size_t>(state.range(1));
  const size_t chunk = 16 << 10;
  const int reps = 5;
  uint64_t peak_netbuf = 0;
  for (auto _ : state) {
    Cluster::Options options;
    options.num_pes = pes;
    Cluster::Result result = Cluster::Run(options, [&](Comm& comm) {
      std::vector<std::vector<uint64_t>> sends(comm.size());
      for (int d = 0; d < comm.size(); ++d) {
        sends[d].assign(per_pair / 8, comm.rank() * 1000 + d);
      }
      for (int i = 0; i < reps; ++i) {
        uint64_t received_bytes = 0;
        comm.AlltoallvStream(
            [&](int dst) {
              return std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(sends[dst].data()),
                  sends[dst].size() * sizeof(uint64_t));
            },
            [&](int, std::span<const uint8_t> data, bool) {
              received_bytes += data.size();
            },
            /*on_size=*/nullptr, StreamOptions{.chunk_bytes = chunk});
        benchmark::DoNotOptimize(received_bytes);
      }
    });
    for (const auto& s : result.stats) {
      peak_netbuf = std::max(peak_netbuf, s.recv_buffer_peak_bytes);
    }
  }
  state.counters["peak_netbuf_B"] = static_cast<double>(peak_netbuf);
  state.SetBytesProcessed(state.iterations() * reps * pes *
                          (pes - 1) * per_pair);
}
BENCHMARK(AlltoallvStreamed)
    ->Args({4, 256 << 10})->Args({8, 256 << 10})->Iterations(5);

// ------------------------------------------------- stream tuning A/B ----

struct StreamModeStats {
  uint64_t total_msgs = 0;
  uint64_t credit_msgs = 0;
  uint64_t piggybacked_credits = 0;
  uint64_t peak_netbuf = 0;
  uint64_t converged_chunk = 0;
  uint64_t records = 0;
  double seconds = 0;
};

/// One streamed exchange workload at fixed parameters, on the in-process
/// fabric, under the given credit mode, with fixed chunks (min == max ==
/// chunk) or the adaptive controller's auto bounds. Used by both the
/// benchmark family and the self-checking --credit-compare smoke.
StreamModeStats RunStreamExchange(int pes, size_t per_pair, size_t chunk,
                                  StreamCreditMode credit_mode,
                                  bool fixed_chunks, int reps) {
  Cluster::Options options;
  options.num_pes = pes;
  int64_t t0 = demsort::NowNanos();
  Cluster::Result result = Cluster::Run(options, [&](Comm& comm) {
    std::vector<std::vector<uint64_t>> sends(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      sends[d].assign(per_pair / 8, comm.rank() * 1000 + d);
    }
    std::vector<std::span<const uint8_t>> spans(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      spans[d] = std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(sends[d].data()),
          sends[d].size() * sizeof(uint64_t));
    }
    StreamOptions sopts;
    sopts.chunk_bytes = chunk;
    sopts.align_bytes = sizeof(uint64_t);
    sopts.credit_mode = credit_mode;
    if (fixed_chunks) {
      sopts.min_chunk_bytes = chunk;
      sopts.max_chunk_bytes = chunk;
    }
    for (int i = 0; i < reps; ++i) {
      uint64_t received = 0;
      comm.AlltoallvStream(
          spans,
          [&](int, std::span<const uint8_t> data, bool) {
            received += data.size();
          },
          nullptr, sopts);
      benchmark::DoNotOptimize(received);
    }
  });
  StreamModeStats s;
  s.seconds = (demsort::NowNanos() - t0) * 1e-9;
  for (const auto& pe : result.stats) {
    s.total_msgs += pe.messages_sent;
    s.credit_msgs += pe.credit_msgs;
    s.piggybacked_credits += pe.piggybacked_credits;
    s.peak_netbuf = std::max(s.peak_netbuf, pe.recv_buffer_peak_bytes);
    s.converged_chunk = std::max(s.converged_chunk, pe.stream_chunk_bytes);
  }
  s.records = static_cast<uint64_t>(reps) * pes * (pes - 1) * (per_pair / 8);
  return s;
}

/// Credit-protocol x chunk-controller comparison columns: messages per
/// record (the per-chunk overhead the tuning exists to shave), standalone
/// control messages vs piggybacked credits, and the converged chunk size.
void StreamTuning(benchmark::State& state, StreamCreditMode credit_mode,
                  bool fixed_chunks) {
  const int pes = static_cast<int>(state.range(0));
  const size_t per_pair = static_cast<size_t>(state.range(1));
  const size_t chunk = 16 << 10;
  const int reps = 5;
  StreamModeStats last;
  for (auto _ : state) {
    last = RunStreamExchange(pes, per_pair, chunk, credit_mode, fixed_chunks,
                             reps);
  }
  state.counters["msgs_per_record"] =
      static_cast<double>(last.total_msgs) /
      static_cast<double>(last.records);
  state.counters["ctrl_msgs"] = static_cast<double>(last.credit_msgs);
  state.counters["piggy_credits"] =
      static_cast<double>(last.piggybacked_credits);
  state.counters["converged_chunk_B"] =
      static_cast<double>(last.converged_chunk);
  state.counters["peak_netbuf_B"] = static_cast<double>(last.peak_netbuf);
  state.SetBytesProcessed(state.iterations() * reps * pes * (pes - 1) *
                          per_pair);
}
BENCHMARK_CAPTURE(StreamTuning, standalone_fixed,
                  StreamCreditMode::kStandalone, /*fixed_chunks=*/true)
    ->Args({8, 256 << 10})->Iterations(3);
BENCHMARK_CAPTURE(StreamTuning, piggyback_fixed,
                  StreamCreditMode::kPiggyback, /*fixed_chunks=*/true)
    ->Args({8, 256 << 10})->Iterations(3);
BENCHMARK_CAPTURE(StreamTuning, standalone_adaptive,
                  StreamCreditMode::kStandalone, /*fixed_chunks=*/false)
    ->Args({8, 256 << 10})->Iterations(3);
BENCHMARK_CAPTURE(StreamTuning, piggyback_adaptive,
                  StreamCreditMode::kPiggyback, /*fixed_chunks=*/false)
    ->Args({8, 256 << 10})->Iterations(3);

/// Bulk single-pair bandwidth: one 64 MiB message each way.
void Bandwidth(benchmark::State& state, TransportKind kind) {
  const size_t bytes = 64u << 20;
  for (auto _ : state) {
    RunWith(kind, 2, [&](Comm& comm) {
      std::vector<uint8_t> payload(bytes, 2);
      if (comm.rank() == 0) {
        comm.Send(1, 1, payload.data(), payload.size());
        comm.Recv(1, 2);
      } else {
        comm.Recv(0, 1);
        comm.Send(0, 2, payload.data(), payload.size());
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 2 * bytes);
}
BENCHMARK_CAPTURE(Bandwidth, inproc, TransportKind::kInProc)->Iterations(5);
BENCHMARK_CAPTURE(Bandwidth, tcp, TransportKind::kTcp)->Iterations(5);

void PrintStreamMode(const char* name, const StreamModeStats& s) {
  std::printf("%-20s  %10llu  %10llu  %13llu  %14llu  %16llu  %8.3f\n", name,
              static_cast<unsigned long long>(s.total_msgs),
              static_cast<unsigned long long>(s.credit_msgs),
              static_cast<unsigned long long>(s.piggybacked_credits),
              static_cast<unsigned long long>(s.converged_chunk),
              static_cast<unsigned long long>(s.peak_netbuf), s.seconds);
}

void WriteSnapshotMode(std::FILE* f, const char* name,
                       const StreamModeStats& s, bool last) {
  std::fprintf(f,
               "    \"%s\": {\"total_msgs\": %llu, \"credit_msgs\": %llu, "
               "\"piggybacked_credits\": %llu, \"converged_chunk_bytes\": "
               "%llu, \"peak_netbuf_bytes\": %llu, \"seconds\": %.6f}%s\n",
               name, static_cast<unsigned long long>(s.total_msgs),
               static_cast<unsigned long long>(s.credit_msgs),
               static_cast<unsigned long long>(s.piggybacked_credits),
               static_cast<unsigned long long>(s.converged_chunk),
               static_cast<unsigned long long>(s.peak_netbuf), s.seconds,
               last ? "" : ",");
}

/// The self-checking credit-protocol smoke (CI runs this in Release):
/// piggybacking must cut standalone control messages by >= 40% AND send
/// strictly fewer messages overall than the standalone protocol at P = 8.
/// With --snapshot=FILE the measurements (plus an adaptive-mode run) are
/// written as JSON for the machine-readable perf trajectory.
int RunCreditCompare(const std::string& snapshot_path) {
  const int pes = 8;
  const size_t per_pair = 256 << 10;
  const size_t chunk = 16 << 10;
  const int reps = 5;
  StreamModeStats standalone =
      RunStreamExchange(pes, per_pair, chunk, StreamCreditMode::kStandalone,
                        /*fixed_chunks=*/true, reps);
  StreamModeStats piggyback =
      RunStreamExchange(pes, per_pair, chunk, StreamCreditMode::kPiggyback,
                        /*fixed_chunks=*/true, reps);
  StreamModeStats adaptive =
      RunStreamExchange(pes, per_pair, chunk, StreamCreditMode::kPiggyback,
                        /*fixed_chunks=*/false, reps);

  std::printf(
      "stream credit/chunk comparison: P=%d, %zu B/pair, %zu B chunks, "
      "%d reps\n",
      pes, per_pair, chunk, reps);
  std::printf("%-20s  %10s  %10s  %13s  %14s  %16s  %8s\n", "mode",
              "total_msgs", "ctrl_msgs", "piggy_credits", "chunk_B",
              "peak_netbuf_B", "sec");
  PrintStreamMode("standalone_fixed", standalone);
  PrintStreamMode("piggyback_fixed", piggyback);
  PrintStreamMode("piggyback_adaptive", adaptive);

  double reduction =
      standalone.credit_msgs == 0
          ? 0.0
          : 1.0 - static_cast<double>(piggyback.credit_msgs) /
                      static_cast<double>(standalone.credit_msgs);
  std::printf("control-message reduction: %.1f%% (requirement: >= 40%%)\n",
              reduction * 100.0);

  if (!snapshot_path.empty()) {
    std::FILE* f = std::fopen(snapshot_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", snapshot_path.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_net_stream\",\n  \"pes\": %d,\n"
                 "  \"per_pair_bytes\": %zu,\n  \"chunk_bytes\": %zu,\n"
                 "  \"reps\": %d,\n  \"modes\": {\n",
                 pes, per_pair, chunk, reps);
    WriteSnapshotMode(f, "standalone_fixed", standalone, false);
    WriteSnapshotMode(f, "piggyback_fixed", piggyback, false);
    WriteSnapshotMode(f, "piggyback_adaptive", adaptive, true);
    std::fprintf(f, "  },\n  \"control_msg_reduction\": %.4f\n}\n",
                 reduction);
    std::fclose(f);
  }

  bool pass = reduction >= 0.40 && piggyback.total_msgs < standalone.total_msgs;
  std::printf("credit-compare: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// --------------------------------------------------- topology compare ----

struct TopoModeStats {
  uint64_t total_msgs = 0;
  uint64_t inter_msgs = 0;
  uint64_t inter_bytes = 0;
  uint64_t intra_bytes = 0;
  uint64_t uplink_msgs = 0;
  uint64_t pool_leases = 0;
  uint64_t pool_hits = 0;
  double seconds = 0;
};

/// The streamed exchange over the SAME physical hierarchy, with either the
/// flat collective schedules (every cross-node pair streams through the
/// uplink independently) or the two-level schedules (node-local pack,
/// leader-to-leader rounds, local scatter).
TopoModeStats RunTopoExchange(const Topology& topo, bool flat_collectives,
                              size_t per_pair, size_t chunk, int reps) {
  HierCluster::Options options;
  options.topology = topo;
  options.flat_collectives = flat_collectives;
  int64_t t0 = demsort::NowNanos();
  HierCluster::Result result = HierCluster::Run(options, [&](Comm& comm) {
    std::vector<std::vector<uint64_t>> sends(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      sends[d].assign(per_pair / 8, comm.rank() * 1000 + d);
    }
    std::vector<std::span<const uint8_t>> spans(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      spans[d] = std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(sends[d].data()),
          sends[d].size() * sizeof(uint64_t));
    }
    StreamOptions sopts;
    sopts.chunk_bytes = chunk;
    sopts.align_bytes = sizeof(uint64_t);
    sopts.min_chunk_bytes = chunk;
    sopts.max_chunk_bytes = chunk;
    for (int i = 0; i < reps; ++i) {
      uint64_t received = 0;
      comm.AlltoallvStream(
          spans,
          [&](int, std::span<const uint8_t> data, bool) {
            received += data.size();
          },
          nullptr, sopts);
      benchmark::DoNotOptimize(received);
    }
  });
  TopoModeStats s;
  s.seconds = (demsort::NowNanos() - t0) * 1e-9;
  for (const NetStatsSnapshot& pe : result.stats) {
    s.total_msgs += pe.messages_sent;
    s.inter_msgs += pe.inter_node_msgs;
    s.inter_bytes += pe.inter_node_bytes;
    s.intra_bytes += pe.intra_node_bytes;
    s.pool_leases += pe.pool_leases;
    s.pool_hits += pe.pool_hits;
  }
  s.uplink_msgs = result.uplink_total.messages_sent;
  return s;
}

void PrintTopoMode(const char* name, const TopoModeStats& s) {
  std::printf("%-12s  %10llu  %11llu  %13.1f  %13.1f  %11llu  %9.1f  %8.3f\n",
              name, static_cast<unsigned long long>(s.total_msgs),
              static_cast<unsigned long long>(s.inter_msgs),
              static_cast<double>(s.inter_bytes) / (1 << 20),
              static_cast<double>(s.intra_bytes) / (1 << 20),
              static_cast<unsigned long long>(s.uplink_msgs),
              100.0 * static_cast<double>(s.pool_hits) /
                  static_cast<double>(std::max<uint64_t>(s.pool_leases, 1)),
              s.seconds);
}

/// The self-checking hierarchy smoke (CI runs this in Release): at P = 8
/// with 2 PEs/node the two-level schedule must put strictly fewer
/// messages on the node uplinks than the flat pairwise schedule over the
/// same hierarchy, the cross-node connection arithmetic must be the node
/// mesh N*(N-1), not the flat P*(P-1) — AND the uplink win must not be
/// bought with time or local copies: two-level wall time must stay within
/// 1.25x of flat and its intra-node volume under 2x flat's (the zero-copy
/// leader data path pays for the hierarchy).
int RunTopoCompare(const std::string& snapshot_path) {
  const int pes = 8;
  const int per_node = 2;
  const size_t per_pair = 256 << 10;
  const size_t chunk = 16 << 10;
  const int reps = 5;
  Topology topo = Topology::Uniform(pes, per_node);

  TopoModeStats flat = RunTopoExchange(topo, /*flat_collectives=*/true,
                                       per_pair, chunk, reps);
  TopoModeStats hier = RunTopoExchange(topo, /*flat_collectives=*/false,
                                       per_pair, chunk, reps);

  const uint64_t flat_links = Topology::FlatConnections(pes);
  const uint64_t hier_links = topo.InterNodeConnections();
  std::printf(
      "topology comparison: P=%d, %d PEs/node (%d nodes), %zu B/pair, "
      "%zu B chunks, %d reps\n",
      pes, per_node, topo.num_nodes(), per_pair, chunk, reps);
  std::printf("%-12s  %10s  %11s  %13s  %13s  %11s  %9s  %8s\n", "schedule",
              "total_msgs", "inter_msgs", "inter_MiB", "intra_MiB",
              "uplink_msgs", "pool_hit%", "sec");
  PrintTopoMode("flat", flat);
  PrintTopoMode("two-level", hier);
  std::printf(
      "inter-node connections: hier %llu (= N*(N-1)) vs flat %llu "
      "(= P*(P-1))\n",
      static_cast<unsigned long long>(hier_links),
      static_cast<unsigned long long>(flat_links));

  if (!snapshot_path.empty()) {
    std::FILE* f = std::fopen(snapshot_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", snapshot_path.c_str());
      return 2;
    }
    auto write_mode = [f](const char* name, const TopoModeStats& s,
                          bool last) {
      std::fprintf(f,
                   "    \"%s\": {\"total_msgs\": %llu, \"inter_msgs\": %llu, "
                   "\"inter_bytes\": %llu, \"intra_bytes\": %llu, "
                   "\"uplink_msgs\": %llu, \"pool_leases\": %llu, "
                   "\"pool_hits\": %llu, \"seconds\": %.6f}%s\n",
                   name, static_cast<unsigned long long>(s.total_msgs),
                   static_cast<unsigned long long>(s.inter_msgs),
                   static_cast<unsigned long long>(s.inter_bytes),
                   static_cast<unsigned long long>(s.intra_bytes),
                   static_cast<unsigned long long>(s.uplink_msgs),
                   static_cast<unsigned long long>(s.pool_leases),
                   static_cast<unsigned long long>(s.pool_hits), s.seconds,
                   last ? "" : ",");
    };
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_net_topo\",\n  \"pes\": %d,\n"
                 "  \"pes_per_node\": %d,\n  \"per_pair_bytes\": %zu,\n"
                 "  \"chunk_bytes\": %zu,\n  \"reps\": %d,\n"
                 "  \"inter_node_connections\": %llu,\n"
                 "  \"flat_connections\": %llu,\n  \"modes\": {\n",
                 pes, per_node, per_pair, chunk, reps,
                 static_cast<unsigned long long>(hier_links),
                 static_cast<unsigned long long>(flat_links));
    write_mode("flat", flat, false);
    write_mode("two_level", hier, true);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
  }

  const double wall_ratio = hier.seconds / flat.seconds;
  const double intra_ratio = static_cast<double>(hier.intra_bytes) /
                             static_cast<double>(flat.intra_bytes);
  std::printf(
      "two-level/flat ratios: wall %.2fx (must be <= 1.25), intra bytes "
      "%.2fx (must be < 2)\n",
      wall_ratio, intra_ratio);
  const bool pass = hier_links == static_cast<uint64_t>(topo.num_nodes()) *
                                      (topo.num_nodes() - 1) &&
                    hier_links < flat_links &&
                    hier.inter_msgs < flat.inter_msgs &&
                    hier.uplink_msgs < flat.uplink_msgs &&
                    wall_ratio <= 1.25 && intra_ratio < 2.0;
  std::printf("topo-compare: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

/// Custom main (overrides benchmark_main's): --credit-mode= / --chunk-mode=
/// filter the StreamTuning family; --credit-compare runs the self-checking
/// piggyback-vs-standalone smoke (optionally --snapshot=FILE for JSON) and
/// exits. All other flags pass through to Google Benchmark.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string filter_arg;
  std::string credit_mode, chunk_mode, snapshot;
  bool credit_compare = false;
  bool topo_compare = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string credit_prefix = "--credit-mode=";
    const std::string chunk_prefix = "--chunk-mode=";
    const std::string snapshot_prefix = "--snapshot=";
    if (arg.rfind(credit_prefix, 0) == 0) {
      credit_mode = arg.substr(credit_prefix.size());
      if (credit_mode != "standalone" && credit_mode != "piggyback") {
        std::fprintf(stderr,
                     "unknown --credit-mode '%s' "
                     "(expected standalone|piggyback)\n",
                     credit_mode.c_str());
        return 2;
      }
    } else if (arg.rfind(chunk_prefix, 0) == 0) {
      chunk_mode = arg.substr(chunk_prefix.size());
      if (chunk_mode != "fixed" && chunk_mode != "adaptive") {
        std::fprintf(stderr,
                     "unknown --chunk-mode '%s' (expected fixed|adaptive)\n",
                     chunk_mode.c_str());
        return 2;
      }
    } else if (arg.rfind(snapshot_prefix, 0) == 0) {
      snapshot = arg.substr(snapshot_prefix.size());
    } else if (arg == "--credit-compare") {
      credit_compare = true;
    } else if (arg == "--topo-compare") {
      topo_compare = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (credit_compare) return RunCreditCompare(snapshot);
  if (topo_compare) return RunTopoCompare(snapshot);
  if (!credit_mode.empty() || !chunk_mode.empty()) {
    filter_arg = "--benchmark_filter=StreamTuning/" +
                 (credit_mode.empty() ? std::string(".*") : credit_mode) +
                 "_" + (chunk_mode.empty() ? std::string(".*") : chunk_mode);
  }
  if (!filter_arg.empty()) args.push_back(filter_arg.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
