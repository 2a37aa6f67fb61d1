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
#include "net/tcp_transport.h"
#include "util/timer.h"

namespace {

using demsort::net::Cluster;
using demsort::net::Comm;
using demsort::net::NetStatsSnapshot;
using demsort::net::StreamCreditMode;
using demsort::net::StreamOptions;
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
    } else {
      args.push_back(argv[i]);
    }
  }
  if (credit_compare) return RunCreditCompare(snapshot);
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
