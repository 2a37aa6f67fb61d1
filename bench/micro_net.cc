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
// The StreamTuning family A/Bs the streaming collective's chunk controller
// (msgs_per_record, ctrl_msgs, piggy_credits, converged_chunk_B columns):
// the `fixed` row pins min == max == chunk, the `adaptive` row runs the
// auto bounds around it. Pick one with e.g.
// --benchmark_filter=StreamTuning/fixed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/cluster.h"
#include "net/comm.h"
#include "net/tcp_transport.h"

namespace {

using demsort::net::Cluster;
using demsort::net::Comm;
using demsort::net::NetStatsSnapshot;
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

/// Chunk-controller comparison columns on the in-process fabric: messages
/// per record (the per-chunk overhead the tuning exists to shave),
/// standalone credit messages vs piggybacked credits, and the converged
/// chunk size. Fixed chunks pin min == max == chunk; adaptive runs the
/// auto bounds around it.
void StreamTuning(benchmark::State& state, bool fixed_chunks) {
  const int pes = static_cast<int>(state.range(0));
  const size_t per_pair = static_cast<size_t>(state.range(1));
  const size_t chunk = 16 << 10;
  const int reps = 5;
  NetStatsSnapshot last;  // last iteration: counters summed, gauges maxed
  for (auto _ : state) {
    Cluster::Options options;
    options.num_pes = pes;
    Cluster::Result result = Cluster::Run(options, [&](Comm& comm) {
      std::vector<std::vector<uint64_t>> sends(comm.size());
      for (int d = 0; d < comm.size(); ++d) {
        sends[d].assign(per_pair / 8, comm.rank() * 1000 + d);
      }
      StreamOptions sopts;
      sopts.chunk_bytes = chunk;
      sopts.align_bytes = sizeof(uint64_t);
      if (fixed_chunks) {
        sopts.min_chunk_bytes = chunk;
        sopts.max_chunk_bytes = chunk;
      }
      for (int i = 0; i < reps; ++i) {
        uint64_t received = 0;
        comm.AlltoallvStream(
            [&](int dst) {
              return std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(sends[dst].data()),
                  sends[dst].size() * sizeof(uint64_t));
            },
            [&](int, std::span<const uint8_t> data, bool) {
              received += data.size();
            },
            /*on_size=*/nullptr, sopts);
        benchmark::DoNotOptimize(received);
      }
    });
    last = NetStatsSnapshot{};
    for (const auto& pe : result.stats) {
      last.messages_sent += pe.messages_sent;
      last.credit_msgs += pe.credit_msgs;
      last.piggybacked_credits += pe.piggybacked_credits;
      last.recv_buffer_peak_bytes =
          std::max(last.recv_buffer_peak_bytes, pe.recv_buffer_peak_bytes);
      last.stream_chunk_bytes =
          std::max(last.stream_chunk_bytes, pe.stream_chunk_bytes);
    }
  }
  const uint64_t records =
      static_cast<uint64_t>(reps) * pes * (pes - 1) * (per_pair / 8);
  state.counters["msgs_per_record"] =
      static_cast<double>(last.messages_sent) / static_cast<double>(records);
  state.counters["ctrl_msgs"] = static_cast<double>(last.credit_msgs);
  state.counters["piggy_credits"] =
      static_cast<double>(last.piggybacked_credits);
  state.counters["converged_chunk_B"] =
      static_cast<double>(last.stream_chunk_bytes);
  state.counters["peak_netbuf_B"] =
      static_cast<double>(last.recv_buffer_peak_bytes);
  state.SetBytesProcessed(state.iterations() * reps * pes * (pes - 1) *
                          per_pair);
}
BENCHMARK_CAPTURE(StreamTuning, fixed, /*fixed_chunks=*/true)
    ->Args({8, 256 << 10})->Iterations(3);
BENCHMARK_CAPTURE(StreamTuning, adaptive, /*fixed_chunks=*/false)
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

}  // namespace
