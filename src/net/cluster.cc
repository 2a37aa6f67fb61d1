#include "net/cluster.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "net/comm.h"
#include "util/logging.h"

namespace demsort::net {

namespace internal {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int SuperviseEpochs(const RecoveryOptions& options,
                    const std::function<void(int epoch)>& run_epoch) {
  int restarts = 0;
  for (;;) {
    try {
      run_epoch(restarts);
      return restarts;
    } catch (const CommError& e) {
      if (restarts >= options.max_restarts) {
        DEMSORT_LOG(kError) << "supervised run: restart budget ("
                            << options.max_restarts
                            << ") spent; escalating: "
                            << e.status().ToString();
        throw;
      }
      ++restarts;
      int64_t delay_ms = options.backoff_base_ms << (restarts - 1);
      if (options.jitter > 0 && delay_ms > 0) {
        uint64_t r = SplitMix64(options.jitter_seed ^
                                static_cast<uint64_t>(restarts));
        double u = static_cast<double>(r >> 11) / 9007199254740992.0;
        delay_ms = static_cast<int64_t>(
            static_cast<double>(delay_ms) *
            (1.0 - options.jitter + 2.0 * options.jitter * u));
      }
      DEMSORT_LOG(kWarning) << "supervised run: epoch " << (restarts - 1)
                            << " died (" << e.status().ToString()
                            << "); restarting in " << delay_ms << " ms ("
                            << restarts << "/" << options.max_restarts << ")";
      if (options.on_restart) options.on_restart(restarts, e.status());
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
  }
}

}  // namespace internal

Fabric::Fabric(int num_pes) : num_pes_(num_pes) {
  DEMSORT_CHECK_GT(num_pes_, 0);
  pool_ = std::make_shared<BufferPool>();
  stats_.resize(num_pes_);
  for (auto& s : stats_) s = std::make_unique<NetStats>();
  channels_.resize(static_cast<size_t>(num_pes_) * num_pes_);
  for (int src = 0; src < num_pes_; ++src) {
    for (int dst = 0; dst < num_pes_; ++dst) {
      // Self-channels are local memory traffic: exempt from the
      // receiver-side buffering gauge, like the volume counters.
      NetStats* recv_stats = src == dst ? nullptr : stats_[dst].get();
      channels_[static_cast<size_t>(src) * num_pes_ + dst] =
          std::make_unique<internal::TagChannel>(recv_stats);
    }
  }
}

SendRequest Fabric::Isend(int src, int dst, int tag, const void* data,
                          size_t bytes) {
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, num_pes_);
  // Self-sends are local memory traffic: exempt from the traffic counters
  // and from the pool counters alike.
  NetStats* lease_stats = src == dst ? nullptr : stats_[src].get();
  std::vector<uint8_t> buf = pool_->Lease(bytes, lease_stats);
  if (bytes != 0) std::memcpy(buf.data(), data, bytes);
  Frame payload(std::move(buf), pool_);
  if (src != dst) {
    // Counters record logical traffic at hand-off.
    stats_[src]->RecordSend(bytes);
    stats_[dst]->RecordRecv(bytes);
  }
  return channel(src, dst).Offer(tag, std::move(payload));
}

SendRequest Fabric::IsendGather(int src, int dst, int tag, const void* header,
                                size_t header_bytes, const void* data,
                                size_t bytes) {
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, num_pes_);
  // Single-copy frame assembly: header and payload land directly in the
  // pooled message buffer (the streaming hot path's per-chunk send).
  NetStats* lease_stats = src == dst ? nullptr : stats_[src].get();
  std::vector<uint8_t> buf = pool_->Lease(header_bytes + bytes, lease_stats);
  std::memcpy(buf.data(), header, header_bytes);
  if (bytes != 0) std::memcpy(buf.data() + header_bytes, data, bytes);
  Frame payload(std::move(buf), pool_);
  if (src != dst) {
    stats_[src]->RecordSend(payload.size());
    stats_[dst]->RecordRecv(payload.size());
  }
  return channel(src, dst).Offer(tag, std::move(payload));
}

SendRequest Fabric::IsendFrame(int src, int dst, int tag, Frame frame) {
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, num_pes_);
  if (src != dst) {
    stats_[src]->RecordSend(frame.size());
    stats_[dst]->RecordRecv(frame.size());
  }
  return channel(src, dst).Offer(tag, std::move(frame));
}

RecvRequest Fabric::Irecv(int dst, int src, int tag) {
  DEMSORT_CHECK_GE(src, 0);
  DEMSORT_CHECK_LT(src, num_pes_);
  return channel(src, dst).PostRecv(tag);
}

void Fabric::KillPe(int pe, const Status& status) {
  DEMSORT_CHECK_GE(pe, 0);
  DEMSORT_CHECK_LT(pe, num_pes_);
  for (int other = 0; other < num_pes_; ++other) {
    channel(pe, other).Poison(status);
    if (other != pe) channel(other, pe).Poison(status);
  }
}

void Fabric::KillLink(int a, int b, const Status& status) {
  DEMSORT_CHECK_GE(a, 0);
  DEMSORT_CHECK_LT(a, num_pes_);
  DEMSORT_CHECK_GE(b, 0);
  DEMSORT_CHECK_LT(b, num_pes_);
  channel(a, b).Poison(status);
  if (a != b) channel(b, a).Poison(status);
}

void Fabric::Send(int src, int dst, int tag, const void* data, size_t bytes) {
  Isend(src, dst, tag, data, bytes).Wait();
}

std::vector<uint8_t> Fabric::Recv(int dst, int src, int tag) {
  return Irecv(dst, src, tag).Take();
}

void Cluster::Run(int num_pes, const PeBody& body) {
  Options options;
  options.num_pes = num_pes;
  Run(options, body);
}

std::vector<NetStatsSnapshot> Cluster::RunWithStats(int num_pes,
                                                    const PeBody& body) {
  Options options;
  options.num_pes = num_pes;
  return Run(options, body).stats;
}

Cluster::Result Cluster::Run(const Options& options, const PeBody& body) {
  Fabric fabric(options.num_pes);
  Transport* transport = &fabric;
  if (options.wrap_transport) {
    Transport* wrapped = options.wrap_transport(&fabric, options.epoch);
    if (wrapped != nullptr) transport = wrapped;
  }
  const int num_pes = options.num_pes;
  std::vector<std::thread> threads;
  threads.reserve(num_pes);
  std::vector<std::exception_ptr> errors(num_pes);
  // First PE to fail: its exception is the root cause; the CommErrors the
  // poison then provokes in the survivors are secondary.
  std::atomic<int> first_failed{-1};
  for (int pe = 0; pe < num_pes; ++pe) {
    threads.emplace_back([&, pe] {
      try {
        Comm comm(pe, num_pes, transport);
        body(comm);
      } catch (const std::exception& e) {
        errors[pe] = std::current_exception();
        int expect = -1;
        first_failed.compare_exchange_strong(expect, pe);
        // Cancel the peers' waits BEFORE this thread exits: otherwise they
        // block forever on messages this PE will never send and join()
        // below deadlocks without ever rethrowing the real error.
        transport->KillPe(pe, Status::Internal("PE " + std::to_string(pe) +
                                               " failed: " + e.what()));
      } catch (...) {
        errors[pe] = std::current_exception();
        int expect = -1;
        first_failed.compare_exchange_strong(expect, pe);
        transport->KillPe(pe, Status::Internal("PE " + std::to_string(pe) +
                                               " failed"));
      }
    });
  }
  for (auto& t : threads) t.join();
  int failed = first_failed.load();
  if (failed >= 0) {
    DEMSORT_LOG(kError) << "PE " << failed << " failed first; rethrowing";
    std::rethrow_exception(errors[failed]);
  }
  Result result;
  result.stats.reserve(num_pes);
  for (int pe = 0; pe < num_pes; ++pe) {
    result.stats.push_back(transport->stats(pe).Snapshot());
  }
  return result;
}

Cluster::SupervisedResult Cluster::RunSupervised(
    const Options& options, const RecoveryOptions& recovery,
    const PeBody& body) {
  SupervisedResult sr;
  sr.restarts = internal::SuperviseEpochs(recovery, [&](int epoch) {
    // A fresh Fabric per epoch: the previous epoch's poisoned channels die
    // with it, so the re-join never sees stale poison.
    Options epoch_options = options;
    epoch_options.epoch = epoch;
    sr.result = Run(epoch_options, body);
  });
  return sr;
}

}  // namespace demsort::net
