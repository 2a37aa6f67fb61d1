// Observability layer: ring-buffer overflow semantics, wire round-trips,
// cross-rank trace gather producing lint-clean Chrome JSON, the per-phase
// gauge-reset contract (two consecutive phases must not leak peaks),
// straggler-report output, and a well-formed partial trace after a mid-sort
// PE kill.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "io/backend.h"
#include "io/disk.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "net/fault_transport.h"
#include "obs/metrics.h"
#include "obs/straggler.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "obs/trace_gather.h"
#include "test_util.h"
#include "util/aligned_buffer.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace demsort {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Resets the global tracer to a known state; tests share one process.
void ResetTracer() {
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
  obs::SetThreadRank(-1);
}

// ------------------------------------------------------- ring semantics ----

TEST(TraceRingTest, OverflowKeepsNewestAndCountsDrops) {
  obs::TraceRing ring;
  constexpr uint64_t kCap = obs::TraceRing::kCapacity;
  constexpr uint64_t kExtra = 100;
  for (uint64_t i = 0; i < kCap + kExtra; ++i) {
    obs::SpanEvent e;
    e.arg1 = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.head(), kCap + kExtra);
  EXPECT_EQ(ring.dropped(), kExtra);
  // The readable window [head - kCapacity, head) holds exactly the newest
  // kCapacity events; the oldest kExtra were overwritten in place.
  EXPECT_EQ(ring.at(ring.head() - kCap).arg1, kExtra);
  EXPECT_EQ(ring.at(ring.head() - 1).arg1, kCap + kExtra - 1);
  uint64_t mid = ring.head() - kCap / 2;
  EXPECT_EQ(ring.at(mid).arg1, mid);
  ring.Clear();
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// --------------------------------------------------- wire serialization ----

TEST(TracerTest, SerializeDecodeRoundTripFiltersByRank) {
  ResetTracer();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  tracer.MarkSessionStart();
  obs::SetThreadRank(7);
  obs::SetThreadName("obs-test");
  obs::EmitInstant("test", "tick", "v", 42);
  { obs::ScopedSpan span("test", "work", "iter", 1); }
  tracer.Disable();

  std::vector<uint8_t> blob = tracer.SerializeRank(7);
  obs::Tracer::WireTrace wire;
  ASSERT_TRUE(obs::Tracer::DecodeWire(blob, &wire));
  ASSERT_EQ(wire.events.size(), 3u);  // instant + B + E
  bool saw_tick = false, saw_work = false;
  for (const obs::Tracer::WireEvent& e : wire.events) {
    EXPECT_EQ(e.rank, 7);
    EXPECT_GE(e.ts_ns, 0) << "timestamps must be session-relative";
    const std::string& name = wire.strings.at(e.name);
    saw_tick = saw_tick || name == "tick";
    saw_work = saw_work || name == "work";
    if (name == "tick") {
      EXPECT_EQ(e.arg1, 42u);
    }
  }
  EXPECT_TRUE(saw_tick);
  EXPECT_TRUE(saw_work);

  // A different rank filter excludes everything this thread recorded.
  obs::Tracer::WireTrace other;
  ASSERT_TRUE(obs::Tracer::DecodeWire(tracer.SerializeRank(3), &other));
  EXPECT_TRUE(other.events.empty());

  // Truncated blobs must fail cleanly, not crash or half-decode.
  std::vector<uint8_t> cut(blob.begin(), blob.end() - 1);
  obs::Tracer::WireTrace bad;
  EXPECT_FALSE(obs::Tracer::DecodeWire(cut, &bad));
  ResetTracer();
}

// ------------------------------------------------------ cross-rank merge ----

TEST(TraceGatherTest, MergedJsonIsValidMonotonicAndCoversAllRanks) {
  ResetTracer();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  tracer.MarkSessionStart();
  const std::string path = ::testing::TempDir() + "/obs_gather_trace.json";
  const int P = 4;
  net::Cluster::Run(P, [&](net::Comm& comm) {
    obs::SetThreadRank(comm.rank());
    obs::SetThreadName("pe");
    for (uint64_t i = 0; i < 5; ++i) {
      obs::ScopedSpan span("test", "work", "iter", i);
      obs::EmitInstant("test", "tick", "rank",
                       static_cast<uint64_t>(comm.rank()));
    }
    EXPECT_TRUE(obs::GatherTraceToRank0(comm, path));
  });

  obs::TraceLint lint;
  std::string text = ReadFileOrDie(path);
  ASSERT_TRUE(obs::LintChromeTrace(text, &lint)) << lint.err;
  EXPECT_TRUE(lint.monotonic) << "timestamps regress within a track";
  EXPECT_TRUE(lint.balanced) << "unbalanced B/E events";
  EXPECT_EQ(lint.pids, (std::set<int>{0, 1, 2, 3}))
      << "every rank must own a pid in the merged trace";
  // 5 spans (B+E) + 5 instants per rank.
  EXPECT_GE(lint.events, static_cast<size_t>(P) * 15);
  EXPECT_EQ(lint.names.count("work"), 1u);
  EXPECT_EQ(lint.names.count("tick"), 1u);
  ResetTracer();
}

// ---------------------------------------------------- disk trace tracks ----

TEST(DiskTraceTrackTest, InlineBlockOpsLandOnPerDiskTracksWithoutDrops) {
  // One traced thread issues more block ops than a ring holds, over two
  // memory disks that serve them inline. Each disk records its io.* spans
  // on its own "disk" track, so the thread's ring holds none and no ring
  // overflows.
#if !DEMSORT_TRACING
  GTEST_SKIP() << "disks record their spans through the TRACE_* macros";
#endif
  ResetTracer();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  tracer.MarkSessionStart();
  obs::SetThreadRank(3);
  obs::SetThreadName("obs-test");
  obs::EmitInstant("test", "submitter.start");

  constexpr size_t kBlock = 4096;
  constexpr uint64_t kOpsPerDisk = obs::TraceRing::kCapacity * 5 / 8;
  static_assert(2 * kOpsPerDisk > obs::TraceRing::kCapacity);
  AlignedBuffer buf(kBlock);
  std::memset(buf.data(), 0x5a, kBlock);
  {
    std::vector<std::unique_ptr<io::VirtualDisk>> disks;
    for (int d = 0; d < 2; ++d) {
      io::VirtualDisk::Options options;
      options.trace_rank = 3 + d;
      disks.push_back(std::make_unique<io::VirtualDisk>(
          std::make_unique<io::MemoryBackend>(kBlock), options));
      ASSERT_TRUE(disks.back()->serves_inline());
    }
    for (auto& disk : disks) {
      disk->WriteAsync(0, buf.data()).WaitOk();
      for (uint64_t i = 1; i < kOpsPerDisk; ++i) {
        disk->ReadAsync(0, buf.data()).WaitOk();
      }
    }
  }
  tracer.Disable();
  EXPECT_EQ(tracer.DroppedEvents(), 0u);

  obs::Tracer::WireTrace wire;
  ASSERT_TRUE(obs::Tracer::DecodeWire(tracer.SerializeRank(-1), &wire));
  std::map<uint32_t, std::string> track_name;
  for (auto [tid, sid] : wire.thread_names) {
    track_name[tid] = wire.strings.at(sid);
  }
  std::set<uint32_t> submitter_tids;
  std::map<uint32_t, std::set<int>> ranks_per_disk_track;
  std::map<int, uint64_t> io_per_rank;
  for (const obs::Tracer::WireEvent& e : wire.events) {
    const std::string& name = wire.strings.at(e.name);
    if (name == "submitter.start") submitter_tids.insert(e.tid);
    if (name.rfind("io.", 0) != 0) continue;
    EXPECT_EQ(track_name[e.tid], "disk") << name << " off the disk track";
    ranks_per_disk_track[e.tid].insert(e.rank);
    ++io_per_rank[e.rank];
  }
  ASSERT_EQ(submitter_tids.size(), 1u);
  EXPECT_EQ(ranks_per_disk_track.count(*submitter_tids.begin()), 0u)
      << "io.* spans landed on the submitting thread's track";
  EXPECT_EQ(ranks_per_disk_track.size(), 2u) << "one track per disk";
  for (const auto& [tid, ranks] : ranks_per_disk_track) {
    EXPECT_EQ(ranks.size(), 1u) << "track " << tid << " mixes ranks";
  }
  EXPECT_EQ(io_per_rank,
            (std::map<int, uint64_t>{{3, kOpsPerDisk}, {4, kOpsPerDisk}}));
  ResetTracer();
}

// ------------------------------------------------- gauge-reset contract ----

TEST(PhaseCollectorTest, ConsecutivePhasesDoNotLeakGaugePeaks) {
  core::SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](core::PeContext& ctx, const core::SortConfig&) {
    core::PhaseCollector collector(ctx.comm, ctx.bm);

    // Phase 1: drive every per-phase gauge to a nonzero peak.
    collector.Begin(core::Phase::kRunFormation);
    ctx.comm->stats().AddRecvBuffered(1 << 20);
    ctx.comm->stats().SubRecvBuffered(1 << 20);
    io::BlockId block = ctx.bm->Allocate();
    AlignedBuffer buf(ctx.bm->block_size());
    std::memset(buf.data(), 0xab, buf.size());
    ctx.bm->WriteSync(block, buf.data());
    collector.End(core::Phase::kRunFormation);

    const core::PhaseStats& p1 = collector.stats(core::Phase::kRunFormation);
    EXPECT_EQ(p1.net.recv_buffer_peak_bytes, uint64_t{1} << 20);
    EXPECT_GE(p1.io.queue_depth_peak, 1u);

    // Phase 2: no traffic, no I/O. Every gauge must read zero — a peak
    // carried over from phase 1 is exactly the leak this guards against.
    collector.Begin(core::Phase::kMultiwaySelection);
    collector.End(core::Phase::kMultiwaySelection);

    const core::PhaseStats& p2 =
        collector.stats(core::Phase::kMultiwaySelection);
    EXPECT_EQ(p2.net.recv_buffer_peak_bytes, 0u);
    EXPECT_EQ(p2.io.queue_depth_peak, 0u);

    ctx.bm->Free(block);
  });
}

// ----------------------------------------------------- straggler report ----

TEST(StragglerTest, StatsJsonAndTableCoverEveryPhaseAndRank) {
  const int P = 2;
  std::vector<core::SortReport> reports(P);
  for (int r = 0; r < P; ++r) {
    reports[r].rank = r;
    reports[r].num_pes = P;
    reports[r].local_input_elements = 1000;
    reports[r].local_output_elements = 1000;
    for (int p = 0; p < static_cast<int>(core::Phase::kNumPhases); ++p) {
      core::PhaseStats& s = reports[r].phase[p];
      s.wall_s = 1.0 + r + 0.1 * p;  // rank 1 is the straggler everywhere
      s.io.reads = 10 * (r + 1);
      s.io.bytes_read = 1024 * (r + 1);
      s.net.bytes_sent = 512 * (r + 1);
    }
  }

  std::string table = obs::FormatStragglerTable(reports);
  for (int p = 0; p < static_cast<int>(core::Phase::kNumPhases); ++p) {
    EXPECT_NE(table.find(core::PhaseName(static_cast<core::Phase>(p))),
              std::string::npos)
        << "phase " << p << " missing from table:\n"
        << table;
  }

  const std::string path = ::testing::TempDir() + "/obs_stats.json";
  ASSERT_TRUE(obs::WriteStatsJson(path, reports, /*emulation_wall_s=*/3.5));
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(ReadFileOrDie(path), &doc, &err)) << err;
  const obs::JsonValue* schema = doc.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "demsort-stats-v1");
  const obs::JsonValue* pes = doc.Find("pes");
  ASSERT_NE(pes, nullptr);
  EXPECT_EQ(static_cast<int>(pes->number), P);
  const obs::JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->arr.size(),
            static_cast<size_t>(core::Phase::kNumPhases));
  for (const obs::JsonValue& phase : phases->arr) {
    const obs::JsonValue* wall = phase.Find("wall_s");
    ASSERT_NE(wall, nullptr);
    const obs::JsonValue* per_rank = wall->Find("per_rank");
    ASSERT_NE(per_rank, nullptr);
    EXPECT_EQ(per_rank->arr.size(), static_cast<size_t>(P));
    const obs::JsonValue* slowest = wall->Find("slowest_rank");
    ASSERT_NE(slowest, nullptr);
    EXPECT_EQ(static_cast<int>(slowest->number), 1);
  }
  EXPECT_NE(doc.Find("total"), nullptr);
}

// ------------------------------------------------ partial trace on kill ----

TEST(TraceFaultTest, KillMidSortYieldsWellFormedPartialTrace) {
  ResetTracer();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  tracer.MarkSessionStart();

  const int P = 4;
  core::SortConfig config;
  config.block_size = 4 * 1024;
  config.memory_per_pe = 64 * 1024;
  config.disks_per_pe = 2;
  config.threads_per_pe = 1;
  config.seed = 7;

  net::FaultInjector::Spec spec;
  spec.victim_pe = 1;
  spec.fail_at_op = 20;  // dies during run formation's sampling exchange
  auto injector = std::make_shared<net::FaultInjector>(spec);
  net::Fabric fabric(P);
  net::FaultTransport fault(&fabric, injector);

  std::atomic<int> comm_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(P);
  for (int pe = 0; pe < P; ++pe) {
    threads.emplace_back([&, pe] {
      try {
        net::Comm comm(pe, P, &fault);
        obs::SetThreadRank(pe);
        obs::SetThreadName("pe");
        obs::EmitInstant("test", "pe.start");
        core::PeResources resources(&comm, config);
        core::PeContext& ctx = resources.ctx();
        auto gen = workload::GenerateKV16(
            ctx.bm, workload::Distribution::kUniform,
            /*elements_per_pe=*/4096, pe, P, config.seed);
        core::CanonicalMergeSort<core::KV16>(ctx, config, gen.input);
      } catch (const net::CommError& e) {
        ++comm_errors;
        fault.KillPe(pe, e.status());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_GT(comm_errors.load(), 0) << "fault did not fire mid-sort";

  // The cross-rank gather is impossible now; the local writer must still
  // produce a lint-clean trace (unclosed phase spans repaired at export).
  const std::string path = ::testing::TempDir() + "/obs_partial_trace.json";
  ASSERT_TRUE(obs::WriteLocalTrace(path));
  obs::TraceLint lint;
  std::string text = ReadFileOrDie(path);
  ASSERT_TRUE(obs::LintChromeTrace(text, &lint)) << lint.err;
  EXPECT_TRUE(lint.balanced)
      << "killed run left unbalanced B/E events in the export";
  EXPECT_TRUE(lint.monotonic);
  EXPECT_GE(lint.events, static_cast<size_t>(P));  // the pe.start instants
  EXPECT_EQ(lint.names.count("pe.start"), 1u);
#if DEMSORT_TRACING
  // Instrumented builds record phase spans before the kill lands.
  EXPECT_EQ(lint.names.count("run_formation"), 1u);
#endif
  ResetTracer();
}

}  // namespace
}  // namespace demsort
