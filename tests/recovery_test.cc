// Checkpointed, restartable sorts: the manifest format's torn-write
// defenses (CRC, atomic rename, stale-fingerprint and missing/truncated
// run-file fall-back-to-scratch), the FaultInjector's epoch schedules, and
// the end-to-end supervised-restart contract — kill one rank mid-phase, in
// each of the four phases, over the in-process fabric, real sockets, and a
// two-level hierarchical shape; the relaunched epoch must resume from the
// manifests, replay ONLY the interrupted phase onward, and produce output
// that validates, with the restart telemetry (restarts, phases_replayed)
// matching the injected history. A second failure during recovery and a
// spent restart budget (escalation to the containment CommError) close the
// loop.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/checkpoint.h"
#include "core/pe_context.h"
#include "core/recovery.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "net/fault_transport.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace demsort {
namespace {

constexpr int kP = 4;
constexpr uint64_t kElements = 4096;

// The phase-boundary calibration needs the op sequence at the transport
// seam to reproduce exactly, whatever the timing. The production streaming
// config guarantees that at this size: a PE's whole input fits one default
// chunk, so every stream is a single chunk, no per-chunk credit is ever
// returned, and the adaptive chunk controller never resizes (it shrinks
// only after a credit stall, which needs more than kStreamSendCreditChunks
// chunks in flight).
static_assert(kElements * sizeof(core::KV16) <=
              net::Comm::kDefaultStreamChunkBytes);

std::string MakeTempDir() {
  char tmpl[] = "/tmp/demsort_recovery_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  DEMSORT_CHECK(dir != nullptr);
  return dir;
}

/// The deterministic test config: file backend rooted in `dir` (manifests
/// alongside run files), tiny blocks, and the default streaming config
/// (deterministic at kElements, see above).
core::SortConfig MakeConfig(const std::string& dir) {
  core::SortConfig config;
  config.block_size = 4 * 1024;
  config.memory_per_pe = 64 * 1024;
  config.disks_per_pe = 2;
  config.threads_per_pe = 1;
  config.async_io = false;
  config.seed = 1;
  config.backend = io::BlockManager::BackendKind::kFile;
  config.file_dir = dir;
  config.checkpoint_dir = dir;
  return config;
}

/// Fast-failing supervision for tests (real backoff would only slow them).
net::RecoveryOptions FastRecovery(int max_restarts = 3) {
  net::RecoveryOptions r;
  r.max_restarts = max_restarts;
  r.backoff_base_ms = 1;
  r.jitter = 0;
  return r;
}

struct EpochReport {
  core::SortReport report;
  int resume = -1;
  bool validated = false;
};

struct SupervisedOutcome {
  int restarts = 0;
  /// The successful epoch's per-rank reports (each epoch overwrites them,
  /// so a completed run leaves exactly the final epoch's).
  std::vector<EpochReport> reports;
  std::vector<net::NetStatsSnapshot> stats;
};

/// Runs the checkpointed sort under supervision on the chosen backend with
/// `injector` wrapped around every endpoint, and reports how it ended.
/// This is the real harness idiom end to end: Prepare (collective resume
/// vote) before any per-epoch resources, PeResources with reuse_files on
/// resume, Bind to restore the interrupted phase, generate only on scratch.
/// With probe_pe >= 0, records the victim's operation clock after Bind and
/// at every phase-checkpoint commit into `boundaries` — the calibration
/// that turns "kill at op N" into "kill inside phase p".
SupervisedOutcome RunSupervisedSort(
    net::TransportKind kind, const core::SortConfig& config,
    std::shared_ptr<net::FaultInjector> injector,
    const net::RecoveryOptions& recovery_options, int probe_pe = -1,
    std::array<uint64_t, 5>* boundaries = nullptr) {
  SupervisedOutcome out;
  out.reports.resize(kP);
  std::mutex mu;
  std::vector<std::unique_ptr<net::FaultTransport>> wrappers;
  std::mutex wrap_mu;
  auto wrap = [&](net::Transport* base, int epoch) -> net::Transport* {
    std::lock_guard<std::mutex> lock(wrap_mu);
    // The harness relaunches strictly sequentially; the first wrapper of a
    // new epoch advances the injector (resetting every PE's op clock).
    while (injector->epoch() < epoch) injector->AdvanceEpoch();
    wrappers.push_back(std::make_unique<net::FaultTransport>(base, injector));
    return wrappers.back().get();
  };

  auto body = [&](net::Comm& comm) {
    const int rank = comm.rank();
    core::RecoveryRuntime<core::KV16> recovery(config, rank, comm.size());
    const int resume = recovery.Prepare(comm, kElements);
    core::PeResources resources(&comm, config, /*reuse_files=*/resume > 0);
    core::PeContext& ctx = resources.ctx();
    recovery.Bind(ctx);
    if (rank == probe_pe && boundaries != nullptr) {
      (*boundaries)[0] = injector->OpCount(probe_pe);
      recovery.on_phase_checkpoint = [boundaries, &injector,
                                      probe_pe](int phase) {
        (*boundaries)[static_cast<size_t>(phase)] =
            injector->OpCount(probe_pe);
      };
    }
    core::LocalInput input;
    MultisetChecksum checksum;
    if (resume == 0) {
      auto gen = workload::GenerateKV16(ctx.bm,
                                        workload::Distribution::kUniform,
                                        kElements, rank, comm.size(),
                                        config.seed);
      input = gen.input;
      checksum = gen.checksum;
      recovery.SetInputChecksum(checksum);
    } else {
      checksum = recovery.input_checksum();
    }
    auto sorted = core::CanonicalMergeSort<core::KV16>(ctx, config, input,
                                                       &recovery);
    auto v = workload::ValidateCollective<core::KV16>(
        ctx, sorted.blocks, sorted.num_elements, checksum);
    std::lock_guard<std::mutex> lock(mu);
    out.reports[rank].report = sorted.report;
    out.reports[rank].resume = resume;
    out.reports[rank].validated = v.ok();
  };

  if (kind == net::TransportKind::kInProc) {
    net::Cluster::Options options;
    options.num_pes = kP;
    options.wrap_transport = wrap;
    auto s = net::Cluster::RunSupervised(options, recovery_options, body);
    out.restarts = s.restarts;
    out.stats = s.result.stats;
  } else if (kind == net::TransportKind::kTcp) {
    auto s = net::TcpCluster::RunSupervised(kP, body, recovery_options,
                                            net::TcpTransport::Options(),
                                            wrap);
    out.restarts = s.restarts;
    out.stats = s.stats;
  } else {
    net::HierCluster::Options options;
    // The uneven {1, P-1} shape: a singleton node plus a multi-PE node, so
    // kills land on a node leader's transport as well as followers'.
    options.topology = net::Topology(std::vector<int>{1, kP - 1});
    options.wrap_transport = wrap;
    auto s = net::HierCluster::RunSupervised(options, recovery_options, body);
    out.restarts = s.restarts;
    out.stats = s.result.stats;
  }
  return out;
}

/// An injector whose single event never fires (for calibration / clean
/// supervised runs).
std::shared_ptr<net::FaultInjector> NeverFires(int victim) {
  net::FaultInjector::Spec spec;
  spec.victim_pe = victim;
  spec.fail_at_op = ~uint64_t{0} / 2;
  return std::make_shared<net::FaultInjector>(spec);
}

void ExpectAllValidated(const SupervisedOutcome& out, int expected_resume) {
  for (int pe = 0; pe < kP; ++pe) {
    EXPECT_TRUE(out.reports[pe].validated) << "PE " << pe;
    EXPECT_EQ(out.reports[pe].resume, expected_resume) << "PE " << pe;
  }
}

// ------------------------------------------------- manifest robustness ----

TEST(CheckpointManifestTest, RoundTripPreservesEveryField) {
  std::string dir = MakeTempDir();
  core::CheckpointManifest m;
  m.config_fingerprint = 0xFEEDFACEDEADBEEFULL;
  m.completed_phase = 3;
  m.restarts = 2;
  m.durable_disk_bytes = {4096, 123456};
  m.sections[1] = std::string("run formation state\0with NUL", 28);
  m.sections[2] = "splitters";
  m.sections[3] = std::string(1000, 'x');
  auto written = m.WriteAtomic(dir, /*rank=*/7);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(written.value(), 0u);

  auto loaded = core::CheckpointManifest::Load(dir, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().config_fingerprint, m.config_fingerprint);
  EXPECT_EQ(loaded.value().completed_phase, 3);
  EXPECT_EQ(loaded.value().restarts, 2u);
  EXPECT_EQ(loaded.value().durable_disk_bytes, m.durable_disk_bytes);
  for (int p = 1; p <= core::CheckpointManifest::kNumPhases; ++p) {
    EXPECT_EQ(loaded.value().sections[p], m.sections[p]) << "section " << p;
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManifestTest, RewriteReplacesAtomically) {
  std::string dir = MakeTempDir();
  core::CheckpointManifest m;
  m.completed_phase = 1;
  m.sections[1] = "first";
  ASSERT_TRUE(m.WriteAtomic(dir, 0).ok());
  m.completed_phase = 2;
  m.sections[2] = "second";
  ASSERT_TRUE(m.WriteAtomic(dir, 0).ok());
  auto loaded = core::CheckpointManifest::Load(dir, 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().completed_phase, 2);
  EXPECT_EQ(loaded.value().sections[2], "second");
  // No temp file may outlive a successful rename.
  EXPECT_FALSE(std::filesystem::exists(
      core::CheckpointManifest::PathFor(dir, 0) + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManifestTest, CorruptPayloadFailsTheCrc) {
  std::string dir = MakeTempDir();
  core::CheckpointManifest m;
  m.completed_phase = 4;
  m.sections[4] = std::string(256, 'm');
  ASSERT_TRUE(m.WriteAtomic(dir, 0).ok());
  std::string path = core::CheckpointManifest::PathFor(dir, 0);
  {
    // Flip one payload byte in place: the CRC must catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char b = 0;
    f.read(&b, 1);
    f.seekp(-5, std::ios::end);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  auto loaded = core::CheckpointManifest::Load(dir, 0);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManifestTest, TruncatedFileIsDetectedAsTorn) {
  std::string dir = MakeTempDir();
  core::CheckpointManifest m;
  m.completed_phase = 2;
  m.sections[2] = std::string(512, 's');
  ASSERT_TRUE(m.WriteAtomic(dir, 0).ok());
  std::string path = core::CheckpointManifest::PathFor(dir, 0);
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto loaded = core::CheckpointManifest::Load(dir, 0);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManifestTest, LeftoverTempFileIsIgnoredAndMissingIsClean) {
  std::string dir = MakeTempDir();
  // A crash between temp-write and rename leaves only "<path>.tmp": Load
  // must not trust it — the manifest is simply absent.
  std::string path = core::CheckpointManifest::PathFor(dir, 3);
  std::ofstream(path + ".tmp") << "half-written garbage";
  auto loaded = core::CheckpointManifest::Load(dir, 3);
  EXPECT_FALSE(loaded.ok());

  // And once a real manifest exists, a stale temp alongside is harmless.
  core::CheckpointManifest m;
  m.completed_phase = 1;
  ASSERT_TRUE(m.WriteAtomic(dir, 3).ok());
  std::ofstream(path + ".tmp") << "stale";
  auto reloaded = core::CheckpointManifest::Load(dir, 3);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().completed_phase, 1);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ fault-injector seams ----

TEST(FaultInjectorEpochTest, EventsArmOnlyInTheirEpoch) {
  net::FaultInjector::Spec first;
  first.victim_pe = 1;
  first.fail_at_op = 3;
  first.epoch = 0;
  net::FaultInjector::Spec second;
  second.victim_pe = 2;
  second.fail_at_op = 2;
  second.epoch = 1;
  net::FaultInjector injector({first, second});

  // Epoch 0: only the first event can fire, at exactly its op.
  EXPECT_FALSE(injector.CountPeOp(1));
  EXPECT_FALSE(injector.CountPeOp(2));  // second event is not armed yet
  EXPECT_FALSE(injector.CountPeOp(2));
  EXPECT_FALSE(injector.CountPeOp(1));
  EXPECT_TRUE(injector.CountPeOp(1));   // op 3 of PE 1
  EXPECT_FALSE(injector.CountPeOp(1));  // fires exactly once
  EXPECT_EQ(injector.OpCount(1), 4u);

  injector.AdvanceEpoch();
  EXPECT_EQ(injector.epoch(), 1);
  EXPECT_EQ(injector.OpCount(1), 0u);   // clocks restart per epoch
  EXPECT_FALSE(injector.CountPeOp(2));
  EXPECT_TRUE(injector.CountPeOp(2));   // op 2 of PE 2, epoch 1
  EXPECT_FALSE(injector.CountPeOp(2));
  // The status of the last fired event names its epoch.
  EXPECT_NE(injector.FaultStatus().message().find("epoch 1"),
            std::string::npos);
}

// ------------------------------------------------------- e2e recovery ----

TEST(RecoverySortTest, CleanRunCheckpointsEveryPhase) {
  std::string dir = MakeTempDir();
  auto out = RunSupervisedSort(net::TransportKind::kInProc, MakeConfig(dir),
                               NeverFires(0), FastRecovery());
  EXPECT_EQ(out.restarts, 0);
  ExpectAllValidated(out, /*expected_resume=*/0);
  for (int pe = 0; pe < kP; ++pe) {
    auto m = core::CheckpointManifest::Load(dir, pe);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(m.value().completed_phase, core::CheckpointManifest::kNumPhases);
    EXPECT_EQ(m.value().restarts, 0u);
    EXPECT_GT(out.stats[pe].checkpoint_bytes, 0u);
  }
  std::filesystem::remove_all(dir);
}

/// The heart of the PR: for every phase p, calibrate the victim's op count
/// at each phase-checkpoint commit on a throwaway directory, then kill the
/// victim two operations after the (p-1)-commit — squarely inside phase p
/// with every rank's manifest agreeing on p-1. The supervised relaunch
/// must consume exactly one restart, resume at p-1 on every rank, replay
/// only phases p..4, and validate; and for p >= 2 the resumed epoch's run
/// formation must do NO disk I/O (completed phases are skipped, not
/// re-run).
void KillEachPhaseAndRecover(
    net::TransportKind kind,
    const std::function<void(core::SortConfig&)>& tweak = {}) {
  auto make_config = [&](const std::string& dir) {
    core::SortConfig config = MakeConfig(dir);
    if (tweak) tweak(config);
    return config;
  };
  const int victim = 2;
  std::array<uint64_t, 5> boundaries{};
  {
    std::string calib_dir = MakeTempDir();
    auto calib = RunSupervisedSort(kind, make_config(calib_dir),
                                   NeverFires(victim), FastRecovery(),
                                   victim, &boundaries);
    ASSERT_EQ(calib.restarts, 0);
    ExpectAllValidated(calib, 0);
    std::filesystem::remove_all(calib_dir);
  }
  for (int phase = 1; phase <= 4; ++phase) {
    ASSERT_GT(boundaries[phase], boundaries[phase - 1] + 2)
        << "phase " << phase << " too narrow to target";
    net::FaultInjector::Spec spec;
    spec.victim_pe = victim;
    spec.fail_at_op = boundaries[phase - 1] + 2;
    spec.reason = "kill in phase " + std::to_string(phase);
    std::string dir = MakeTempDir();
    auto out = RunSupervisedSort(kind, make_config(dir),
                                 std::make_shared<net::FaultInjector>(spec),
                                 FastRecovery());
    EXPECT_EQ(out.restarts, 1) << "phase " << phase;
    ExpectAllValidated(out, /*expected_resume=*/phase - 1);
    for (int pe = 0; pe < kP; ++pe) {
      EXPECT_EQ(out.stats[pe].restarts, 1u) << "phase " << phase;
      EXPECT_EQ(out.stats[pe].phases_replayed,
                static_cast<uint64_t>(5 - phase))
          << "phase " << phase << " PE " << pe;
      if (phase >= 2) {
        // Resume >= 1: run formation is restored from the manifest, never
        // re-executed — its I/O counters must stay silent.
        EXPECT_EQ(out.reports[pe].report.Get(core::Phase::kRunFormation)
                      .io.bytes(),
                  0u)
            << "phase " << phase << " PE " << pe
            << " re-ran a completed phase";
      }
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(RecoverySortTest, KillEachPhaseInprocRecovers) {
  KillEachPhaseAndRecover(net::TransportKind::kInProc);
}

TEST(RecoverySortTest, KillEachPhaseTcpRecovers) {
  KillEachPhaseAndRecover(net::TransportKind::kTcp);
}

TEST(RecoverySortTest, KillEachPhaseHierRecovers) {
  KillEachPhaseAndRecover(net::TransportKind::kHier);
}

// The same sweep on every new file-backed storage backend: the durable
// contract (Flush before the manifest barrier, TrustOnly on reopen,
// durable-length validation) must hold regardless of how the bytes reach
// the file. Kinds the host cannot serve skip with the probe's reason.

void KillEachPhaseOnBackend(io::BackendKind backend) {
  {
    std::string probe_dir = MakeTempDir();
    Status probe =
        io::BlockManager::ProbeBackend(backend, 4 * 1024, probe_dir);
    std::filesystem::remove_all(probe_dir);
    if (!probe.ok()) {
      GTEST_SKIP() << io::BackendKindName(backend)
                   << " unavailable here: " << probe.ToString();
    }
  }
  KillEachPhaseAndRecover(net::TransportKind::kInProc,
                          [backend](core::SortConfig& config) {
                            config.backend = backend;
                          });
}

TEST(RecoverySortTest, KillEachPhaseMmapBackendRecovers) {
  KillEachPhaseOnBackend(io::BackendKind::kMmap);
}

TEST(RecoverySortTest, KillEachPhaseDirectBackendRecovers) {
  KillEachPhaseOnBackend(io::BackendKind::kDirect);
}

TEST(RecoverySortTest, KillEachPhaseUringBackendRecovers) {
  KillEachPhaseOnBackend(io::BackendKind::kUring);
}

TEST(RecoverySortTest, KillEachPhaseParallelMergeRecovers) {
  // The range-partitioned multi-threaded final merge must keep the same
  // checkpoint seams: the merge output manifest a resumed epoch restores is
  // identical no matter how many workers produced it, and killing inside
  // any phase with a parallel pool recovers exactly like single-threaded.
  KillEachPhaseAndRecover(net::TransportKind::kInProc,
                          [](core::SortConfig& config) {
                            config.threads_per_pe = 4;
                          });
}

TEST(RecoverySortTest, KillEachPhaseStripedAsyncFilesRecovers) {
  // Striped files under the async pump at queue depth: the recovery path
  // must reopen all K stripe files per disk and the striping-aware
  // durable-length check must accept the healthy layout.
  KillEachPhaseAndRecover(net::TransportKind::kInProc,
                          [](core::SortConfig& config) {
                            config.async_io = true;
                            config.files_per_disk = 2;
                            config.io_queue_depth = 4;
                          });
}

TEST(RecoverySortTest, SecondFailureDuringRecoveryConsumesTwoRestarts) {
  // Epoch 0 dies mid-sort; the relaunched epoch 1 dies again (a different
  // victim, early); epoch 2 completes. The budget admits both.
  net::FaultInjector::Spec first;
  first.victim_pe = 1;
  first.fail_at_op = 60;
  first.epoch = 0;
  net::FaultInjector::Spec second;
  second.victim_pe = 3;
  second.fail_at_op = 25;
  second.epoch = 1;
  std::string dir = MakeTempDir();
  auto out = RunSupervisedSort(
      net::TransportKind::kInProc, MakeConfig(dir),
      std::make_shared<net::FaultInjector>(
          std::vector<net::FaultInjector::Spec>{first, second}),
      FastRecovery(/*max_restarts=*/3));
  EXPECT_EQ(out.restarts, 2);
  for (int pe = 0; pe < kP; ++pe) {
    EXPECT_TRUE(out.reports[pe].validated) << "PE " << pe;
    EXPECT_EQ(out.stats[pe].restarts, 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RecoverySortTest, SpentBudgetEscalatesTheContainmentError) {
  // A kill in every epoch: with max_restarts = 2 the third failure must
  // re-raise CommError to the caller — the PR 3 containment contract is
  // the floor recovery stands on, not something it replaces.
  std::vector<net::FaultInjector::Spec> events(3);
  for (int e = 0; e < 3; ++e) {
    events[e].victim_pe = 1;
    events[e].fail_at_op = 40;
    events[e].epoch = e;
  }
  std::string dir = MakeTempDir();
  EXPECT_THROW(
      RunSupervisedSort(net::TransportKind::kInProc, MakeConfig(dir),
                        std::make_shared<net::FaultInjector>(events),
                        FastRecovery(/*max_restarts=*/2)),
      net::CommError);
  std::filesystem::remove_all(dir);
}

// ------------------------------------- manifest-vs-reality fall-backs ----

/// After a completed run, re-launching with a tampered checkpoint state
/// must fall back to a from-scratch sort that still validates — never
/// crash, never trust the stale data.
SupervisedOutcome RerunAfterTamper(const core::SortConfig& config,
                                   const std::function<void()>& tamper) {
  auto first = RunSupervisedSort(net::TransportKind::kInProc, config,
                                 NeverFires(0), FastRecovery());
  EXPECT_EQ(first.restarts, 0);
  ExpectAllValidated(first, 0);
  tamper();
  return RunSupervisedSort(net::TransportKind::kInProc, config,
                           NeverFires(0), FastRecovery());
}

TEST(RecoveryFallbackTest, CompletedManifestShortCircuitsTheRerun) {
  // No tampering at all: the second launch finds completed_phase == 4
  // everywhere and replays nothing — it reassembles the output from the
  // manifests and validates it.
  std::string dir = MakeTempDir();
  auto out = RerunAfterTamper(MakeConfig(dir), [] {});
  ExpectAllValidated(out, /*expected_resume=*/4);
  for (int pe = 0; pe < kP; ++pe) {
    EXPECT_EQ(out.reports[pe].report.Get(core::Phase::kRunFormation)
                  .io.bytes(),
              0u);
    EXPECT_EQ(out.reports[pe].report.Get(core::Phase::kAllToAll).io.bytes(),
              0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RecoveryFallbackTest, CorruptManifestCrcFallsBackToScratch) {
  std::string dir = MakeTempDir();
  auto out = RerunAfterTamper(MakeConfig(dir), [&] {
    std::string path = core::CheckpointManifest::PathFor(dir, 1);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::end);
    b = static_cast<char>(b ^ 0xFF);
    f.write(&b, 1);
  });
  // One rank's torn manifest drags the cluster vote to scratch (min rule).
  ExpectAllValidated(out, /*expected_resume=*/0);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryFallbackTest, StaleConfigFingerprintFallsBackToScratch) {
  std::string dir = MakeTempDir();
  core::SortConfig config = MakeConfig(dir);
  auto first = RunSupervisedSort(net::TransportKind::kInProc, config,
                                 NeverFires(0), FastRecovery());
  ExpectAllValidated(first, 0);
  // Same directory, different input seed: the manifests describe another
  // job and must be rejected wholesale, not half-resumed.
  config.seed = 99;
  auto out = RunSupervisedSort(net::TransportKind::kInProc, config,
                               NeverFires(0), FastRecovery());
  ExpectAllValidated(out, /*expected_resume=*/0);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryFallbackTest, MissingRunFileFallsBackToScratch) {
  std::string dir = MakeTempDir();
  auto out = RerunAfterTamper(MakeConfig(dir), [&] {
    std::filesystem::remove(io::BlockManager::DiskFilePath(dir, 2, 0));
  });
  ExpectAllValidated(out, /*expected_resume=*/0);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryFallbackTest, TruncatedRunFileFallsBackToScratch) {
  // The torn-tail regression: a run file shorter than the durable length
  // its manifest checkpointed means blocks the manifest vouches for are
  // gone. FileBackend::Open would happily round the length UP and serve
  // garbage reads — the manifest's durable_disk_bytes is what refuses it.
  std::string dir = MakeTempDir();
  auto out = RerunAfterTamper(MakeConfig(dir), [&] {
    std::string path = io::BlockManager::DiskFilePath(dir, 2, 1);
    auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 100u);
    std::filesystem::resize_file(path, size - 100);
  });
  ExpectAllValidated(out, /*expected_resume=*/0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace demsort
