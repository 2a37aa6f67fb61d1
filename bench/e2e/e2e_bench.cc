// One measured CanonicalMergeSort repeat of one end-to-end workload.
//
// run.py starts this program once per repeat, so every repeat gets a fresh
// process: allocator state, trace rings and the page cache of the previous
// repeat's (unlinked) disk files never carry over. The program measures
// each layer from the outside only: its own timers and barriers around the
// public calls (PeResources, Generate*, CanonicalMergeSort,
// ValidateCollective), the SortReport counters, /proc/self/status and
// getrusage, and — in a traced repeat — the spans src/ already records.
//
// Usage:
//   e2e_bench --workload=NAME --seed=N --scratch-dir=DIR
//             [--trace-out=FILE] [--smoke] [--set=field=value[,...]]
//
// Prints one JSON object on stdout. Exit status: 0 when the sort ran (the
// object's "valid" says whether its output checked out), 1 when a repeat
// threw or an integrity gate failed, 2 for bad arguments or a host that
// cannot serve the workload (wrong filesystem, no space, missing backend).
#include <fcntl.h>
#include <linux/magic.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "io/block_manager.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "net/tcp_transport.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/cost_model.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace demsort::e2e {
namespace {

using core::Phase;
using workload::Distribution;

constexpr int kNumPhases = static_cast<int>(Phase::kNumPhases);

// Geometry shared by every workload: m/B = 128 blocks of memory per PE, as
// in the figure benches (bench_util.h FigureConfig), and D = 2 disks per PE.
// --smoke divides B and m by 8 (m/B unchanged) and the input by 64.
constexpr size_t kBlockBytes = size_t{32} << 10;
constexpr size_t kMemoryPerPe = size_t{4} << 20;
constexpr uint32_t kDisksPerPe = 2;

struct Workload {
  const char* name;
  bool gray100;  // 100-byte SortBenchmark records; otherwise KV16
  Distribution dist;
  bool randomize_blocks;
  int pes;
  int pes_per_node;  // > 0: two-level machine over the in-process hier harness
  uint32_t threads_per_pe;
  io::BackendKind backend;
  uint64_t elements_per_pe;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"graysort_uniform", true, Distribution::kUniform, true, 4, 0, 1,
     io::BackendKind::kUring, 625'000},  // 62.5 MB/PE, R = 15
    {"kv16_worstcase_norand", false, Distribution::kWorstCaseLocal, false, 4,
     0, 1, io::BackendKind::kFile, uint64_t{4} << 20},  // 64 MiB/PE, R = 16
    {"kv16_zipf_hier", false, Distribution::kZipf, true, 4, 2, 1,
     io::BackendKind::kUring, uint64_t{4} << 20},  // 64 MiB/PE, R = 16
    {"kv16_uniform_mem", false, Distribution::kUniform, true, 2, 0, 2,
     io::BackendKind::kMemory, uint64_t{6} << 20},  // 96 MiB/PE, R = 24
};

/// A host that cannot serve the workload as specified, or a bad argument.
struct HostError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Fail(const std::string& what) { throw HostError(what); }

double Seconds(int64_t since_ns) { return (NowNanos() - since_ns) * 1e-9; }

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Restarts VmHWM from the current RSS, so the generator's buffers do not
/// count towards the sort's peak.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) Fail("cannot reset VmHWM via /proc/self/clear_refs");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  Fail("no VmHWM in /proc/self/status");
}

/// Flushes the scratch filesystem so the generator's write-back does not
/// land inside the sort window.
void SyncScratch(const std::string& dir) {
  if (dir.empty()) return;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0 || ::syncfs(fd) != 0) {
    Fail("syncfs(" + dir + "): " + std::strerror(errno));
  }
  ::close(fd);
}

/// The host must serve the workload as specified; a substitute would
/// mislabel every number.
void CheckHost(const Workload& w, const core::SortConfig& config,
               uint64_t workload_bytes) {
  if (!io::IsFileBacked(w.backend)) return;
  const std::string& dir = config.file_dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Fail("mkdir(" + dir + "): " + std::strerror(errno));
  }
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) {
    Fail("statfs(" + dir + "): " + std::strerror(errno));
  }
  if (fs.f_type == TMPFS_MAGIC) {
    Fail("scratch dir " + dir + " is on tmpfs; the workload needs a disk");
  }
  const uint64_t free_bytes =
      static_cast<uint64_t>(fs.f_bavail) * static_cast<uint64_t>(fs.f_bsize);
  if (free_bytes < 3 * workload_bytes) {
    Fail("scratch dir " + dir + " has " + std::to_string(free_bytes) +
         " bytes free; needs 3 x " + std::to_string(workload_bytes));
  }
  Status probe =
      io::BlockManager::ProbeBackend(w.backend, config.block_size, dir);
  if (!probe.ok()) {
    Fail(std::string("backend ") + io::BackendKindName(w.backend) +
         " unavailable: " + probe.ToString());
  }
  if (w.backend == io::BackendKind::kUring) {
    // The uring backend quietly drops to buffered I/O where O_DIRECT is
    // refused; the workload is defined with O_DIRECT.
    Status direct = io::BlockManager::ProbeBackend(io::BackendKind::kDirect,
                                                   config.block_size, dir);
    if (!direct.ok()) {
      Fail("O_DIRECT unavailable in " + dir + ": " + direct.ToString());
    }
  }
}

bool ParseBool(const std::string& v) {
  if (v == "1" || v == "true" || v == "on") return true;
  if (v == "0" || v == "false" || v == "off") return false;
  Fail("--set: '" + v + "' is not a boolean");
}

/// --set=field=value[,field=value]: diagnostic overrides of existing
/// SortConfig fields. Results carrying them are tagged "overridden".
void ApplyOverrides(const std::string& spec, core::SortConfig* config) {
  std::stringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos) Fail("--set: expected field=value");
    std::string field = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    if (field == "overlap_run_formation") {
      config->overlap_run_formation = ParseBool(value);
    } else if (field == "async_io") {
      config->async_io = ParseBool(value);
    } else if (field == "threads_per_pe") {
      int64_t t = std::strtoll(value.c_str(), nullptr, 10);
      if (t < 1 || t > 64) Fail("--set: threads_per_pe out of range");
      config->threads_per_pe = static_cast<uint32_t>(t);
    } else {
      Fail("--set: unknown field '" + field +
           "' (overlap_run_formation, async_io, threads_per_pe)");
    }
  }
}

// ------------------------------------------------------------ the repeat --

struct Repeat {
  std::vector<core::SortReport> reports;
  bool valid = true;
  double setup_s = 0;
  double generate_s = 0;
  double sort_s = 0;
  double validate_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

template <typename R>
workload::GeneratedInput<R> Generate(io::BlockManager* bm, const Workload& w,
                                     uint64_t n, int rank, int num_pes,
                                     uint64_t seed) {
  if constexpr (std::is_same_v<R, core::Gray100>) {
    return workload::GenerateGray100(bm, n, rank, num_pes, seed);
  } else {
    return workload::GenerateKV16(bm, w.dist, n, rank, num_pes, seed);
  }
}

/// One PE's part of the repeat. Rank 0 owns the timers; every interval it
/// times is opened and closed by a barrier, so it spans all PEs.
template <typename R>
void RunPe(net::Comm& comm, const Workload& w, const core::SortConfig& config,
           uint64_t n_per_pe, bool traced, int64_t launch_ns, Repeat* out,
           std::mutex* mu) {
  const bool root = comm.rank() == 0;
  core::PeResources resources(&comm, config);
  core::PeContext& ctx = resources.ctx();
  comm.Barrier();
  if (root) out->setup_s = Seconds(launch_ns);

  int64_t t0 = NowNanos();
  workload::GeneratedInput<R> gen = Generate<R>(
      ctx.bm, w, n_per_pe, comm.rank(), comm.size(), config.seed);
  ctx.bm->DrainAll();
  comm.Barrier();
  double cpu_before = 0;
  if (root) {
    out->generate_s = Seconds(t0);
    SyncScratch(config.file_dir);
    ResetPeakRss();
    cpu_before = CpuSeconds();
    if (traced) obs::Tracer::Get().Enable();
  }
  comm.Barrier();

  t0 = NowNanos();
  core::SortOutput<R> sorted;
  {
    obs::ScopedSpan span("bench", "bench.sort");
    sorted = core::CanonicalMergeSort<R>(ctx, config, gen.input);
  }
  comm.Barrier();
  if (root) {
    out->sort_s = Seconds(t0);
    out->cpu_s = CpuSeconds() - cpu_before;
    out->peak_rss_mb = PeakRssMb();
    obs::Tracer::Get().Disable();
  }
  comm.Barrier();

  t0 = NowNanos();
  workload::ValidationResult v = workload::ValidateCollective<R>(
      ctx, sorted.blocks, sorted.num_elements, gen.checksum);
  comm.Barrier();
  if (root) out->validate_s = Seconds(t0);

  std::lock_guard<std::mutex> lock(*mu);
  out->reports[comm.rank()] = sorted.report;
  if (!v.ok() || !v.partition_exact) {
    std::fprintf(stderr, "e2e_bench: rank %d output invalid: %s\n",
                 comm.rank(), v.ToString().c_str());
    out->valid = false;
  }
}

Repeat RunRepeat(const Workload& w, const core::SortConfig& config,
                 uint64_t n_per_pe, bool traced) {
  Repeat out;
  out.reports.resize(w.pes);
  std::mutex mu;
  net::Cluster::Options options;
  options.num_pes = w.pes;
  options.pes_per_node = w.pes_per_node;
  const net::TransportKind kind = w.pes_per_node > 0
                                      ? net::TransportKind::kHier
                                      : net::TransportKind::kInProc;
  const int64_t launch_ns = NowNanos();
  net::RunOverTransport(kind, options, [&](net::Comm& comm) {
    if (w.gray100) {
      RunPe<core::Gray100>(comm, w, config, n_per_pe, traced, launch_ns, &out,
                           &mu);
    } else {
      RunPe<core::KV16>(comm, w, config, n_per_pe, traced, launch_ns, &out,
                        &mu);
    }
  });
  return out;
}

// ------------------------------------------------------------- metrics --

using Metrics = std::vector<std::pair<std::string, double>>;

std::string PhaseKey(int p, const char* suffix) {
  return std::string(core::PhaseName(static_cast<Phase>(p))) + "." + suffix;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every metric of one repeat that a counter or an outside timer gives.
Metrics CounterMetrics(const Repeat& r, uint64_t n_records,
                       size_t record_bytes, size_t block_bytes) {
  const double n_bytes = static_cast<double>(n_records) * record_bytes;
  const double nproc = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  Metrics m;
  m.emplace_back("sort_s", r.sort_s);
  m.emplace_back("records_per_s", n_records / r.sort_s);
  m.emplace_back("mb_per_s", n_bytes / 1e6 / r.sort_s);
  m.emplace_back("setup_s", r.setup_s);
  m.emplace_back("peak_rss_mb", r.peak_rss_mb);
  m.emplace_back("cpu_s_per_gb", r.cpu_s / (n_bytes / 1e9));

  double io_total = 0;
  double net_total = 0;
  uint64_t credit_msgs = 0, piggybacked = 0, leases = 0, hits = 0;
  uint64_t intra = 0, inter = 0;
  Metrics per_phase;
  for (int p = 0; p < kNumPhases; ++p) {
    double wall = 0;
    io::IoStatsSnapshot io;
    uint64_t net_bytes = 0, net_msgs = 0, recv_peak = 0;
    for (const core::SortReport& rep : r.reports) {
      const core::PhaseStats& s = rep.Get(static_cast<Phase>(p));
      wall = std::max(wall, s.wall_s);
      io += s.io;
      net_bytes += s.net.bytes_sent;
      net_msgs += s.net.messages_sent;
      recv_peak = std::max(recv_peak, s.net.recv_buffer_peak_bytes);
      credit_msgs += s.net.credit_msgs;
      piggybacked += s.net.piggybacked_credits;
      leases += s.net.pool_leases;
      hits += s.net.pool_hits;
      intra += s.net.intra_node_bytes;
      inter += s.net.inter_node_bytes;
    }
    io_total += static_cast<double>(io.bytes());
    net_total += static_cast<double>(net_bytes);
    per_phase.emplace_back("core." + PhaseKey(p, "wall_s"), wall);
    per_phase.emplace_back("io." + PhaseKey(p, "volume_over_n"),
                           io.bytes() / n_bytes);
    per_phase.emplace_back("io." + PhaseKey(p, "queue_depth_mean"),
                           io.mean_queue_depth());
    per_phase.emplace_back(
        "io." + PhaseKey(p, "lat_p50_us"),
        static_cast<double>(io.LatencyPercentileUpperUs(0.5)));
    per_phase.emplace_back(
        "io." + PhaseKey(p, "lat_p99_us"),
        static_cast<double>(io.LatencyPercentileUpperUs(0.99)));
    per_phase.emplace_back("net." + PhaseKey(p, "volume_over_n"),
                           net_bytes / n_bytes);
    per_phase.emplace_back("net." + PhaseKey(p, "msgs"),
                           static_cast<double>(net_msgs));
    per_phase.emplace_back("net." + PhaseKey(p, "recv_buffer_peak_kib"),
                           recv_peak / 1024.0);
  }
  m.emplace_back("io_volume_over_n", io_total / n_bytes);
  m.emplace_back("comm_volume_over_n", net_total / n_bytes);
  m.insert(m.end(), per_phase.begin(), per_phase.end());

  uint64_t max_out = 0, sum_out = 0, peak_blocks = 0;
  const core::PhaseStats* merge_max = nullptr;
  uint64_t demand = 0;
  for (const core::SortReport& rep : r.reports) {
    max_out = std::max(max_out, rep.local_output_elements);
    sum_out += rep.local_output_elements;
    peak_blocks = std::max(peak_blocks, rep.peak_blocks);
    const core::PhaseStats& fm = rep.Get(Phase::kFinalMerge);
    demand += fm.demand_fetches;
    if (merge_max == nullptr || fm.merge_cpu_ms > merge_max->merge_cpu_ms) {
      merge_max = &fm;
    }
  }
  m.emplace_back("core.num_runs",
                 static_cast<double>(r.reports.front().num_runs));
  m.emplace_back("core.output_imbalance",
                 Ratio(static_cast<double>(max_out),
                       static_cast<double>(sum_out) / r.reports.size()));
  m.emplace_back("core.peak_blocks_mb",
                 static_cast<double>(peak_blocks) * block_bytes / 1e6);
  m.emplace_back("core.sort_cpu_util", r.cpu_s / (r.sort_s * nproc));
  m.emplace_back("core.final_merge.workers",
                 static_cast<double>(merge_max->merge_workers));
  m.emplace_back("core.final_merge.cpu_ms", merge_max->merge_cpu_ms);
  m.emplace_back("core.final_merge.io_wait_ms", merge_max->merge_io_wait_ms);
  m.emplace_back("core.final_merge.demand_fetches",
                 static_cast<double>(demand));
  m.emplace_back("net.credit_msgs", static_cast<double>(credit_msgs));
  m.emplace_back("net.piggybacked_credits", static_cast<double>(piggybacked));
  m.emplace_back("net.pool_hit_frac", Ratio(hits, leases));
  m.emplace_back("net.intra_node_over_n", intra / n_bytes);
  m.emplace_back("net.inter_node_over_n", inter / n_bytes);
  m.emplace_back("sim.modeled_s", sim::CostModel().TotalSeconds(r.reports));
  m.emplace_back("bench.generate_s", r.generate_s);
  m.emplace_back("bench.validate_s", r.validate_s);
  return m;
}

/// Per-phase byte counters that must repeat for a fixed seed: run.py checks
/// every repeat, the traced one included, against the first.
std::vector<std::pair<std::string, uint64_t>> VolumeCounters(const Repeat& r) {
  std::vector<std::pair<std::string, uint64_t>> volume;
  for (int p = 0; p < kNumPhases; ++p) {
    uint64_t read = 0, written = 0, sent = 0;
    for (const core::SortReport& rep : r.reports) {
      const core::PhaseStats& s = rep.Get(static_cast<Phase>(p));
      read += s.io.bytes_read;
      written += s.io.bytes_written;
      sent += s.net.bytes_sent;
    }
    volume.emplace_back(PhaseKey(p, "io_bytes_read"), read);
    volume.emplace_back(PhaseKey(p, "io_bytes_written"), written);
    volume.emplace_back(PhaseKey(p, "net_bytes_sent"), sent);
  }
  return volume;
}

// --------------------------------------------------- trace attribution --

struct Interval {
  int64_t begin;
  int64_t end;
  std::string name;
};

/// Where a PE-thread instant inside a phase went.
enum Cause {
  kCompute,
  kDiskWait,
  kNet,
  kNetStall,
  kBarrier,
  kUnattributed,
  kNumCauses,
};
const char* const kCauseNames[kNumCauses] = {
    "compute_s", "disk_wait_s", "net_s", "net_stall_s", "barrier_s",
    "unattributed_s"};

Cause CauseOf(const std::string& span) {
  if (span == "rf.sort" || span == "merge.partition") return kCompute;
  if (span == "rf.read_wait" || span == "rf.write_drain" ||
      span == "rf.write_drain.final") {
    return kDiskWait;
  }
  if (span == "stream.round" || span == "a2a.stream") return kNet;
  if (span == "stream.credit_stall") return kNetStall;
  if (span == "barrier") return kBarrier;
  return kUnattributed;
}

int PhaseIndex(const std::string& name) {
  for (int p = 0; p < kNumPhases; ++p) {
    if (name == core::PhaseName(static_cast<Phase>(p))) return p;
  }
  return -1;
}

/// B/E pairs and complete events of one track as intervals.
std::vector<Interval> TrackIntervals(const obs::Tracer::WireTrace& trace,
                                     std::vector<obs::Tracer::WireEvent> evs) {
  std::stable_sort(evs.begin(), evs.end(), [](const auto& a, const auto& b) {
    return a.ts_ns < b.ts_ns;
  });
  std::vector<Interval> out;
  std::vector<const obs::Tracer::WireEvent*> open;
  for (const auto& e : evs) {
    if (e.type == obs::EventType::kBegin) {
      open.push_back(&e);
    } else if (e.type == obs::EventType::kEnd && !open.empty()) {
      out.push_back({open.back()->ts_ns, e.ts_ns,
                     trace.strings[open.back()->name]});
      open.pop_back();
    } else if (e.type == obs::EventType::kComplete) {
      out.push_back({e.ts_ns, e.ts_ns + e.dur_ns, trace.strings[e.name]});
    }
  }
  return out;
}

/// Total length of the union of `spans`, clipped to [lo, hi).
double UnionSeconds(std::vector<std::pair<int64_t, int64_t>> spans,
                    int64_t lo, int64_t hi) {
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [b, e] : spans) {
    b = std::max({b, cursor, lo});
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered * 1e-9;
}

/// Per-phase attribution of the PE thread's wall time (max over ranks; the
/// attributed share of the phase: min over ranks) and the disks' busy time.
/// Self time: each instant of a phase goes to the innermost span covering
/// it on the PE thread; instants no span covers are unattributed — except
/// in the final merge, where the PE thread waiting while pool workers merge
/// counts as merge compute. Merge workers' block-read waits
/// (merge_io_wait_ms, summed over workers) move from compute to disk wait
/// at their per-worker mean.
Metrics TraceMetrics(const obs::Tracer::WireTrace& trace,
                     const std::vector<core::SortReport>& reports) {
  std::map<uint32_t, std::string> thread_name;
  for (auto [tid, sid] : trace.thread_names) {
    thread_name[tid] = trace.strings[sid];
  }
  using Track = std::vector<obs::Tracer::WireEvent>;
  std::map<std::pair<int, uint32_t>, Track> tracks;  // (rank, tid)
  for (const auto& e : trace.events) {
    if (e.rank >= 0) tracks[{e.rank, e.tid}].push_back(e);
  }

  const int num_ranks = static_cast<int>(reports.size());
  double cause_max[kNumPhases][kNumCauses] = {};
  double busy_max[kNumPhases] = {};
  double attributed_min[kNumPhases] = {1, 1, 1, 1};
  for (int rank = 0; rank < num_ranks; ++rank) {
    std::vector<Interval> pe;
    std::vector<std::pair<int64_t, int64_t>> worker_merges, disk_ops;
    for (auto& [key, evs] : tracks) {
      if (key.first != rank) continue;
      const std::string& tname = thread_name[key.second];
      std::vector<Interval> ivs = TrackIntervals(trace, evs);
      if (tname == "pe") {
        pe = std::move(ivs);
      } else {
        for (const Interval& iv : ivs) {
          if (iv.name == "merge.partition") {
            worker_merges.emplace_back(iv.begin, iv.end);
          } else if (iv.name == "io.read" || iv.name == "io.write") {
            disk_ops.emplace_back(iv.begin, iv.end);
          }
        }
      }
    }
    // Innermost-span sweep over the PE thread: sorted by (begin, -end), a
    // stack of open spans, each gap between boundaries charged to the top.
    std::sort(pe.begin(), pe.end(), [](const Interval& a, const Interval& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    struct Open {
      const Interval* iv;
      int64_t end;
      int phase;
    };
    double cause[kNumPhases][kNumCauses] = {};
    int64_t phase_begin[kNumPhases] = {}, phase_end[kNumPhases] = {};
    std::vector<std::pair<int64_t, int64_t>> merge_gaps;
    std::vector<Open> stack;
    int64_t cursor = 0;
    auto charge = [&](const Open& top, int64_t until) {
      if (until <= cursor || top.phase < 0) return;
      const bool phase_self = PhaseIndex(top.iv->name) >= 0;
      Cause c = phase_self ? kUnattributed : CauseOf(top.iv->name);
      if (phase_self && top.phase == static_cast<int>(Phase::kFinalMerge)) {
        merge_gaps.emplace_back(cursor, until);
      }
      cause[top.phase][c] += (until - cursor) * 1e-9;
    };
    auto close_until = [&](int64_t t) {
      while (!stack.empty() && stack.back().end <= t) {
        charge(stack.back(), stack.back().end);
        cursor = std::max(cursor, stack.back().end);
        stack.pop_back();
      }
      if (!stack.empty()) charge(stack.back(), t);
      cursor = std::max(cursor, t);
    };
    for (const Interval& iv : pe) {
      close_until(iv.begin);
      int phase = stack.empty() ? -1 : stack.back().phase;
      int64_t end =
          stack.empty() ? iv.end : std::min(iv.end, stack.back().end);
      if (int p = PhaseIndex(iv.name); p >= 0) {
        phase = p;
        phase_begin[p] = iv.begin;
        phase_end[p] = iv.end;
      }
      stack.push_back({&iv, end, phase});
    }
    close_until(INT64_MAX);

    const int fm = static_cast<int>(Phase::kFinalMerge);
    double waited_on_workers = 0;
    for (auto [b, e] : merge_gaps) {
      waited_on_workers += UnionSeconds(worker_merges, b, e);
    }
    cause[fm][kUnattributed] -= waited_on_workers;
    cause[fm][kCompute] += waited_on_workers;
    const core::PhaseStats& fs = reports[rank].Get(Phase::kFinalMerge);
    double io_wait = std::min(
        cause[fm][kCompute],
        fs.merge_io_wait_ms * 1e-3 /
            static_cast<double>(std::max<uint64_t>(1, fs.merge_workers)));
    cause[fm][kCompute] -= io_wait;
    cause[fm][kDiskWait] += io_wait;

    for (int p = 0; p < kNumPhases; ++p) {
      for (int c = 0; c < kNumCauses; ++c) {
        cause_max[p][c] = std::max(cause_max[p][c], cause[p][c]);
      }
      busy_max[p] = std::max(
          busy_max[p], UnionSeconds(disk_ops, phase_begin[p], phase_end[p]));
      const double wall = (phase_end[p] - phase_begin[p]) * 1e-9;
      if (wall > 0) {
        attributed_min[p] = std::min(attributed_min[p],
                                     1 - cause[p][kUnattributed] / wall);
      }
    }
  }

  Metrics m;
  for (int p = 0; p < kNumPhases; ++p) {
    for (int c = 0; c < kNumCauses; ++c) {
      m.emplace_back("core." + PhaseKey(p, kCauseNames[c]), cause_max[p][c]);
    }
    m.emplace_back("core." + PhaseKey(p, "attributed_frac"),
                   attributed_min[p]);
    m.emplace_back("io." + PhaseKey(p, "busy_s"), busy_max[p]);
  }
  m.emplace_back("obs.trace_events", static_cast<double>(trace.events.size()));
  m.emplace_back("obs.trace_dropped_events",
                 static_cast<double>(trace.dropped));
  return m;
}

/// Writes the Chrome trace and lints it; returns the lint verdict.
bool WriteAndLintTrace(const std::vector<uint8_t>& blob,
                       const std::string& path, std::string* err) {
  if (!obs::Tracer::WriteChromeTraceJson(path, {blob})) {
    *err = "cannot write " + path;
    return false;
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  obs::TraceLint lint;
  if (!obs::LintChromeTrace(text.str(), &lint)) {
    *err = "trace lint: " + lint.err;
    return false;
  }
  for (int p = 0; p < kNumPhases; ++p) {
    if (lint.names.count(core::PhaseName(static_cast<Phase>(p))) == 0) {
      *err = std::string("trace lint: no span for phase ") +
             core::PhaseName(static_cast<Phase>(p));
      return false;
    }
  }
  if (!lint.balanced || !lint.monotonic) {
    *err = "trace lint: unbalanced or non-monotonic track";
    return false;
  }
  return true;
}

// ------------------------------------------------------------- output --

void PrintObject(const Metrics& m) {
  std::printf("{");
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", m[i].first.c_str(),
                m[i].second);
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) Fail("unknown --workload '" + name + "'");
  if (!flags.Has("seed")) Fail("--seed is required");
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_out = flags.GetString("trace-out", "");
  const bool traced = !trace_out.empty();
  const std::string overrides = flags.GetString("set", "");

  core::SortConfig config;
  config.block_size = smoke ? kBlockBytes / 8 : kBlockBytes;
  config.memory_per_pe = smoke ? kMemoryPerPe / 8 : kMemoryPerPe;
  config.disks_per_pe = kDisksPerPe;
  config.threads_per_pe = w->threads_per_pe;
  config.randomize_blocks = w->randomize_blocks;
  config.backend = w->backend;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  if (io::IsFileBacked(w->backend)) {
    config.file_dir = flags.GetString("scratch-dir", "");
    if (config.file_dir.empty()) Fail("--scratch-dir is required");
  }
  if (!overrides.empty()) ApplyOverrides(overrides, &config);
  if (Status s = config.Validate(); !s.ok()) Fail(s.ToString());

  const uint64_t n_per_pe =
      smoke ? w->elements_per_pe / 64 : w->elements_per_pe;
  const size_t record_bytes = w->gray100 ? sizeof(core::Gray100)
                                         : sizeof(core::KV16);
  const uint64_t n_records = n_per_pe * static_cast<uint64_t>(w->pes);
  CheckHost(*w, config, n_records * record_bytes);

  Repeat r = RunRepeat(*w, config, n_per_pe, traced);

  bool gates_ok = r.valid;
  Metrics trace_metrics;
  if (traced) {
    obs::Tracer& tracer = obs::Tracer::Get();
    std::vector<uint8_t> blob = tracer.SerializeRank(-1);
    obs::Tracer::WireTrace trace;
    if (!obs::Tracer::DecodeWire(blob, &trace)) {
      throw std::runtime_error("trace decode failed");
    }
    trace_metrics = TraceMetrics(trace, r.reports);
    if (trace.dropped != 0) {
      std::fprintf(stderr, "e2e_bench: trace dropped %llu events\n",
                   static_cast<unsigned long long>(trace.dropped));
      gates_ok = false;
    }
    std::string err;
    if (!WriteAndLintTrace(blob, trace_out, &err)) {
      std::fprintf(stderr, "e2e_bench: %s\n", err.c_str());
      gates_ok = false;
    }
  }

  std::printf("{\"workload\": \"%s\", \"valid\": %s, \"traced\": %s, "
              "\"metrics\": ",
              w->name, r.valid ? "true" : "false", traced ? "true" : "false");
  PrintObject(CounterMetrics(r, n_records, record_bytes, config.block_size));
  std::printf(", \"trace_metrics\": ");
  PrintObject(trace_metrics);
  std::printf(", \"volume\": {");
  auto volume = VolumeCounters(r);
  for (size_t i = 0; i < volume.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", volume[i].first.c_str(),
                static_cast<unsigned long long>(volume[i].second));
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace demsort::e2e

int main(int argc, char** argv) {
  try {
    return demsort::e2e::Main(argc, argv);
  } catch (const demsort::e2e::HostError& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: repeat failed: %s\n", e.what());
    return 1;
  }
}
