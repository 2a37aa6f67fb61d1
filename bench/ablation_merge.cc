// Ablation: the parallel external merge engine (range-partitioned
// multi-threaded final merge over the batched loser-tree kernel) against
// its own single-threaded run, on uniform and clustered keys.
//
// Drives FinalMerge directly on one PE — sorted runs are fabricated and
// written through the striped writer, then merged under every
// (keys, threads) cell — so the numbers isolate the merge engine from
// run formation and redistribution. Storage flags sweep the backends like
// the other storage ablations; unavailable backends skip with a marker.
//
// --self-check: the CI smoke. Merges once with 1 thread and once with
// --threads threads (whatever storage is configured) and
// fails unless the parallel wall is at most --max-ratio of single-thread.
// Skips (exit 0) when the host has fewer cores than --threads: the
// speedup assertion is meaningless on a box that cannot run the workers.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/final_merge.h"
#include "core/phase_stats.h"
#include "io/striped_writer.h"
#include "util/random.h"

namespace {

using namespace demsort;
using KV = core::KV16;
using KVLess = core::RecordTraits<KV>::Less;

struct MergeTiming {
  double wall_ms = 0;
  uint64_t demand_fetches = 0;
  uint64_t workers = 0;
  double cpu_ms = 0;
  double io_wait_ms = 0;
  bool sorted = true;
};

/// Builds `num_runs` sorted runs totalling `elements` records on the PE's
/// disks, merges them, and reports the best-of-`reps` merge wall. The
/// output blocks are freed between reps so repetitions don't accumulate.
/// `clustered` draws each run's keys from its own disjoint range (runs from
/// distinct input localities), the case the galloped batch kernel targets;
/// otherwise keys are uniform over the full key space (maximally
/// interleaved, spans ~1 record).
MergeTiming TimeMerge(const core::SortConfig& config, uint64_t elements,
                      int num_runs, int reps, bool clustered) {
  MergeTiming best;
  best.wall_ms = 1e300;
  net::Cluster::Run(1, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(config.seed + rep);
      std::vector<std::vector<core::Extent<KV>>> extents(num_runs);
      uint64_t range = UINT64_MAX / static_cast<uint64_t>(num_runs);
      for (int j = 0; j < num_runs; ++j) {
        std::vector<KV> run(elements / num_runs);
        uint64_t base = clustered ? range * static_cast<uint64_t>(j) : 0;
        for (auto& r : run) {
          r = {base + (clustered ? rng.Below(range) : rng.Next()),
               rng.Next()};
        }
        std::sort(run.begin(), run.end(), KVLess());
        io::StripedWriter<KV> writer(ctx.bm);
        writer.AppendSpan(run.data(), run.size());
        writer.Finish();
        core::Extent<KV> ext;
        ext.run = static_cast<uint32_t>(j);
        ext.start_pos = 0;
        ext.count = run.size();
        ext.blocks = writer.blocks();
        ext.block_first_records = writer.block_first_records();
        extents[j].push_back(std::move(ext));
      }
      core::PhaseStats stats;
      int64_t t0 = NowNanos();
      core::MergeOutput<KV> out =
          core::FinalMerge<KV>(ctx, config, std::move(extents), &stats);
      double wall = (NowNanos() - t0) * 1e-6;
      bool sorted = true;
      for (size_t i = 1; i < out.block_first_records.size(); ++i) {
        if (KVLess()(out.block_first_records[i],
                     out.block_first_records[i - 1])) {
          sorted = false;
        }
      }
      for (const io::BlockId& id : out.blocks) ctx.bm->Free(id);
      if (wall < best.wall_ms) {
        best.wall_ms = wall;
        best.demand_fetches = stats.demand_fetches;
        best.workers = stats.merge_workers;
        best.cpu_ms = stats.merge_cpu_ms;
        best.io_wait_ms = stats.merge_io_wait_ms;
      }
      best.sorted = best.sorted && sorted;
    }
  });
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  uint64_t elements =
      static_cast<uint64_t>(flags.GetInt("elements", (32 << 20) / 16));
  int num_runs = static_cast<int>(flags.GetInt("runs", 16));
  int reps = static_cast<int>(flags.GetInt("reps", 3));
  int max_threads = static_cast<int>(flags.GetInt("threads", 4));
  bool self_check = flags.GetBool("self-check", false);
  double max_ratio = flags.GetInt("max-ratio-pct", 75) / 100.0;

  core::SortConfig base = bench::FigureConfig(/*block_size=*/16 * 1024);
  base.memory_per_pe = 8 * 1024 * 1024;
  const bool storage_ok = bench::ApplyStorageFlags(flags, &base);
  flags.ExitOnUnknownFlags();
  if (!storage_ok) return 0;

  if (self_check) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && hw < static_cast<unsigned>(max_threads)) {
      std::printf("# self-check skipped: %u hardware threads < %d\n", hw,
                  max_threads);
      return 0;
    }
    core::SortConfig seq = base;
    seq.threads_per_pe = 1;
    core::SortConfig par = base;
    par.threads_per_pe = static_cast<uint32_t>(max_threads);
    MergeTiming t1 = TimeMerge(seq, elements, num_runs, reps, false);
    MergeTiming tp = TimeMerge(par, elements, num_runs, reps, false);
    double ratio = tp.wall_ms / t1.wall_ms;
    std::printf(
        "merge self-check: storage=%s 1 thread %.1f ms, %d threads %.1f ms "
        "(workers=%llu), ratio %.2f (required <= %.2f)\n",
        io::BackendKindName(base.backend), t1.wall_ms, max_threads,
        tp.wall_ms, static_cast<unsigned long long>(tp.workers), ratio,
        max_ratio);
    if (!t1.sorted || !tp.sorted) {
      std::printf("FAIL: merge output not sorted\n");
      return 1;
    }
    if (ratio > max_ratio) {
      std::printf("FAIL: parallel merge too slow\n");
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }

  std::printf(
      "# Ablation — parallel final merge, storage=%s, qd=%zu, %llu "
      "elements, R=%d runs, best of %d\n",
      io::BackendKindName(base.backend), base.io_queue_depth,
      static_cast<unsigned long long>(elements), num_runs, reps);
  std::printf("%-9s  %8s  %10s  %8s  %12s  %12s  %14s\n", "keys",
              "threads", "wall_ms", "workers", "mrg_cpu_ms", "mrg_iow_ms",
              "demand_fetches");

  for (bool clustered : {false, true}) {
    for (int threads : {1, 2, 4}) {
      if (threads > max_threads) continue;
      core::SortConfig config = base;
      config.threads_per_pe = static_cast<uint32_t>(threads);
      MergeTiming t = TimeMerge(config, elements, num_runs, reps, clustered);
      std::printf("%-9s  %8d  %10.1f  %8llu  %12.1f  %12.1f  %14llu%s\n",
                  clustered ? "clustered" : "uniform", threads, t.wall_ms,
                  static_cast<unsigned long long>(t.workers), t.cpu_ms,
                  t.io_wait_ms,
                  static_cast<unsigned long long>(t.demand_fetches),
                  t.sorted ? "" : "  NOT-SORTED");
      std::fflush(stdout);
    }
  }
  return 0;
}
