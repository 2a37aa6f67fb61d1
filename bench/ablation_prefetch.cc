// Ablation: prediction-sequence prefetching ([11]/[14], used by the final
// merge) as a function of its buffer pool.
//
// The metric that matters on real disks is how often the merge *stalls* on
// a block the prefetcher has not issued yet (demand fetches), as a function
// of the buffer pool it is allowed. The prediction sequence fetches blocks
// in exactly the order the merge consumes them, so a pool barely larger
// than the disk count already eliminates stalls. (Real wall time of
// the emulated merge is dominated by thread wake-ups on the zero-latency
// RAM disks, so it is not reported here; fig benches report modeled time.)
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 2));
  uint64_t elements_per_pe = static_cast<uint64_t>(
      flags.GetInt("elements-per-pe", (4 << 20) / 16));

  core::SortConfig base = bench::FigureConfig();
  if (!bench::ApplyStorageFlags(flags, &base)) return 0;
  uint64_t runs = elements_per_pe /
                  base.ElementsPerPeMemory<core::KV16>();

  std::printf(
      "# Ablation — final-merge prefetch policy, storage=%s, qd=%zu, P=%d, "
      "%llu elements/PE, R=%llu runs\n"
      "# demand fetch = merge needed a block before the policy issued it\n",
      io::BackendKindName(base.backend), base.io_queue_depth, num_pes,
      static_cast<unsigned long long>(elements_per_pe),
      static_cast<unsigned long long>(runs));
  std::printf("%12s  %16s  %14s\n", "pool_blocks", "demand_fetches",
              "merge_blocks");

  for (size_t buffers : {2, 4, 8, 0}) {  // 0 = auto
    core::SortConfig config = base;
    config.prefetch_buffers = buffers;
    bench::SortRunResult run = bench::RunCanonical(
        num_pes, workload::Distribution::kUniform, config, elements_per_pe);
    uint64_t demand = 0, blocks = 0;
    for (const auto& r : run.reports) {
      const auto& s = r.Get(core::Phase::kFinalMerge);
      demand += s.demand_fetches;
      blocks += s.io.reads;
    }
    size_t effective_pool =
        buffers != 0 ? buffers
                     : std::max<size_t>(2 * static_cast<size_t>(runs),
                                        2 * config.disks_per_pe) +
                           2;
    std::printf("%12zu  %16llu  %14llu%s\n", effective_pool,
                static_cast<unsigned long long>(demand),
                static_cast<unsigned long long>(blocks),
                run.valid ? "" : "  INVALID");
    std::fflush(stdout);
  }
  return 0;
}
