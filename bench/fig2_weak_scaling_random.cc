// Figure 2 reproduction: running times for RANDOM input, split by phase,
// weak scaling over P = 1..64 PEs (paper: 100 GiB per PE; here scaled, see
// bench_util.h).
//
// Paper shape to reproduce: near-flat total time as P grows; run formation
// and final merge of similar magnitude and dominating; multiway selection
// negligible; all-to-all small (randomized run formation already places
// most data).
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  const bench::FigureSize size = bench::FigureSizeFromFlags(flags);
  const uint64_t elements_per_pe = size.elements_per_pe;
  core::SortConfig config = bench::FigureConfig(size.block_size);
  const std::vector<int> pe_sweep = bench::PeSweep(flags);
  flags.ExitOnUnknownFlags();

  sim::CostModel model;
  std::printf(
      "# Fig. 2 — CANONICALMERGESORT, random input, weak scaling\n"
      "# %llu elements/PE (16 B each), B=%zu, m=%zu B, D=%u, randomized\n"
      "# modeled seconds on the paper's testbed constants; emulation wall "
      "ms for reference\n",
      static_cast<unsigned long long>(elements_per_pe), config.block_size,
      config.memory_per_pe, config.disks_per_pe);
  bench::PrintPhaseHeader();
  for (int p : pe_sweep) {
    bench::SortRunResult run = bench::RunCanonical(
        p, workload::Distribution::kUniform, config, elements_per_pe);
    bench::PrintPhaseRow(p, run, model);
    std::fflush(stdout);
  }
  return 0;
}
