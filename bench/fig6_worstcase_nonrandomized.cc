// Figure 6 reproduction: running times for WORST-CASE input WITHOUT
// randomization, P = 1..64.
//
// Paper shape: up to ~50% running-time penalty versus Figs. 2/4 — without
// randomization every run covers a narrow key slice, so (almost) all data
// is misplaced after run formation and the external all-to-all performs an
// extra read+write of nearly everything (4N -> 6N I/O volume).
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  const bench::FigureSize size = bench::FigureSizeFromFlags(flags);
  const uint64_t elements_per_pe = size.elements_per_pe;
  core::SortConfig config = bench::FigureConfig(size.block_size);
  config.randomize_blocks = false;
  const std::vector<int> pe_sweep = bench::PeSweep(flags);
  flags.ExitOnUnknownFlags();

  sim::CostModel model;
  std::printf(
      "# Fig. 6 — CANONICALMERGESORT, worst-case input, NO randomization\n"
      "# %llu elements/PE, B=%zu, m=%zu B, D=%u\n",
      static_cast<unsigned long long>(elements_per_pe), config.block_size,
      config.memory_per_pe, config.disks_per_pe);
  bench::PrintPhaseHeader();
  for (int p : pe_sweep) {
    bench::SortRunResult run = bench::RunCanonical(
        p, workload::Distribution::kWorstCaseLocal, config,
        elements_per_pe);
    bench::PrintPhaseRow(p, run, model);
    std::fflush(stdout);
  }
  return 0;
}
