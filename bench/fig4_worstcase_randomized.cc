// Figure 4 reproduction: running times for WORST-CASE input (identical
// locally sorted key distribution on every PE) WITH block randomization,
// P = 1..64.
//
// Paper shape: close to Fig. 2 (random input) — randomization makes every
// run resemble the global distribution, so the all-to-all stays small; the
// residual movement is the O(R*sqrt(M*B)*logP) term of Appendix C.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  const bench::FigureSize size = bench::FigureSizeFromFlags(flags);
  const uint64_t elements_per_pe = size.elements_per_pe;
  core::SortConfig config = bench::FigureConfig(size.block_size);
  config.randomize_blocks = true;
  const std::vector<int> pe_sweep = bench::PeSweep(flags);
  flags.ExitOnUnknownFlags();

  sim::CostModel model;
  std::printf(
      "# Fig. 4 — CANONICALMERGESORT, worst-case input, WITH "
      "randomization\n"
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
