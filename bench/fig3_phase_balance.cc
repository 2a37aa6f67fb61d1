// Figure 3 reproduction: per-PE running times of every phase on a 32-node
// run with random input — wall clock vs pure-I/O time per PE.
//
// Paper shape: all phases well balanced across PEs (small variance, only
// disk-speed spread); the final merge is fully I/O-bound (no gap between
// I/O time and wall time); run formation shows a "grey gap" (not fully
// I/O-bound: the cooperative sort + communication exceeds the overlapped
// I/O).
#include <cstdio>

#include "bench_util.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 32));
  const bench::FigureSize size = bench::FigureSizeFromFlags(flags);
  const uint64_t elements_per_pe = size.elements_per_pe;
  core::SortConfig config = bench::FigureConfig(size.block_size);
  flags.ExitOnUnknownFlags();

  bench::SortRunResult run = bench::RunCanonical(
      num_pes, workload::Distribution::kUniform, config, elements_per_pe);
  sim::CostModel model;

  std::printf(
      "# Fig. 3 — per-PE phase times, %d PEs, random input (valid=%s)\n"
      "# For each phase: modeled wall seconds and modeled I/O seconds per "
      "PE.\n"
      "# A wall > io gap means the phase is not fully I/O-bound (paper: "
      "run formation).\n",
      num_pes, run.valid ? "yes" : "NO");
  std::printf("%4s", "PE");
  for (int ph = 0; ph < 4; ++ph) {
    std::printf("  %11s_w %11s_io", core::PhaseName(static_cast<core::Phase>(ph)),
                "");
  }
  std::printf("\n");
  for (int pe = 0; pe < num_pes; ++pe) {
    std::printf("%4d", pe);
    for (int ph = 0; ph < 4; ++ph) {
      sim::PhaseTime t = model.PhaseSeconds(
          static_cast<core::Phase>(ph),
          run.reports[pe].Get(static_cast<core::Phase>(ph)), num_pes);
      std::printf("  %13.4f %13.4f", t.total_s, t.io_s);
    }
    std::printf("\n");
  }

  // Balance summary (the point of the figure).
  for (int ph = 0; ph < 4; ++ph) {
    Summary wall;
    for (int pe = 0; pe < num_pes; ++pe) {
      wall.Add(model
                   .PhaseSeconds(static_cast<core::Phase>(ph),
                                 run.reports[pe].Get(
                                     static_cast<core::Phase>(ph)),
                                 num_pes)
                   .total_s);
    }
    std::printf("# %-20s imbalance max/mean = %.3f\n",
                core::PhaseName(static_cast<core::Phase>(ph)),
                wall.imbalance());
  }
  return 0;
}
