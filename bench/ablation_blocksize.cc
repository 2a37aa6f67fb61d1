// Ablation: block size B under worst-case input with randomization — the
// trade-off behind Fig. 5's B=8 MiB vs B=2 MiB series and the Appendix C
// remark that "on large machines, it might pay to use a smaller block size
// for reading blocks during run formation". Smaller B shrinks the residual
// all-to-all movement (~sqrt(B)) but costs more seeks everywhere (the disk
// model's seek time is a physical constant, so more/smaller blocks mean
// worse raw I/O throughput).
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 8));
  uint64_t elements_per_pe = static_cast<uint64_t>(
      flags.GetInt("elements-per-pe", (2 << 20) / 16));
  flags.ExitOnUnknownFlags();

  sim::CostModel model;
  std::printf(
      "# Ablation — block size under worst-case randomized input, P=%d\n",
      num_pes);
  std::printf("%10s  %14s  %14s  %12s  %12s\n", "B_bytes", "alltoall_io/N",
              "io_seeks_total", "modeled_s", "emul_wall_ms");
  for (size_t block : {1024, 2048, 4096, 8192, 16384}) {
    core::SortConfig config = bench::FigureConfig(block);
    bench::SortRunResult run = bench::RunCanonical(
        num_pes, workload::Distribution::kWorstCaseLocal, config,
        elements_per_pe);
    uint64_t a2a_bytes = 0, seeks = 0;
    for (const auto& r : run.reports) {
      a2a_bytes += r.Get(core::Phase::kAllToAll).io.bytes();
      for (int p = 0; p < 4; ++p) seeks += r.phase[p].io.seeks;
    }
    double n_bytes = static_cast<double>(run.total_elements) *
                     sizeof(core::KV16);
    std::printf("%10zu  %14.4f  %14llu  %12.3f  %12.0f%s\n", block,
                a2a_bytes / n_bytes,
                static_cast<unsigned long long>(seeks),
                model.TotalSeconds(run.reports), run.wall_ms,
                run.valid ? "" : "  INVALID");
    std::fflush(stdout);
  }
  return 0;
}
