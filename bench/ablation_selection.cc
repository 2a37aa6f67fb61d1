// Ablation: the §IV-A selection optimizations. The paper keeps the
// per-block sample in memory and caches recently accessed blocks so that
// "the resulting selection algorithm takes negligible time". We sweep the
// sample rate K (elements between samples) and report the selection
// phase's BSP fetch rounds, disk traffic, and modeled time: coarser samples
// mean wider uncertainty windows, more fetched blocks and more rounds.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 8));
  uint64_t elements_per_pe = static_cast<uint64_t>(
      flags.GetInt("elements-per-pe", (2 << 20) / 16));
  flags.ExitOnUnknownFlags();

  core::SortConfig base = bench::FigureConfig();
  size_t epb = base.ElementsPerBlock<core::KV16>();
  sim::CostModel model;

  std::printf(
      "# Ablation — multiway selection sampling granularity, P=%d\n"
      "# K = elements between samples (paper/App. B default: one per "
      "block = %zu)\n",
      num_pes, epb);
  std::printf("%8s  %8s  %14s  %16s  %12s\n", "K", "rounds",
              "select_io_KiB", "select_comm_KiB", "modeled_ms");

  for (size_t k : {epb / 4, epb, 4 * epb, 16 * epb, 64 * epb}) {
    core::SortConfig config = base;
    config.sample_every_k = k;
    bench::SortRunResult run = bench::RunCanonical(
        num_pes, workload::Distribution::kUniform, config, elements_per_pe);
    uint64_t rounds = 0, io_bytes = 0, comm_bytes = 0;
    for (const auto& r : run.reports) {
      const auto& s = r.Get(core::Phase::kMultiwaySelection);
      rounds = std::max(rounds, s.selection_rounds);
      io_bytes += s.io.bytes();
      comm_bytes += s.net.bytes_sent;
    }
    double modeled_ms =
        model.ClusterPhaseSeconds(core::Phase::kMultiwaySelection,
                                  run.reports)
            .total_s *
        1e3;
    std::printf("%8zu  %8llu  %14.1f  %16.1f  %12.3f%s\n", k,
                static_cast<unsigned long long>(rounds), io_bytes / 1024.0,
                comm_bytes / 1024.0, modeled_ms,
                run.valid ? "" : "  INVALID");
    std::fflush(stdout);
  }
  return 0;
}
