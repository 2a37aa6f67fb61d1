// Figure 5 reproduction: I/O volume of the all-to-all phase divided by the
// total data volume N, for P = 1..64 and four input/config combinations:
//   (a) worst-case input, non-randomized          — paper: ~up to several N
//   (b) worst-case input, randomized, B = default — paper: B = 8 MiB
//   (c) worst-case input, randomized, B = 1/4th   — paper: B = 2 MiB
//   (d) random input, randomized, B = default     — paper: ~1e-3..1e-2
//
// Paper shape: (a) >> (b) > (c) >> (d); the randomized series shrink with
// the sqrt(B) dependence of Appendix C (the reorganization overhead grows
// with the square root of the block size).
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

double AllToAllIoOverN(const demsort::bench::SortRunResult& run) {
  uint64_t bytes = 0;
  for (const auto& report : run.reports) {
    bytes += report.Get(demsort::core::Phase::kAllToAll).io.bytes();
  }
  double n_bytes =
      static_cast<double>(run.total_elements) * sizeof(demsort::core::KV16);
  return static_cast<double>(bytes) / n_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace demsort;
  using workload::Distribution;
  FlagParser flags(argc, argv);
  const bench::FigureSize size = bench::FigureSizeFromFlags(flags);
  const uint64_t elements_per_pe = size.elements_per_pe;
  const size_t block_default = size.block_size;
  size_t block_small = block_default / 4;  // the paper's 8 MiB vs 2 MiB
  // --transport=tcp (or hier) runs every sweep point over real loopback
  // sockets (or the two-level transport); I/O volumes must be identical
  // either way — the figure is about the algorithm, the substrate only
  // moves the bytes.
  // --stream-chunk=<size> sets the streamed exchange's chunk (0 = the
  // 256 KiB default): smaller chunks shrink receive-side buffering of the
  // all-to-all at a higher per-message overhead, I/O volume unchanged.
  bench::RunOptions run_options = bench::RunOptionsFromFlags(flags);
  int64_t stream_chunk = ParseSize(flags.GetString("stream-chunk", "0"));
  if (stream_chunk < 0) {
    std::fprintf(stderr, "--stream-chunk must be >= 0\n");
    return 2;
  }
  const std::vector<int> pe_sweep = bench::PeSweep(flags);
  flags.ExitOnUnknownFlags();

  struct Series {
    const char* name;
    Distribution dist;
    bool randomize;
    size_t block;
  };
  const Series series[] = {
      {"worst_nonrand_Bdef", Distribution::kWorstCaseLocal, false,
       block_default},
      {"worst_rand_Bdef", Distribution::kWorstCaseLocal, true, block_default},
      {"worst_rand_Bsmall", Distribution::kWorstCaseLocal, true, block_small},
      {"random_rand_Bdef", Distribution::kUniform, true, block_default},
  };

  std::printf(
      "# Fig. 5 — all-to-all I/O volume / N (paper plots this log-scale)\n"
      "# B_default=%zu B, B_small=%zu B, %llu elements/PE\n",
      block_default, block_small,
      static_cast<unsigned long long>(elements_per_pe));
  std::printf("%4s", "P");
  for (const Series& s : series) std::printf("  %18s", s.name);
  std::printf("\n");

  for (int p : pe_sweep) {
    std::printf("%4d", p);
    for (const Series& s : series) {
      core::SortConfig config = bench::FigureConfig(s.block);
      config.randomize_blocks = s.randomize;
      config.stream_chunk_bytes = static_cast<size_t>(stream_chunk);
      bench::SortRunResult run =
          bench::RunCanonical(p, s.dist, config, elements_per_pe,
                              run_options);
      std::printf("  %18.5f", run.valid ? AllToAllIoOverN(run) : -1.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
