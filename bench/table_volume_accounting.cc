// §IV-D accounting table: CANONICALMERGESORT needs "I/O volume 4N + o(N)"
// (here 4N - 2·K·N/R + o(N), because the last K = min(3, R) runs stay in
// memory) and "communication volume N + o(N)"; GLOBALSTRIPEDMERGESORT needs
// 4-5 communications of the data for two passes. This bench prints the measured
// volumes normalized by N for both algorithms across distributions.
//
// Canonical comm/N is run formation's exchange, (P-1)/P (0.875 at P = 8),
// plus o(N) terms: the replicated per-block run samples,
// (P-1)·sizeof(entry)/B (0.041 for KV16 at P = 8, B = 4 KiB), the splitter
// selection's coarse sample, (P-1)·65 entries per PE and run (0.021 here,
// where a run piece is 32 Ki records), its refinement rounds and narrow
// windows, and the collectives' headers. The "sorted" row, whose exchange
// moves nothing, shows their sum.
#include <cstdio>
#include <mutex>

#include "bench_util.h"
#include "core/striped_mergesort.h"

namespace {

using namespace demsort;

struct Volumes {
  double io_over_n = 0;
  double comm_over_n = 0;
  bool valid = false;
};

Volumes Measure(bool striped, workload::Distribution dist, bool randomize,
                int num_pes, uint64_t elements_per_pe) {
  core::SortConfig config = bench::FigureConfig();
  config.randomize_blocks = randomize;
  uint64_t io_bytes = 0;
  std::mutex mu;
  bool all_valid = true;
  auto net = net::Cluster::RunWithStats(num_pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      comm.rank(), num_pes, config.seed);
    uint64_t my_io = 0;
    workload::ValidationResult v;
    if (striped) {
      auto out = core::StripedMergeSort<core::KV16>(ctx, config, gen.input);
      v = workload::ValidateStripedCollective<core::KV16>(
          ctx, out.stream.my_blocks, out.stream.total_elements,
          gen.checksum);
      for (int p = 0; p < 4; ++p) my_io += out.report.phase[p].io.bytes();
    } else {
      auto out =
          core::CanonicalMergeSort<core::KV16>(ctx, config, gen.input);
      v = workload::ValidateCollective<core::KV16>(ctx, out.blocks,
                                                   out.num_elements,
                                                   gen.checksum);
      for (int p = 0; p < 4; ++p) my_io += out.report.phase[p].io.bytes();
    }
    std::lock_guard<std::mutex> lock(mu);
    io_bytes += my_io;
    if (!v.ok()) all_valid = false;
  });
  uint64_t comm_bytes = 0;
  for (auto& s : net) comm_bytes += s.bytes_sent;
  double n_bytes = static_cast<double>(num_pes) * elements_per_pe *
                   sizeof(core::KV16);
  return Volumes{io_bytes / n_bytes, comm_bytes / n_bytes, all_valid};
}

}  // namespace

int main(int argc, char** argv) {
  using workload::Distribution;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 8));
  const auto elements =
      flags.GetIntInRange("elements-per-pe", (2 << 20) / 16, 0, INT64_MAX);
  if (!elements) return 2;
  const uint64_t elements_per_pe = static_cast<uint64_t>(*elements);
  flags.ExitOnUnknownFlags();

  std::printf(
      "# §IV-D volume accounting, P=%d, %llu elements/PE\n"
      "# claims: canonical io/N -> 4 - 2K/R (up to 2 more for non-randomized "
      "worst case), comm/N -> ~1 (x(P-1)/P);\n"
      "#         striped comm/N -> ~4 (sort + striped write, both "
      "passes)\n",
      num_pes, static_cast<unsigned long long>(elements_per_pe));
  std::printf("%-10s  %-10s  %-6s  %8s  %10s  %6s\n", "algorithm",
              "input", "rand", "io/N", "comm/N", "valid");

  struct Case {
    const char* algo;
    bool striped;
    Distribution dist;
    const char* dist_name;
    bool randomize;
  };
  const Case cases[] = {
      {"canonical", false, Distribution::kUniform, "random", true},
      {"canonical", false, Distribution::kWorstCaseLocal, "worstcase", true},
      {"canonical", false, Distribution::kWorstCaseLocal, "worstcase",
       false},
      {"canonical", false, Distribution::kSortedGlobal, "sorted", false},
      {"striped", true, Distribution::kUniform, "random", true},
      {"striped", true, Distribution::kWorstCaseLocal, "worstcase", true},
  };
  for (const Case& c : cases) {
    Volumes v = Measure(c.striped, c.dist, c.randomize, num_pes,
                        elements_per_pe);
    std::printf("%-10s  %-10s  %-6s  %8.3f  %10.3f  %6s\n", c.algo,
                c.dist_name, c.randomize ? "yes" : "no", v.io_over_n,
                v.comm_over_n, v.valid ? "yes" : "NO");
    std::fflush(stdout);
  }
  return 0;
}
