// Quickstart: sort 16-byte records across 4 emulated PEs with
// CANONICALMERGESORT and validate the result.
//
//   ./quickstart [--pes 4] [--elements-per-pe 1m] [--dist uniform]
//
// This walks through the full public API surface:
//   1. spin up a Cluster of PEs (net::Cluster),
//   2. give each PE disks + a thread pool (core::PeResources),
//   3. generate input onto the PE's local disks (workload::GenerateKV16),
//   4. sort (core::CanonicalMergeSort),
//   5. validate collectively (workload::ValidateCollective),
//   6. inspect the per-phase report.
#include <cstdio>
#include <mutex>

#include "core/canonical_mergesort.h"
#include "core/pe_context.h"
#include "net/cluster.h"
#include "util/flags.h"
#include "workload/generators.h"
#include "workload/validator.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  const int pes = static_cast<int>(flags.GetInt("pes", 4));
  const auto elements =
      flags.GetIntInRange("elements-per-pe", 256 * 1024, 0, INT64_MAX);
  if (!elements) return 2;
  const uint64_t elements_per_pe = static_cast<uint64_t>(*elements);
  workload::Distribution dist =
      workload::ParseDistribution(flags.GetString("dist", "uniform"));

  core::SortConfig config;
  config.block_size = 64 * 1024;        // B
  config.memory_per_pe = 1024 * 1024;   // m  (=> R = N/(P*m) runs)
  config.disks_per_pe = 2;              // D per PE
  config.randomize_blocks = true;       // the §IV randomization
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  flags.ExitOnUnknownFlags();

  std::printf("Sorting %llu x 16-byte elements on %d emulated PEs (%s)...\n",
              static_cast<unsigned long long>(elements_per_pe) * pes, pes,
              workload::DistributionName(dist));

  std::mutex mu;
  net::Cluster::Run(pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();

    // Input lands on this PE's local virtual disks.
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      comm.rank(), pes, config.seed);

    // The sort is a collective call: all PEs enter, each gets back its
    // exact share — PE i ends up with global ranks [i*N/P, (i+1)*N/P).
    core::SortOutput<core::KV16> out =
        core::CanonicalMergeSort<core::KV16>(ctx, config, gen.input);

    auto v = workload::ValidateCollective<core::KV16>(
        ctx, out.blocks, out.num_elements, gen.checksum);

    std::lock_guard<std::mutex> lock(mu);
    std::printf(
        "PE %d: ranks [%llu, %llu) in %zu blocks over %u disks | runs=%llu "
        "| io=%.1f MiB | comm sent=%.1f MiB | %s\n",
        comm.rank(), static_cast<unsigned long long>(out.global_begin),
        static_cast<unsigned long long>(out.global_end), out.blocks.size(),
        ctx.bm->num_disks(), static_cast<unsigned long long>(out.num_runs),
        [&] {
          uint64_t io = 0;
          for (int p = 0; p < 4; ++p) io += out.report.phase[p].io.bytes();
          return io / (1024.0 * 1024.0);
        }(),
        [&] {
          uint64_t net = 0;
          for (int p = 0; p < 4; ++p) {
            net += out.report.phase[p].net.bytes_sent;
          }
          return net / (1024.0 * 1024.0);
        }(),
        v.ok() && v.partition_exact ? "VALID" : "INVALID!");
  });
  std::printf("Done.\n");
  return 0;
}
