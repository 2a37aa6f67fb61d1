// Ablation: §IV-E overlapping of I/O with computation/communication during
// run formation, crossed with the storage engine's submission mode.
//
// Two axes:
//   io      = sync (every block waits at the seam, queue depth pinned to 1)
//             vs async (the VirtualDisk pump keeps the backend's queue fed;
//             file disks complete in memory and stay inline)
//   overlap = pipelined run formation (reads of run r+1 and writes of run
//             r-1 proceed while run r is cooperatively sorted) vs serialized
//
// On the default memory backend the disks are throttled to their modeled
// service time (real sleeps) so the overlap shows up in wall clock. With
// --storage={direct,uring} the blocks hit real files and the throttle is
// dropped: async-vs-sync then measures actual latency hiding at queue depth
// > 1, reported by the ioq_peak gauge.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace demsort;
  FlagParser flags(argc, argv);
  int num_pes = static_cast<int>(flags.GetInt("pes", 4));
  uint64_t elements_per_pe = static_cast<uint64_t>(
      flags.GetInt("elements-per-pe", (2 << 20) / 16));
  int repeats = static_cast<int>(flags.GetInt("repeats", 3));

  core::SortConfig base = bench::FigureConfig();
  const bool storage_ok = bench::ApplyStorageFlags(flags, &base);
  flags.ExitOnUnknownFlags();
  if (!storage_ok) return 0;
  bool file_backed = io::IsFileBacked(base.backend);
  // Real backends supply real latency; the modeled throttle would only
  // double-charge the emulated disks.
  base.disk_model.throttle = !file_backed;

  std::printf(
      "# Ablation — run-formation overlap x I/O submission mode, "
      "storage=%s, qd=%zu, P=%d, min of %d reps\n",
      io::BackendKindName(base.backend), base.io_queue_depth, num_pes,
      repeats);
  std::printf("%-6s  %-9s  %18s  %14s  %8s\n", "io", "overlap",
              "run_form_wall_ms", "total_wall_ms", "ioq_peak");
  for (bool async : {false, true}) {
    for (bool overlap : {true, false}) {
      double best_rf_ms = 1e18;
      double best_total_ms = 1e18;
      uint64_t ioq_peak = 0;
      bool valid = true;
      for (int rep = 0; rep < repeats; ++rep) {
        core::SortConfig config = base;
        config.async_io = async;
        config.overlap_run_formation = overlap;
        bench::SortRunResult run = bench::RunCanonical(
            num_pes, workload::Distribution::kUniform, config,
            elements_per_pe);
        double rf_ms = 0;
        uint64_t peak = 0;
        for (const auto& r : run.reports) {
          const auto& s = r.Get(core::Phase::kRunFormation);
          rf_ms = std::max(rf_ms, s.wall_s * 1e3);
          peak = std::max(peak, s.io.queue_depth_peak);
        }
        best_rf_ms = std::min(best_rf_ms, rf_ms);
        best_total_ms = std::min(best_total_ms, run.wall_ms);
        ioq_peak = std::max(ioq_peak, peak);
        valid = valid && run.valid;
      }
      std::printf("%-6s  %-9s  %18.1f  %14.1f  %8llu%s\n",
                  async ? "async" : "sync", overlap ? "on" : "off",
                  best_rf_ms, best_total_ms,
                  static_cast<unsigned long long>(ioq_peak),
                  valid ? "" : "  INVALID");
      std::fflush(stdout);
    }
  }
  return 0;
}
