// zorder_curve: the paper's geometric motivation — "arrange geometrical
// data such that close-by data can be processed together (e.g., using
// space filling curves)" (§I).
//
// Each PE holds a pile of random 2D points. We key every point by its
// Morton (Z-order) code, sort the keys with CANONICALMERGESORT, and verify
// the spatial-locality payoff: consecutive output points are (on average)
// dramatically closer to each other than consecutive input points.
#include <cmath>
#include <cstdio>
#include <mutex>

#include "core/canonical_mergesort.h"
#include "net/cluster.h"
#include "util/flags.h"
#include "util/random.h"
#include "workload/validator.h"

namespace {

using namespace demsort;

/// Interleaves the bits of (x, y) into a 64-bit Morton code.
uint64_t MortonCode(uint32_t x, uint32_t y) {
  auto spread = [](uint64_t v) {
    v &= 0xffffffffULL;
    v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
    v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
    v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
    v = (v | (v << 2)) & 0x3333333333333333ULL;
    v = (v | (v << 1)) & 0x5555555555555555ULL;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}

double AvgNeighbourDistance(const std::vector<core::KV16>& pts) {
  if (pts.size() < 2) return 0;
  double sum = 0;
  for (size_t i = 1; i < pts.size(); ++i) {
    auto x = [](const core::KV16& r) {
      return static_cast<double>(r.value >> 32);
    };
    auto y = [](const core::KV16& r) {
      return static_cast<double>(r.value & 0xffffffffULL);
    };
    sum += std::hypot(x(pts[i]) - x(pts[i - 1]), y(pts[i]) - y(pts[i - 1]));
  }
  return sum / (pts.size() - 1);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int pes = static_cast<int>(flags.GetInt("pes", 4));
  const uint64_t points_per_pe = static_cast<uint64_t>(
      flags.GetInt("points-per-pe", 100000));
  flags.ExitOnUnknownFlags();

  core::SortConfig config;
  config.block_size = 16 * 1024;
  config.memory_per_pe = 256 * 1024;
  config.disks_per_pe = 2;

  std::printf("Z-order sorting %llu random 2D points on %d PEs...\n",
              static_cast<unsigned long long>(points_per_pe) * pes, pes);

  std::mutex mu;
  double in_dist_sum = 0, out_dist_sum = 0;
  bool ok = true;
  net::Cluster::Run(pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();

    // Generate points; record = {morton_key, packed (x,y)}.
    Rng rng(7 + comm.rank());
    std::vector<core::KV16> points(points_per_pe);
    MultisetChecksum checksum;
    io::StripedWriter<core::KV16> writer(ctx.bm);
    for (auto& p : points) {
      uint32_t x = static_cast<uint32_t>(rng.Below(1u << 20));
      uint32_t y = static_cast<uint32_t>(rng.Below(1u << 20));
      p.key = MortonCode(x, y);
      p.value = (static_cast<uint64_t>(x) << 32) | y;
      checksum.AddRecord(&p, sizeof(p));
      writer.Append(p);
    }
    writer.Finish();
    double in_dist = AvgNeighbourDistance(points);

    core::LocalInput input{writer.blocks(), points_per_pe};
    core::SortOutput<core::KV16> out =
        core::CanonicalMergeSort<core::KV16>(ctx, config, input);
    auto v = workload::ValidateCollective<core::KV16>(
        ctx, out.blocks, out.num_elements, checksum);

    // Read back this PE's sorted slice to measure locality.
    std::vector<core::KV16> sorted;
    sorted.reserve(out.num_elements);
    AlignedBuffer buf(ctx.bm->block_size());
    size_t epb = config.block_size / sizeof(core::KV16);
    uint64_t remaining = out.num_elements;
    for (const io::BlockId& id : out.blocks) {
      ctx.bm->ReadSync(id, buf.data());
      size_t take = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
      const core::KV16* records =
          reinterpret_cast<const core::KV16*>(buf.data());
      sorted.insert(sorted.end(), records, records + take);
      remaining -= take;
    }
    double out_dist = AvgNeighbourDistance(sorted);

    std::lock_guard<std::mutex> lock(mu);
    in_dist_sum += in_dist;
    out_dist_sum += out_dist;
    if (!v.ok()) ok = false;
  });

  double in_avg = in_dist_sum / pes;
  double out_avg = out_dist_sum / pes;
  std::printf("validation          : %s\n", ok ? "ok" : "FAILED");
  std::printf("avg neighbour dist  : input %.0f -> z-ordered %.0f "
              "(%.0fx locality gain)\n",
              in_avg, out_avg, in_avg / out_avg);
  return ok ? 0 : 1;
}
