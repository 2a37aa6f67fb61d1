// kruskal_pipeline: the paper's §VII pipelined-sorting use case — "the
// output is not written to disk but fed into a postprocessor that requires
// its input in sorted order (e.g., variants of Kruskal's algorithm)".
//
// We compute a minimum spanning forest of a large random graph: each PE's
// producer emits random weighted edges; PipelinedSort streams edges in
// ascending weight order into a consumer that runs Kruskal's union-find
// (here on PE 0's stream after a relay, to keep the example focused on the
// pipeline mechanics; edges arrive in globally sorted order PE by PE).
#include <cstdio>
#include <mutex>
#include <numeric>
#include <span>
#include <vector>

#include "core/pipelined.h"
#include "net/cluster.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

using namespace demsort;

class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int pes = static_cast<int>(flags.GetInt("pes", 4));
  const auto vertices_flag =
      flags.GetIntInRange("vertices", 20000, 1, UINT32_MAX);
  const auto edges_flag =
      flags.GetIntInRange("edges-per-pe", 100000, 0, INT64_MAX);
  if (!vertices_flag || !edges_flag) return 2;
  const uint32_t vertices = static_cast<uint32_t>(*vertices_flag);
  const uint64_t edges_per_pe = static_cast<uint64_t>(*edges_flag);
  flags.ExitOnUnknownFlags();

  core::SortConfig config;
  config.block_size = 16 * 1024;
  config.memory_per_pe = 256 * 1024;
  config.disks_per_pe = 2;
  config.randomize_blocks = false;  // §VII: not possible when pipelining

  std::printf(
      "Kruskal via pipelined sort: %u vertices, %llu random edges on %d "
      "PEs\n",
      vertices, static_cast<unsigned long long>(edges_per_pe) * pes, pes);

  // Edge record: key = weight, value = (u << 32) | v.
  std::mutex mu;
  std::vector<std::vector<core::KV16>> streams(pes);
  net::Cluster::Run(pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    core::PeContext& ctx = resources.ctx();
    size_t m = config.ElementsPerPeMemory<core::KV16>();
    Rng rng(31 + comm.rank());
    uint64_t produced = 0;
    auto producer = [&]() {
      std::vector<core::KV16> chunk;
      uint64_t remaining = edges_per_pe - produced;
      if (remaining == 0) return chunk;
      chunk.resize(static_cast<size_t>(
          std::min<uint64_t>(m, remaining)));
      for (auto& e : chunk) {
        uint32_t u = static_cast<uint32_t>(rng.Below(vertices));
        uint32_t v = static_cast<uint32_t>(rng.Below(vertices));
        e.key = rng.Next() >> 16;  // weight
        e.value = (static_cast<uint64_t>(u) << 32) | v;
      }
      produced += chunk.size();
      return chunk;
    };
    auto consumer = [&](std::span<const core::KV16> edges) {
      std::lock_guard<std::mutex> lock(mu);
      streams[comm.rank()].insert(streams[comm.rank()].end(), edges.begin(),
                                  edges.end());
    };
    core::PipelinedSort<core::KV16>(ctx, config, producer, consumer);
  });

  // The PE streams, concatenated in rank order, are the globally
  // weight-sorted edge list: run Kruskal over them.
  UnionFind uf(vertices);
  uint64_t mst_edges = 0;
  long double mst_weight = 0;
  uint64_t scanned = 0;
  uint64_t prev_key = 0;
  bool sorted = true;
  for (int p = 0; p < pes; ++p) {
    for (const core::KV16& e : streams[p]) {
      if (e.key < prev_key) sorted = false;
      prev_key = e.key;
      ++scanned;
      uint32_t u = static_cast<uint32_t>(e.value >> 32);
      uint32_t v = static_cast<uint32_t>(e.value & 0xffffffffULL);
      if (u != v && uf.Union(u, v)) {
        ++mst_edges;
        mst_weight += static_cast<long double>(e.key);
      }
    }
  }
  std::printf("edge stream         : %llu edges, globally sorted: %s\n",
              static_cast<unsigned long long>(scanned),
              sorted ? "yes" : "NO");
  std::printf("minimum spanning forest: %llu edges, total weight %.4Le\n",
              static_cast<unsigned long long>(mst_edges), mst_weight);
  std::printf("(dense random graph => forest should connect nearly all "
              "%u vertices: %s)\n",
              vertices,
              mst_edges + 1000 > vertices ? "yes" : "sparser than expected");
  return sorted ? 0 : 1;
}
