// Microbenchmarks of the shared-memory substrate (the MCSTL role): loser
// tree k-way merging, exact multiway selection, and in-memory sorting.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_merge.h"
#include "par/multiway_select.h"
#include "par/parallel_sort.h"
#include "par/thread_pool.h"
#include "util/random.h"
#include "workload/generators.h"

namespace {

using demsort::Rng;
using demsort::core::Gray100;
using demsort::core::KV16;
using demsort::workload::Distribution;
using demsort::workload::MakeKV16;
using KVLess = demsort::core::RecordTraits<KV16>::Less;

std::vector<std::vector<KV16>> MakeRuns(size_t k, size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<KV16>> runs(k);
  for (auto& run : runs) {
    run.resize(len);
    for (auto& r : run) r = {rng.Next(), rng.Next()};
    std::sort(run.begin(), run.end(), KVLess());
  }
  return runs;
}

template <typename R>
void RunMultiwayMerge(benchmark::State& state,
                      const std::vector<std::vector<R>>& runs) {
  std::vector<std::span<const R>> spans;
  size_t total = 0;
  for (auto& r : runs) {
    spans.emplace_back(r.data(), r.size());
    total += r.size();
  }
  std::vector<R> out(total);
  for (auto _ : state) {
    demsort::par::MultiwayMerge<R>(spans, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * total);
}

void BM_MultiwayMerge(benchmark::State& state) {
  RunMultiwayMerge(state, MakeRuns(state.range(0), 1 << 16, 42));
}
BENCHMARK(BM_MultiwayMerge)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Iterations(5);

// SortBenchmark records with random 10-byte keys: every record the merge
// moves is 100 bytes, and Less is a 10-byte memcmp.
void BM_MultiwayMergeGray100(benchmark::State& state) {
  using GrayLess = demsort::core::RecordTraits<Gray100>::Less;
  Rng rng(42);
  std::vector<std::vector<Gray100>> runs(state.range(0));
  for (auto& run : runs) {
    run.resize(1 << 14);
    for (Gray100& r : run) {
      for (uint8_t& b : r.key) b = static_cast<uint8_t>(rng.Next());
    }
    std::sort(run.begin(), run.end(), GrayLess());
  }
  RunMultiwayMerge(state, runs);
}
BENCHMARK(BM_MultiwayMergeGray100)->Arg(4)->Arg(15)->Iterations(5);

void BM_MultiwaySelect(benchmark::State& state) {
  size_t k = state.range(0);
  size_t len = 1 << 18;
  auto runs = MakeRuns(k, len, 7);
  std::vector<std::span<const KV16>> spans;
  for (auto& r : runs) spans.emplace_back(r.data(), r.size());
  uint64_t rank = k * len / 2;
  for (auto _ : state) {
    auto positions =
        demsort::par::MultiwaySelect<KV16, KVLess>(spans, rank);
    benchmark::DoNotOptimize(positions.data());
  }
}
BENCHMARK(BM_MultiwaySelect)->Arg(2)->Arg(8)->Arg(32)->Iterations(2000);

// ParallelSort on range(0) threads; every iteration sorts a fresh copy of
// the same input.
template <typename R>
void RunParallelSort(benchmark::State& state, const std::vector<R>& input) {
  demsort::par::ThreadPool pool(state.range(0));
  std::vector<R> data;
  for (auto _ : state) {
    state.PauseTiming();
    data = input;
    state.ResumeTiming();
    demsort::par::ParallelSort(pool, std::span<R>(data));
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * input.size());
  state.SetBytesProcessed(state.iterations() * input.size() * sizeof(R));
}

void BM_ParallelSort(benchmark::State& state) {
  RunParallelSort(state, MakeKV16(Distribution::kUniform, 1 << 19, 0, 1, 3));
}
BENCHMARK(BM_ParallelSort)->Arg(1)->Arg(2)->Arg(4)->Iterations(5);

// 48-bit keys with heavy duplication: two constant digits, many ties.
void BM_ParallelSortZipf(benchmark::State& state) {
  RunParallelSort(state, MakeKV16(Distribution::kZipf, 1 << 19, 0, 1, 3));
}
BENCHMARK(BM_ParallelSortZipf)->Arg(1)->Arg(2)->Arg(4)->Iterations(5);

// SortBenchmark records with random 10-byte keys: the tag-sort path.
void BM_ParallelSortGray100(benchmark::State& state) {
  Rng rng(3);
  std::vector<Gray100> input(1 << 17);
  for (Gray100& r : input) {
    for (uint8_t& b : r.key) b = static_cast<uint8_t>(rng.Next());
  }
  RunParallelSort(state, input);
}
BENCHMARK(BM_ParallelSortGray100)->Arg(1)->Arg(2)->Arg(4)->Iterations(5);

void BM_LoserTreeReplay(benchmark::State& state) {
  size_t k = state.range(0);
  Rng rng(11);
  // Random heads, cycled: the tree only holds pointers to them.
  std::vector<KV16> records(4096);
  for (KV16& r : records) r = {rng.Next(), 0};
  demsort::par::LoserTree<KV16> tree(k);
  for (size_t s = 0; s < k; ++s) tree.InitSource(s, &records[s]);
  tree.Build();
  size_t i = 0;
  for (auto _ : state) {
    tree.ReplaceWinner(&records[i++ % records.size()]);
    benchmark::DoNotOptimize(tree.WinnerSource());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoserTreeReplay)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Iterations(2000000);

}  // namespace
