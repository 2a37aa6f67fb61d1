// GLOBALSTRIPEDMERGESORT (§III): the paper's I/O-minimal comparison point.
//
// Runs and output are striped over ALL P*D disks of the cluster: block g of
// a stream lives on global disk (g mod P*D), i.e. PE (g mod P*D)/D. Run
// formation therefore communicates the data twice (once inside the
// cooperative sort, once to the stripe owners), and each merging pass twice
// more — the 4-5 communications per two passes that motivated
// CANONICALMERGESORT.
//
// The merging phase follows §III: a global prediction sequence (smallest key
// of every block, replicated) dictates the fetch order; each round fetches
// the next Θ(M/B) blocks batch-wise, and the batch — plus leftovers from
// previous rounds — is cut at the "safe barrier" (the smallest first-key of
// any unfetched block): everything at or below it is globally sorted
// cooperatively (the paper notes full parallel sorting of batches costs no
// more than run formation) and written to the output stripe; the rest
// stays in memory as leftovers, at most ~one block per run.
#ifndef DEMSORT_CORE_STRIPED_MERGESORT_H_
#define DEMSORT_CORE_STRIPED_MERGESORT_H_

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "core/block_io.h"
#include "core/config.h"
#include "core/internal_sort.h"
#include "core/local_input.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/random.h"

namespace demsort::core {

/// A PE's share of a globally striped stream: global block index -> local
/// block, plus (replicated) geometry.
template <typename R>
struct StripedStream {
  /// Blocks this PE owns (it owns exactly those with
  /// (index % (P*D)) / D == rank), keyed by global block index.
  std::map<uint64_t, io::BlockId> my_blocks;
  uint64_t total_elements = 0;
  uint64_t num_blocks = 0;
  /// Replicated prediction sequence: first record of every block.
  std::vector<R> block_first_records;
};

template <typename R>
struct StripedSortOutput {
  StripedStream<R> stream;
  SortReport report;
};

namespace internal {

/// Owner PE of global block g under P*D-way striping.
inline int StripeOwner(uint64_t g, int num_pes, uint32_t disks_per_pe) {
  return static_cast<int>((g % (static_cast<uint64_t>(num_pes) *
                                disks_per_pe)) /
                          disks_per_pe);
}
inline uint32_t StripeDisk(uint64_t g, int num_pes, uint32_t disks_per_pe) {
  return static_cast<uint32_t>(g % (static_cast<uint64_t>(num_pes) *
                                    disks_per_pe) %
                               disks_per_pe);
}

struct StripeFrameHeader {
  uint64_t element_offset;  // absolute within the stream
  uint32_t count;
};

/// Scatters each PE's sorted, globally contiguous slice onto the stripe:
/// slices are cut at block boundaries, framed to the block owners, and the
/// owners assemble and write full blocks. `base` is the absolute element
/// offset of this scatter within the stream (for appending across batches).
/// Partially filled tail blocks stay open in `open_blocks` until a later
/// scatter completes them (Finish flushes).
template <typename R>
class StripeAppender {
 public:
  StripeAppender(PeContext& ctx, size_t epb)
      : ctx_(ctx), epb_(epb) {}

  /// Collective. Every PE contributes its slice at absolute offset `start`.
  void ScatterCollective(const std::vector<R>& slice, uint64_t start) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    std::vector<std::vector<uint8_t>> outgoing(P);
    uint64_t pos = start;
    size_t idx = 0;
    while (idx < slice.size()) {
      uint64_t g = pos / epb_;
      size_t in_block = static_cast<size_t>(pos % epb_);
      size_t take = std::min(epb_ - in_block, slice.size() - idx);
      int owner = StripeOwner(g, P, ctx_.bm->num_disks());
      StripeFrameHeader header{pos, static_cast<uint32_t>(take)};
      auto& buf = outgoing[owner];
      size_t old = buf.size();
      buf.resize(old + sizeof(header) + take * sizeof(R));
      std::memcpy(buf.data() + old, &header, sizeof(header));
      std::memcpy(buf.data() + old + sizeof(header), slice.data() + idx,
                  take * sizeof(R));
      idx += take;
      pos += take;
    }
    std::vector<std::vector<uint8_t>> incoming =
        comm.Alltoallv<uint8_t>(outgoing);
    for (auto& data : incoming) Ingest(data);
  }

  /// Flushes every open (partial) block. Collective only in the sense that
  /// everyone should call it after the last scatter.
  void Finish(uint64_t total_elements) {
    for (auto& [g, asm_] : open_) {
      if (asm_.fill > 0) WriteBlock(g, asm_);
    }
    open_.clear();
    stream_.total_elements = total_elements;
    stream_.num_blocks = (total_elements + epb_ - 1) / epb_;
    // Replicate the prediction sequence.
    struct FirstRecord {
      uint64_t g;
      R rec;
    };
    static_assert(std::is_trivially_copyable_v<FirstRecord>);
    std::vector<FirstRecord> mine;
    mine.reserve(first_records_.size());
    for (auto& [g, rec] : first_records_) mine.push_back({g, rec});
    auto all = ctx_.comm->AllgatherV(mine);
    stream_.block_first_records.resize(stream_.num_blocks);
    for (auto& part : all) {
      for (auto& fr : part) {
        DEMSORT_CHECK_LT(fr.g, stream_.num_blocks);
        stream_.block_first_records[fr.g] = fr.rec;
      }
    }
  }

  StripedStream<R> TakeStream() { return std::move(stream_); }

 private:
  struct Assembly {
    AlignedBuffer buffer;
    size_t fill = 0;
  };

  void Ingest(const std::vector<uint8_t>& data) {
    size_t offset = 0;
    while (offset < data.size()) {
      StripeFrameHeader header;
      std::memcpy(&header, data.data() + offset, sizeof(header));
      offset += sizeof(header);
      const R* records = reinterpret_cast<const R*>(data.data() + offset);
      offset += header.count * sizeof(R);
      uint64_t pos = header.element_offset;
      for (uint32_t i = 0; i < header.count; ++i, ++pos) {
        uint64_t g = pos / epb_;
        size_t in_block = static_cast<size_t>(pos % epb_);
        Assembly& asm_ = open_[g];
        if (asm_.buffer.empty()) {
          asm_.buffer = AlignedBuffer(ctx_.bm->block_size());
        }
        if (in_block == 0) first_records_[g] = records[i];
        std::memcpy(asm_.buffer.data() + in_block * sizeof(R), &records[i],
                    sizeof(R));
        asm_.fill = std::max(asm_.fill, in_block + 1);
        if (asm_.fill == epb_) {
          WriteBlock(g, asm_);
          open_.erase(g);
        }
      }
    }
    DEMSORT_CHECK_EQ(offset, data.size());
  }

  void WriteBlock(uint64_t g, Assembly& asm_) {
    uint32_t disk =
        StripeDisk(g, ctx_.comm->size(), ctx_.bm->num_disks());
    io::BlockId id = ctx_.bm->AllocateOnDisk(disk);
    ctx_.bm->WriteSync(id, asm_.buffer.data());
    stream_.my_blocks[g] = id;
  }

  PeContext& ctx_;
  size_t epb_;
  StripedStream<R> stream_;
  std::map<uint64_t, Assembly> open_;
  std::map<uint64_t, R> first_records_;
};

}  // namespace internal

/// Collective globally striped mergesort. Input blocks are consumed.
template <typename R>
StripedSortOutput<R> StripedMergeSort(PeContext& ctx, const SortConfig& config,
                                      const LocalInput& input) {
  using Less = typename RecordTraits<R>::Less;
  DEMSORT_CHECK_OK(config.Validate());
  Less less;
  net::Comm& comm = *ctx.comm;
  io::BlockManager* bm = ctx.bm;
  const int P = comm.size();
  const size_t epb = config.ElementsPerBlock<R>();
  const size_t blocks_per_run =
      std::max<size_t>(1, config.ElementsPerPeMemory<R>() / epb);

  PhaseCollector collector(ctx.comm, ctx.bm);
  StripedSortOutput<R> out;
  out.report.rank = comm.rank();
  out.report.num_pes = P;
  out.report.local_input_elements = input.num_elements;
  out.report.input_blocks = input.blocks.size();

  // ---------------------------------------------- phase 1: run formation --
  comm.Barrier();
  collector.Begin(Phase::kRunFormation);
  PhaseStats* rf_stats = &collector.stats(Phase::kRunFormation);

  std::vector<std::pair<io::BlockId, size_t>> block_list;
  {
    uint64_t remaining = input.num_elements;
    for (size_t i = 0; i < input.blocks.size(); ++i) {
      size_t count = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
      block_list.emplace_back(input.blocks[i], count);
      remaining -= count;
    }
  }
  const uint64_t local_runs =
      (block_list.size() + blocks_per_run - 1) / blocks_per_run;
  const uint64_t num_runs =
      std::max<uint64_t>(1, comm.AllreduceMax<uint64_t>(local_runs));
  out.report.num_runs = num_runs;

  std::vector<internal::StripeAppender<R>> run_appenders;
  std::vector<StripedStream<R>> runs;
  runs.reserve(num_runs);
  for (uint64_t run = 0; run < num_runs; ++run) {
    size_t begin = static_cast<size_t>(run * blocks_per_run);
    size_t end = std::min(block_list.size(), begin + blocks_per_run);
    std::vector<size_t> counts;
    std::vector<io::BlockId> ids;
    for (size_t i = begin; i < end && i < block_list.size(); ++i) {
      ids.push_back(block_list[i].first);
      counts.push_back(block_list[i].second);
    }
    std::vector<R> data = ReadBlocks<R>(bm, ids, counts);
    for (const io::BlockId& id : ids) bm->Free(id);

    InternalSortResult<R> sorted = InternalParallelSort<R>(
        ctx, std::move(data), rf_stats, config.StreamOptionsFor(sizeof(R)));

    internal::StripeAppender<R> appender(ctx, epb);
    appender.ScatterCollective(sorted.piece, sorted.piece_start);
    appender.Finish(sorted.total);
    runs.push_back(appender.TakeStream());
  }
  comm.Barrier();
  collector.End(Phase::kRunFormation);

  // ------------------------------------------------- phase 2: batch merge --
  collector.Begin(Phase::kFinalMerge);
  PhaseStats* merge_stats = &collector.stats(Phase::kFinalMerge);

  uint64_t total_elements = 0;
  for (const auto& run : runs) total_elements += run.total_elements;

  // Replicated fetch frontier per run; identical evolution on every PE.
  std::vector<uint64_t> frontier(num_runs, 0);
  const size_t batch_blocks = std::max<size_t>(
      P, static_cast<size_t>(P) * config.ElementsPerPeMemory<R>() / epb / 2);

  std::vector<R> leftovers;  // my fetched-but-unmergeable elements
  internal::StripeAppender<R> output(ctx, epb);
  uint64_t out_base = 0;

  auto all_fetched = [&] {
    for (uint64_t j = 0; j < num_runs; ++j) {
      if (frontier[j] < runs[j].num_blocks) return false;
    }
    return true;
  };

  while (out_base < total_elements) {
    // Deterministic batch: next `batch_blocks` blocks in prediction order.
    std::vector<std::pair<uint64_t, uint64_t>> batch;  // (run, block)
    {
      std::vector<uint64_t> f = frontier;
      for (size_t b = 0; b < batch_blocks; ++b) {
        uint64_t best = num_runs;
        for (uint64_t j = 0; j < num_runs; ++j) {
          if (f[j] >= runs[j].num_blocks) continue;
          if (best == num_runs ||
              less(runs[j].block_first_records[f[j]],
                   runs[best].block_first_records[f[best]]) ||
              (!less(runs[best].block_first_records[f[best]],
                     runs[j].block_first_records[f[j]]) &&
               j < best)) {
            best = j;
          }
        }
        if (best == num_runs) break;
        batch.emplace_back(best, f[best]);
        ++f[best];
      }
      frontier = f;
    }

    // Fetch my share of the batch (owner reads locally, block is freed —
    // in-place). Elements join my bag.
    for (auto& [j, g] : batch) {
      if (internal::StripeOwner(g, P, bm->num_disks()) != comm.rank()) {
        continue;
      }
      auto it = runs[j].my_blocks.find(g);
      DEMSORT_CHECK(it != runs[j].my_blocks.end());
      AlignedBuffer buf(bm->block_size());
      bm->ReadSync(it->second, buf.data());
      bm->Free(it->second);
      runs[j].my_blocks.erase(it);
      uint64_t start = g * epb;
      size_t count = static_cast<size_t>(
          std::min<uint64_t>(epb, runs[j].total_elements - start));
      const R* records = reinterpret_cast<const R*>(buf.data());
      leftovers.insert(leftovers.end(), records, records + count);
    }

    // Safe barrier: smallest first-key among unfetched blocks.
    bool have_barrier = !all_fetched();
    R barrier{};
    if (have_barrier) {
      bool first = true;
      for (uint64_t j = 0; j < num_runs; ++j) {
        if (frontier[j] >= runs[j].num_blocks) continue;
        const R& cap = runs[j].block_first_records[frontier[j]];
        if (first || less(cap, barrier)) {
          barrier = cap;
          first = false;
        }
      }
    }

    // Split my bag: output (<= barrier) vs keep (> barrier). Stable copy so
    // the cooperative sort sees the bag in a deterministic order.
    std::vector<R> to_sort;
    if (have_barrier) {
      std::vector<R> keep;
      keep.reserve(leftovers.size());
      to_sort.reserve(leftovers.size());
      std::partition_copy(leftovers.begin(), leftovers.end(),
                          std::back_inserter(keep),
                          std::back_inserter(to_sort),
                          [&](const R& r) { return less(barrier, r); });
      leftovers = std::move(keep);
    } else {
      to_sort = std::move(leftovers);
      leftovers.clear();
    }

    // Cooperative sort of the outputtable bag, then scatter to the stripe.
    InternalSortResult<R> sorted = InternalParallelSort<R>(
        ctx, std::move(to_sort), merge_stats,
        config.StreamOptionsFor(sizeof(R)));
    output.ScatterCollective(sorted.piece, out_base + sorted.piece_start);
    out_base += sorted.total;
  }
  output.Finish(total_elements);
  comm.Barrier();
  collector.End(Phase::kFinalMerge);

  out.stream = output.TakeStream();
  out.report.local_output_elements = out.stream.my_blocks.size() * epb;
  out.report.peak_blocks = bm->peak_blocks_in_use();
  for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
    out.report.phase[p] = collector.stats(static_cast<Phase>(p));
  }
  return out;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_STRIPED_MERGESORT_H_
