// Input generators. Each writes a PE's slice of the input directly onto its
// local disks (as the paper's testbed stores inputs) and returns the block
// list plus an order-independent checksum for end-to-end validation.
//
// The distributions mirror the evaluation:
//  * kUniform            — "random input" of Figs. 2, 3, 5.
//  * kWorstCaseLocal     — the worst case of Figs. 4, 5, 6: every PE holds
//    the *same* key distribution, locally sorted. Without randomization,
//    run r is then formed from the r-th quantile slice of every PE, so each
//    run covers a narrow key range and nearly every element must move in
//    the all-to-all.
//  * kReversedRanges     — PE i holds exactly the key range of PE P-1-i:
//    maximal but perfectly balanced movement.
//  * kSortedGlobal       — already sorted and placed; best case.
//  * kAllEqual           — every key identical; stresses exact tie handling.
//  * kZipf               — heavily skewed duplicates; the splitter-collapse
//    case for sample-partitioning baselines (NOW-Sort).
#ifndef DEMSORT_WORKLOAD_GENERATORS_H_
#define DEMSORT_WORKLOAD_GENERATORS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/local_input.h"
#include "core/record.h"
#include "io/block_manager.h"
#include "io/striped_writer.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/random.h"

namespace demsort::workload {

enum class Distribution {
  kUniform,
  kSortedGlobal,
  kWorstCaseLocal,
  kReversedRanges,
  kAllEqual,
  kZipf,
};

inline const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kSortedGlobal:
      return "sorted";
    case Distribution::kWorstCaseLocal:
      return "worstcase";
    case Distribution::kReversedRanges:
      return "reversed";
    case Distribution::kAllEqual:
      return "allequal";
    case Distribution::kZipf:
      return "zipf";
  }
  return "?";
}

inline Distribution ParseDistribution(const std::string& name) {
  if (name == "uniform") return Distribution::kUniform;
  if (name == "sorted") return Distribution::kSortedGlobal;
  if (name == "worstcase") return Distribution::kWorstCaseLocal;
  if (name == "reversed") return Distribution::kReversedRanges;
  if (name == "allequal") return Distribution::kAllEqual;
  if (name == "zipf") return Distribution::kZipf;
  DEMSORT_CHECK(false) << "unknown distribution '" << name << "'";
  return Distribution::kUniform;
}

template <typename R>
struct GeneratedInput {
  core::LocalInput input;
  MultisetChecksum checksum;  // of this PE's slice
};

/// A PE's slice of 16-byte elements with 64-bit keys (the scalability
/// experiments), in memory. `value` carries the element's unique global
/// index.
inline std::vector<core::KV16> MakeKV16(Distribution dist,
                                        uint64_t local_elements, int rank,
                                        int num_pes, uint64_t seed) {
  Rng rng(seed ^ (0xc2b2ae3d27d4eb4fULL * (static_cast<uint64_t>(rank) + 1)));
  std::vector<core::KV16> data(local_elements);
  const uint64_t base_index = static_cast<uint64_t>(rank) * local_elements;

  switch (dist) {
    case Distribution::kUniform:
      for (uint64_t i = 0; i < local_elements; ++i) data[i].key = rng.Next();
      break;
    case Distribution::kSortedGlobal: {
      // Keys strictly increasing with the global index: already in place.
      for (uint64_t i = 0; i < local_elements; ++i) {
        data[i].key = base_index + i;
      }
      break;
    }
    case Distribution::kWorstCaseLocal: {
      for (uint64_t i = 0; i < local_elements; ++i) data[i].key = rng.Next();
      std::sort(data.begin(), data.end(),
                [](const core::KV16& a, const core::KV16& b) {
                  return a.key < b.key;
                });
      break;
    }
    case Distribution::kReversedRanges: {
      // PE i's keys land exactly in PE (P-1-i)'s final range.
      uint64_t span = UINT64_MAX / std::max(1, num_pes);
      uint64_t lo = span * static_cast<uint64_t>(num_pes - 1 - rank);
      for (uint64_t i = 0; i < local_elements; ++i) {
        data[i].key = lo + rng.Below(span);
      }
      break;
    }
    case Distribution::kAllEqual:
      for (uint64_t i = 0; i < local_elements; ++i) data[i].key = 0x42;
      break;
    case Distribution::kZipf: {
      ZipfGenerator zipf(4096, 1.0, seed ^ (rank + 1));
      for (uint64_t i = 0; i < local_elements; ++i) {
        data[i].key = zipf.Next() * 0x9e3779b97f4a7c15ULL >> 16;
      }
      break;
    }
  }
  for (uint64_t i = 0; i < local_elements; ++i) data[i].value = base_index + i;
  return data;
}

/// MakeKV16's slice, written to the PE's disks.
inline GeneratedInput<core::KV16> GenerateKV16(io::BlockManager* bm,
                                               Distribution dist,
                                               uint64_t local_elements,
                                               int rank, int num_pes,
                                               uint64_t seed) {
  std::vector<core::KV16> data =
      MakeKV16(dist, local_elements, rank, num_pes, seed);
  GeneratedInput<core::KV16> out;
  io::StripedWriter<core::KV16> writer(bm);
  for (const core::KV16& record : data) {
    out.checksum.AddRecord(&record, sizeof(core::KV16));
    writer.Append(record);
  }
  writer.Finish();
  out.input.blocks = writer.blocks();
  out.input.num_elements = local_elements;
  return out;
}

/// 100-byte SortBenchmark records with 10-byte keys (gensort-like). With
/// `skewed`, keys collapse to 16 distinct values — sampled splitters cannot
/// cut inside a duplicate group, so partition-first sorters skew badly
/// while exact (key, run, position) splitting stays perfectly balanced.
inline GeneratedInput<core::Gray100> GenerateGray100(io::BlockManager* bm,
                                                     uint64_t local_elements,
                                                     int rank, int num_pes,
                                                     uint64_t seed,
                                                     bool skewed = false) {
  (void)num_pes;
  Rng rng(seed ^ (0xa0761d6478bd642fULL * (static_cast<uint64_t>(rank) + 1)));
  GeneratedInput<core::Gray100> out;
  io::StripedWriter<core::Gray100> writer(bm);
  core::Gray100 rec;
  for (uint64_t i = 0; i < local_elements; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next();
    std::memcpy(rec.key.data(), &a, 8);
    std::memcpy(rec.key.data() + 8, &b, 2);
    if (skewed) {
      rec.key.fill(0);
      rec.key[9] = static_cast<uint8_t>(b % 16);
    }
    // Payload: recognizable pattern with the global index embedded.
    uint64_t gid = static_cast<uint64_t>(rank) * local_elements + i;
    std::memcpy(rec.payload.data(), &gid, 8);
    for (size_t p = 8; p < rec.payload.size(); ++p) {
      rec.payload[p] = static_cast<uint8_t>('A' + (gid + p) % 26);
    }
    out.checksum.AddRecord(&rec, sizeof(rec));
    writer.Append(rec);
  }
  writer.Finish();
  out.input.blocks = writer.blocks();
  out.input.num_elements = local_elements;
  return out;
}

}  // namespace demsort::workload

#endif  // DEMSORT_WORKLOAD_GENERATORS_H_
