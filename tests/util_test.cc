#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/checksum.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace demsort {
namespace {

// ------------------------------------------------------------- Status ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusTest, StatusOrHoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowCoversSmallRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, SkewsTowardsHead) {
  ZipfGenerator zipf(100, 1.0, 3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Next()];
  EXPECT_GT(counts[0], counts[50] * 5);
}

// ----------------------------------------------------------- Checksum ----

TEST(ChecksumTest, OrderIndependent) {
  MultisetChecksum a, b;
  uint64_t x = 1, y = 2, z = 3;
  a.AddRecord(&x, 8);
  a.AddRecord(&y, 8);
  a.AddRecord(&z, 8);
  b.AddRecord(&z, 8);
  b.AddRecord(&x, 8);
  b.AddRecord(&y, 8);
  EXPECT_TRUE(a == b);
}

TEST(ChecksumTest, DetectsMissingRecord) {
  MultisetChecksum a, b;
  uint64_t x = 1, y = 2;
  a.AddRecord(&x, 8);
  a.AddRecord(&y, 8);
  b.AddRecord(&x, 8);
  EXPECT_FALSE(a == b);
}

TEST(ChecksumTest, DetectsModifiedRecord) {
  MultisetChecksum a, b;
  uint64_t x = 1, y = 2;
  a.AddRecord(&x, 8);
  b.AddRecord(&y, 8);
  EXPECT_FALSE(a == b);
}

TEST(ChecksumTest, DetectsDuplicateSwap) {
  // {1, 1, 3} vs {1, 3, 3} — sums of counts equal, multisets differ.
  MultisetChecksum a, b;
  uint64_t one = 1, three = 3;
  a.AddRecord(&one, 8);
  a.AddRecord(&one, 8);
  a.AddRecord(&three, 8);
  b.AddRecord(&one, 8);
  b.AddRecord(&three, 8);
  b.AddRecord(&three, 8);
  EXPECT_FALSE(a == b);
}

TEST(ChecksumTest, CombineMatchesSequential) {
  MultisetChecksum all, part1, part2;
  for (uint64_t i = 0; i < 50; ++i) {
    all.AddRecord(&i, 8);
    (i % 2 == 0 ? part1 : part2).AddRecord(&i, 8);
  }
  part1.Combine(part2);
  EXPECT_TRUE(all == part1);
}

TEST(HashBytesTest, SeedChangesHash) {
  const char* data = "hello world";
  EXPECT_NE(HashBytes(data, 11, 1), HashBytes(data, 11, 2));
}

TEST(HashBytesTest, LengthMatters) {
  const char data[16] = {0};
  EXPECT_NE(HashBytes(data, 8), HashBytes(data, 9));
}

// -------------------------------------------------------------- Stats ----

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
  EXPECT_DOUBLE_EQ(s.imbalance(), 4.0 / 2.5);
}

TEST(SummaryTest, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.imbalance(), 1.0);
}

TEST(HistogramTest, BucketsAndQuantiles) {
  Histogram h({1.0, 10.0, 100.0});
  h.Add(0.5);
  h.Add(5.0);
  h.Add(50.0);
  h.Add(500.0);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
}

// -------------------------------------------------------------- Flags ----

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--pes=8", "--dist", "uniform", "--verbose"};
  FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("pes", 1), 8);
  EXPECT_EQ(flags.GetString("dist", ""), "uniform");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
}

TEST(FlagsTest, UnreadListsFlagsNeverLookedUp) {
  const char* argv[] = {"prog", "--pes=8", "--no-such-flag=4", "--stats",
                        "--seed", "7", "positional"};
  FlagParser flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.Unread(),
            (std::vector<std::string>{"no-such-flag", "pes", "seed",
                                      "stats"}));
  EXPECT_EQ(flags.GetInt("pes", 1), 8);
  EXPECT_TRUE(flags.Has("stats"));
  // Looking up an absent flag reads it without adding it to the list.
  EXPECT_EQ(flags.GetDouble("rate", 0.5), 0.5);
  EXPECT_EQ(flags.GetString("seed", ""), "7");
  EXPECT_EQ(flags.Unread(), std::vector<std::string>{"no-such-flag"});
  EXPECT_FALSE(flags.GetBool("no-such-flag", false));
  EXPECT_TRUE(flags.Unread().empty());
}

TEST(FlagsTest, ExitOnUnknownFlagsExitsTwoNamingTheFlags) {
  const char* argv[] = {"prog", "--pes=8", "--files-per-disk=2", "--x"};
  FlagParser flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("pes", 1), 8);
  EXPECT_EXIT(flags.ExitOnUnknownFlags(), ::testing::ExitedWithCode(2),
              "unknown flag\\(s\\): --files-per-disk --x");
  // Once every flag given has been looked up, it returns.
  EXPECT_TRUE(flags.Has("files-per-disk"));
  EXPECT_TRUE(flags.Has("x"));
  flags.ExitOnUnknownFlags();
}

TEST(FlagsTest, IntInRangeRejectsNegativesBeforeNarrowing) {
  // A negative count must not reach a cast to an unsigned type, where
  // --elements-per-pe=-1 would become 2^64 - 1 records to generate.
  const char* argv[] = {"prog", "--elements-per-pe=-1", "--queue-depth=-4096",
                        "--block-size=4k"};
  FlagParser flags(4, const_cast<char**>(argv));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(flags.GetIntInRange("elements-per-pe", 10, 0, INT64_MAX),
            std::nullopt);
  EXPECT_EQ(flags.GetIntInRange("queue-depth", 0, 0, INT64_MAX),
            std::nullopt);
  const std::string errors = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(errors.find("--elements-per-pe must be >= 0 (got -1)"),
            std::string::npos)
      << errors;
  EXPECT_NE(errors.find("--queue-depth must be >= 0 (got -4096)"),
            std::string::npos)
      << errors;
  EXPECT_EQ(flags.GetIntInRange("block-size", 1, 1, INT64_MAX), 4096);
  EXPECT_EQ(flags.GetIntInRange("vertices", 20000, 1, UINT32_MAX), 20000);
  EXPECT_TRUE(flags.Unread().empty());
}

TEST(FlagsTest, SizeSuffixes) {
  EXPECT_EQ(ParseSize("128"), 128);
  EXPECT_EQ(ParseSize("4k"), 4096);
  EXPECT_EQ(ParseSize("2m"), 2 * 1024 * 1024);
  EXPECT_EQ(ParseSize("1G"), 1024LL * 1024 * 1024);
}

// ------------------------------------------------------ AlignedBuffer ----

TEST(AlignedBufferTest, IsAligned) {
  AlignedBuffer buf(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 4096, 0u);
  EXPECT_EQ(buf.size(), 1000u);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(64);
  a.data()[0] = 7;
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data()[0], 7);
  EXPECT_TRUE(a.empty());
}

TEST(TimerTest, StopwatchAccumulates) {
  Stopwatch sw;
  sw.Start();
  sw.Stop();
  sw.Start();
  sw.Stop();
  EXPECT_GE(sw.elapsed_ns(), 0);
}

}  // namespace
}  // namespace demsort
