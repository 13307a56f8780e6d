#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Tail, KeepsRequestedPercentileWithTenSamplesBeyond) {
  auto v = ramp(1000);  // p99 rank 990: 10 samples above it
  const Tail t = tail(v, 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(Tail, StepsDownWhenTooFewSamplesBeyond) {
  auto v = ramp(999);  // p99 rank 990 leaves 9 above: fall back to p95
  const Tail t = tail(v, 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 950.0);  // ceil(0.95 * 999) = 950
  EXPECT_EQ(t.samples, 999u);
}

TEST(Tail, HighestAllowedNotJustRequested) {
  auto v = ramp(100000);
  EXPECT_DOUBLE_EQ(tail(v, 99.0).percentile, 99.0);   // capped at the request
  EXPECT_DOUBLE_EQ(tail(v, 99.9).percentile, 99.9);   // 100 beyond
  auto few = ramp(20);  // p50 rank 10 leaves exactly 10 beyond
  EXPECT_DOUBLE_EQ(tail(few, 99.0).percentile, 50.0);
}

TEST(Tail, NoTailWithUnderElevenSamples) {
  auto v = ramp(10);
  const Tail t = tail(v, 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 0.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);  // the maximum
  EXPECT_EQ(t.samples, 10u);
  std::vector<double> none;
  EXPECT_EQ(tail(none, 99.0).samples, 0u);
}

TEST(Rss, ParsesStatusLines) {
  const char* text =
      "Name:\tperfbench\n"
      "VmPeak:\t  123456 kB\n"
      "VmHWM:\t    8192 kB\n"
      "VmRSS:\t    4096 kB\n";
  EXPECT_EQ(status_kb(text, "VmHWM"), 8192u);
  EXPECT_EQ(status_kb(text, "VmRSS"), 4096u);
  EXPECT_EQ(status_kb(text, "VmSwap"), 0u);
  EXPECT_EQ(status_kb(text, "Vm"), 0u);  // a prefix is not a key
  EXPECT_EQ(status_kb("VmHWM:\tgarbage\n", "VmHWM"), 0u);
  EXPECT_EQ(status_kb("VmHWM: 77 kB", "VmHWM"), 77u);  // no final newline
}

TEST(Rss, PeakOfThisProcessGrowsWithTouchedMemory) {
  const double before = peak_rss_mb();
  EXPECT_GT(before, 0.0);
  std::vector<char> block(64u << 20, 1);  // 64 MiB, every page touched
  EXPECT_GE(peak_rss_mb(), before + 32.0);
  EXPECT_EQ(block[12345], 1);
}

TEST(Host, NprocIsPositive) { EXPECT_GE(nproc(), 1u); }

}  // namespace
}  // namespace perfbench
