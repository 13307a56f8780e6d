// The determinism oracle on the benchmark's own sharded workloads: the
// sharded scheduler must reproduce the single-queue run's checksums at the
// pinned worker count and at one worker, and tracing must not change any
// output.

#include <gtest/gtest.h>

#include <algorithm>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

unsigned pinned_workers() { return std::min(4u, nproc()); }

template <class Size>
void expect_mode_identity(Iteration (*run)(const RunConfig&, const Size&),
                          const Size& size) {
  for (const std::uint64_t seed : {1u, 2u}) {
    RunConfig single{seed, 1, Mode::kSingleQueue, false};
    const Iteration reference = run(single, size);
    ASSERT_FALSE(reference.outputs.empty());
    EXPECT_EQ(reference.failed, 0u);
    for (const unsigned workers : {1u, pinned_workers()}) {
      for (const bool trace : {false, true}) {
        RunConfig sharded{seed, workers, Mode::kSharded, trace};
        const Iteration it = run(sharded, size);
        EXPECT_EQ(it.outputs, reference.outputs)
            << "seed " << seed << ", " << workers << " workers, trace "
            << trace;
        EXPECT_EQ(it.failed, 0u);
      }
    }
  }
}

TEST(Determinism, OutbreakShardedMatchesSingleQueue) {
  expect_mode_identity(&run_outbreak_sharded, OutbreakSize{12, 120});
}

TEST(Determinism, CncStormShardedMatchesSingleQueue) {
  expect_mode_identity(&run_cnc_storm, StormSize{4, 800, 3});
}

// The pinned outputs come from sharded runs at the pinned worker count;
// the single-queue reference must reproduce them at full size.
TEST(Determinism, FullSizeSingleQueueMatchesPinned) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const RunConfig single{seed, 1, Mode::kSingleQueue, false};
    const Outputs* outbreak = pinned_outputs("outbreak_sharded", seed);
    const Outputs* storm = pinned_outputs("cnc_storm", seed);
    ASSERT_NE(outbreak, nullptr);
    ASSERT_NE(storm, nullptr);
    EXPECT_EQ(run_outbreak_sharded(single).outputs, *outbreak);
    EXPECT_EQ(run_cnc_storm(single).outputs, *storm);
  }
}

TEST(Determinism, TracedPileMatchesUntraced) {
  const PileSize size{8, 6};
  const Iteration plain =
      run_attribution_pile(RunConfig{1, 1, Mode::kSharded, false}, size);
  const Iteration traced =
      run_attribution_pile(RunConfig{1, 1, Mode::kSharded, true}, size);
  EXPECT_EQ(plain.outputs, traced.outputs);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_DOUBLE_EQ(plain.extra.at("lineage_recall"), 1.0);
  EXPECT_EQ(plain.layer.at("analysis.candidate_pairs"),
            traced.layer.at("analysis.candidate_pairs"));
  EXPECT_EQ(plain.layer.at("analysis.confirmed_edges"),
            traced.layer.at("analysis.confirmed_edges"));
}

TEST(Determinism, TracedAramcoMatchesUntraced) {
  const AramcoSize size{24};
  const Iteration plain =
      run_aramco_wipe(RunConfig{3, 1, Mode::kSharded, false}, size);
  const Iteration traced =
      run_aramco_wipe(RunConfig{3, 1, Mode::kSharded, true}, size);
  EXPECT_EQ(plain.outputs, traced.outputs);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_GT(traced.layer.at("sim.spread_window_s"), 0.0);
}

}  // namespace
}  // namespace perfbench
