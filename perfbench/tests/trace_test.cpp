#include "trace.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  Tracer tracer(2);
  SpanBuffer& main = tracer.buffer(tracer.main_index());
  const std::uint64_t window = main.add("window", 0, 100, 0);
  // Two shards run in parallel under the window: [10,50) and [30,70)
  // overlap, [80,90) stands alone, and [95,120) sticks out of the parent.
  tracer.buffer(0).add("event", 10, 50, window);
  tracer.buffer(1).add("event", 30, 70, window);
  tracer.buffer(0).add("event", 80, 90, window);
  tracer.buffer(1).add("event", 95, 120, window);

  const auto totals = aggregate(tracer.take_merged());
  // Covered: [10,70) + [80,90) + [95,100) = 60 + 10 + 5 = 75.
  EXPECT_DOUBLE_EQ(totals.at("window").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(totals.at("window").self_ns, 25.0);
  EXPECT_EQ(totals.at("event").count, 4u);
  EXPECT_DOUBLE_EQ(totals.at("event").total_ns, 40.0 + 40.0 + 10.0 + 25.0);
  EXPECT_DOUBLE_EQ(totals.at("event").self_ns, 115.0);
}

TEST(SelfTime, NestedSpansInOneBuffer) {
  Tracer tracer(0);
  SpanBuffer& b = tracer.buffer(0);
  const std::uint64_t outer = b.add("outer", 0, 100, 0);
  const std::uint64_t inner = b.add("inner", 20, 60, outer);
  b.add("leaf", 30, 40, inner);
  const auto totals = aggregate(tracer.take_merged());
  EXPECT_DOUBLE_EQ(totals.at("outer").self_ns, 60.0);
  EXPECT_DOUBLE_EQ(totals.at("inner").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(totals.at("leaf").self_ns, 10.0);
}

TEST(Merge, OrdersByStartThenBufferThenSequence) {
  Tracer tracer(2);
  tracer.buffer(1).add("b1-first", 5, 6, 0);
  tracer.buffer(1).add("b1-second", 5, 7, 0);
  tracer.buffer(0).add("b0", 5, 9, 0);
  tracer.buffer(2).add("main-early", 1, 2, 0);
  tracer.buffer(0).add("b0-late", 8, 9, 0);
  const auto merged = tracer.take_merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_STREQ(merged[0].name, "main-early");
  EXPECT_STREQ(merged[1].name, "b0");
  EXPECT_STREQ(merged[2].name, "b1-first");
  EXPECT_STREQ(merged[3].name, "b1-second");
  EXPECT_STREQ(merged[4].name, "b0-late");
  EXPECT_EQ(merged[2].buffer(), 1u);
  EXPECT_EQ(merged[3].sequence(), 1u);
  EXPECT_TRUE(tracer.take_merged().empty());  // buffers were drained
}

TEST(Scope, ShardSpansTakeTheMainContextAsParent) {
  Tracer tracer(2);
  std::uint64_t window_id = 0;
  {
    Scope window(&tracer, tracer.main_index(), "window");
    window_id = window.id();
    tracer.set_context(window_id);
    // One writer per buffer, as shards on scheduler workers are.
    std::thread a([&] {
      Scope event(&tracer, 0, "event");
      Scope inner(&tracer, 0, "inner");
    });
    std::thread b([&] { Scope event(&tracer, 1, "event"); });
    a.join();
    b.join();
  }
  const auto merged = tracer.take_merged();
  ASSERT_EQ(merged.size(), 4u);
  std::uint64_t event0 = 0;
  for (const auto& s : merged) {
    if (std::string_view(s.name) == "event") {
      EXPECT_EQ(s.parent, window_id);
      if (s.buffer() == 0) event0 = s.id;
    }
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  for (const auto& s : merged) {
    if (std::string_view(s.name) == "inner") {
      EXPECT_EQ(s.parent, event0);
    }
  }
}

TEST(Scope, UntracedIsANoOp) {
  Scope none(nullptr, 0, "nothing");
  EXPECT_EQ(none.id(), 0u);
}

TEST(BusyByBuffer, SumsOneNamePerBuffer) {
  Tracer tracer(2);
  tracer.buffer(0).add("event", 0, 10, 0);
  tracer.buffer(0).add("event", 20, 25, 0);
  tracer.buffer(1).add("event", 0, 7, 0);
  tracer.buffer(1).add("other", 0, 100, 0);
  const auto busy = busy_by_buffer(tracer.take_merged(), "event", 2);
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[0], 15.0);
  EXPECT_DOUBLE_EQ(busy[1], 7.0);
}

}  // namespace
}  // namespace perfbench
