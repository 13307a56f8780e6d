// ClientIndex: the arena-backed session index behind every beacon.

#include "cnc/client_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cyd::cnc {
namespace {

/// Empty, short (inline in std::string) and long (> 15 chars) ids.
std::string id_for(std::size_t i) {
  if (i == 0) return "";
  if (i % 3 == 0) {
    return "FL-workstation-" + std::to_string(i) + ".ministry.example";
  }
  return "c" + std::to_string(i);
}

void expect_all_found(const ClientIndex& index, std::size_t n) {
  ASSERT_EQ(index.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = id_for(i);
    const ClientState* s = index.find(id);
    ASSERT_NE(s, nullptr) << "id #" << i << " lost at size " << n;
    EXPECT_EQ(s, &index.state(static_cast<std::uint32_t>(i)));
    EXPECT_EQ(index.id_of(*s), id);
  }
}

TEST(ClientIndexTest, TenThousandIdsSurviveEveryGrow) {
  constexpr std::size_t kIds = 10'000;
  ClientIndex index;
  EXPECT_EQ(index.find(""), nullptr);
  // A full sweep after each of the first 200 creations, then at sizes less
  // than 2x apart: the table doubles on each grow(), so every grow is
  // followed by a sweep before the next one.
  std::size_t next_sweep = 200;
  for (std::size_t i = 0; i < kIds; ++i) {
    const std::string id = id_for(i);
    EXPECT_EQ(index.find(id), nullptr) << "#" << i << " found before creation";
    ASSERT_EQ(index.get_or_create(id), i);
    EXPECT_EQ(index.get_or_create(id), i) << "second sight created a state";
    if (i < 200 || i + 1 == next_sweep || i + 1 == kIds) {
      expect_all_found(index, i + 1);
      if (i + 1 >= 200) next_sweep = (i + 1) * 5 / 4;
    }
  }
  // Absent ids: never inserted, prefixes and extensions of stored ids.
  const std::vector<std::string> absent_ids = {
      "c10000", "c", "c1 ", "C1", std::string(1, '\0'), "FL-workstation-3",
      "FL-workstation-3.ministry", "FL-workstation-3.ministry.example."};
  for (const std::string& absent : absent_ids) {
    EXPECT_EQ(index.find(absent), nullptr) << absent;
  }
  EXPECT_EQ(index.size(), kIds);
}

TEST(ClientIndexTest, StateFieldsAreIndependentPerId) {
  ClientIndex index;
  const std::uint32_t a = index.get_or_create("alpha");
  const std::uint32_t b = index.get_or_create("");
  index.state(a).contacts = 7;
  index.state(b).contacts = 3;
  ASSERT_NE(index.find("alpha"), nullptr);
  ASSERT_NE(index.find(""), nullptr);
  EXPECT_EQ(index.find("alpha")->contacts, 7u);
  EXPECT_EQ(index.find("")->contacts, 3u);
  EXPECT_EQ(index.id_of(index.state(b)), "");
  index.find("")->contacts = 4;
  EXPECT_EQ(index.state(b).contacts, 4u);
}

}  // namespace
}  // namespace cyd::cnc
