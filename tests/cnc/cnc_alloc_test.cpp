// Allocation pins for the C&C hot path. A beacon storm runs GET_NEWS,
// pickup and purge millions of times, so each must touch the heap only for
// what it hands back: pickup and purge return views and move nothing new
// onto the heap, decrypt allocates only its plaintext, and a warm GET_NEWS
// only its response body. Rides in alloc_tests for the counting operator new
// of tools/alloc_hook.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"

namespace cyd::cnc {
namespace {

net::HttpRequest get_news(const std::string& client) {
  net::HttpRequest r;
  r.path = "/newsforyou";
  r.params = {{"cmd", "GET_NEWS"}, {"client", client}, {"type", "FL"}};
  return r;
}

net::HttpRequest upload(const std::string& client, const std::string& name,
                        const EncryptedBlob& blob) {
  net::HttpRequest r;
  r.method = "POST";
  r.path = "/newsforyou";
  r.params = {{"cmd", "ADD_ENTRY"}, {"client", client}, {"type", "FL"}};
  r.body = serialize_entry_upload(name, blob);
  return r;
}

TEST(CncAllocTest, PickupAndPurgeAllocateNothing) {
  constexpr int kEntries = 256;
  const auto key = CncKeyPair::generate(11);
  RequestEngine engine;
  engine.set_logging(false);
  for (int i = 0; i < kEntries; ++i) {
    engine.handle(upload("client-with-a-heap-sized-id-" + std::to_string(i),
                         "document-" + std::to_string(i) + ".docx",
                         encrypt_for(public_half(key),
                                     "loot that outgrows the inline buffer")),
                  i * sim::kMinute);
  }
  [[maybe_unused]] const std::uint64_t before = alloc_hook::allocations();
  const std::span<const Entry> picked = engine.take_new_entries();
  const std::size_t picked_n = picked.size();
  // Half, then the rest: a plain head advance, then one that compacts.
  const std::size_t first =
      engine.purge_retrieved(kEntries / 2 * sim::kMinute);
  const std::size_t rest = engine.purge_retrieved(kEntries * sim::kMinute);
  [[maybe_unused]] const std::uint64_t after = alloc_hook::allocations();
  EXPECT_EQ(picked_n, static_cast<std::size_t>(kEntries));
  EXPECT_EQ(first + rest, static_cast<std::size_t>(kEntries));
  EXPECT_TRUE(engine.entries().empty());
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 0u) << "pickup/purge touched the heap";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(CncAllocTest, DecryptAllocatesOnlyThePlaintext) {
  const auto key = CncKeyPair::generate(12);
  const EncryptedBlob blob =
      encrypt_for(public_half(key), std::string(4096, 'p'));
  [[maybe_unused]] const std::uint64_t before = alloc_hook::allocations();
  const auto plain = decrypt(key, blob);
  [[maybe_unused]] const std::uint64_t after = alloc_hook::allocations();
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, std::string(4096, 'p'));
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 1u) << "decrypt built more than its plaintext";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(CncAllocTest, WarmGetNewsAllocatesOnlyTheBody) {
  // With the access log on, each request also formats one log line; the
  // storm runs with logging off, which is what this pins.
  RequestEngine engine;
  engine.set_logging(false);
  const std::string client = "FL-workstation-07.ministry.local";
  const net::HttpRequest beacon = get_news(client);
  engine.handle(beacon, 1);  // first sight: creates the session state
  engine.push_news(Payload{"mod-broadcast", "broadcast module bytes"});
  engine.push_ad(client, Payload{"targeted", "targeted command bytes"});
  [[maybe_unused]] const std::uint64_t before = alloc_hook::allocations();
  const net::HttpResponse response = engine.handle(beacon, 2);
  [[maybe_unused]] const std::uint64_t after = alloc_hook::allocations();
  ASSERT_EQ(response.status, 200);
  // Both payloads went out, in a body past the inline string buffer.
  std::vector<PayloadView> views;
  ASSERT_TRUE(parse_payload_views(response.body, views));
  EXPECT_EQ(views.size(), 2u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 1u)
      << "a warm GET_NEWS allocated beyond its body";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

}  // namespace
}  // namespace cyd::cnc
