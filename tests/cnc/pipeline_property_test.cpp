// Seeded property test of RequestEngine against a plain-vector model.
//
// The engine keeps its entries behind a head index that purges advance and
// compactions reset, hands pickups out as spans over its own storage, and
// finds sessions through the arena-backed ClientIndex. The model keeps the
// same state the obvious way — a vector of entries erased from the front, a
// vector of clients searched linearly — and recomputes the response bodies
// and the state checksum from it. Random interleavings of requests, pushes,
// pickups and purges must leave both sides equal after every operation,
// across many compactions.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace cyd::cnc {
namespace {

struct ModelClient {
  std::string id;
  std::string type;
  std::uint64_t contacts = 0;
  std::uint64_t last_news_seq = 0;
  std::vector<Payload> ads;
};

/// The engine's observable behaviour over plain vectors.
struct Model {
  RequestEngine::Counters counters;
  std::vector<ModelClient> clients;         ///< first-sight order
  std::vector<std::size_t> contact_order;  ///< into clients
  std::vector<std::pair<std::uint64_t, Payload>> news;
  std::uint64_t next_news_seq = 1;
  std::vector<Entry> entries;  ///< on disk, arrival order
  std::size_t retrieved = 0;   ///< entries[0..retrieved) picked up
  std::uint64_t next_entry_id = 1;

  std::size_t client(const std::string& id) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (clients[i].id == id) return i;
    }
    clients.push_back(ModelClient{id, {}, 0, 0, {}});
    return clients.size() - 1;
  }

  ModelClient& contact(const std::string& id, const std::string& type) {
    const std::size_t i = client(id);
    if (clients[i].contacts == 0) {
      clients[i].type = type;
      contact_order.push_back(i);
    }
    ++clients[i].contacts;
    return clients[i];
  }

  net::HttpResponse get_news(const std::string& id, const std::string& type) {
    ++counters.get_news;
    ModelClient& c = contact(id, type);
    std::vector<Payload> delivery = c.ads;
    for (const auto& [seq, payload] : news) {
      if (seq > c.last_news_seq) delivery.push_back(payload);
    }
    counters.pending_ads -= c.ads.size();
    c.ads.clear();
    if (!news.empty()) c.last_news_seq = news.back().first;
    return net::HttpResponse{200, serialize_payloads(delivery)};
  }

  net::HttpResponse add_entry(const std::string& id, const std::string& type,
                              const std::string& name,
                              const EncryptedBlob& blob, sim::TimePoint now) {
    contact(id, type);
    Entry e;
    e.id = next_entry_id++;
    e.client_id = id;
    e.client_type = type;
    e.data_name = name;
    e.blob = blob;
    e.received_at = now;
    counters.upload_bytes += blob.ciphertext.size();
    ++counters.uploads;
    entries.push_back(std::move(e));
    return net::HttpResponse{200, "OK"};
  }

  std::size_t purge(sim::TimePoint cutoff) {
    std::size_t k = 0;
    while (k < retrieved && entries[k].received_at <= cutoff) ++k;
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(k));
    retrieved -= k;
    return k;
  }

  std::uint64_t state_checksum() const {
    std::uint64_t h = kChecksumBasis;
    h = checksum_mix(h, counters.get_news);
    h = checksum_mix(h, counters.uploads);
    h = checksum_mix(h, counters.upload_bytes);
    h = checksum_mix(h, counters.rejected);
    h = checksum_mix(h, counters.pending_ads);
    for (const std::size_t i : contact_order) {
      h = checksum_mix_bytes(h, clients[i].id);
      h = checksum_mix_bytes(h, clients[i].type);
      h = checksum_mix(h, clients[i].contacts);
      h = checksum_mix(h, clients[i].last_news_seq);
    }
    for (const Entry& e : entries) {
      h = checksum_mix_bytes(h, e.client_id);
      h = checksum_mix_bytes(h, e.data_name);
      h = checksum_mix(h, e.blob.key_id);
      h = checksum_mix_bytes(h, e.blob.ciphertext);
      h = checksum_mix(h, static_cast<std::uint64_t>(e.received_at));
      h = checksum_mix(h, e.retrieved ? 1u : 0u);
      h = checksum_mix(h, e.id);
    }
    h = checksum_mix(h, retrieved);
    h = checksum_mix(h, news.size());
    h = checksum_mix(h, next_news_seq);
    h = checksum_mix(h, next_entry_id);
    return h;
  }
};

void expect_same_entries(std::span<const Entry> got,
                         std::span<const Entry> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].client_id, want[i].client_id);
    EXPECT_EQ(got[i].client_type, want[i].client_type);
    EXPECT_EQ(got[i].data_name, want[i].data_name);
    EXPECT_EQ(got[i].blob.key_id, want[i].blob.key_id);
    EXPECT_EQ(got[i].blob.ciphertext, want[i].blob.ciphertext);
    EXPECT_EQ(got[i].received_at, want[i].received_at);
    EXPECT_EQ(got[i].retrieved, want[i].retrieved);
  }
}

net::HttpRequest request(const std::string& cmd, const std::string& client,
                         const std::string* type) {
  net::HttpRequest r;
  r.path = "/newsforyou";
  r.params = {{"cmd", cmd}, {"client", client}};
  if (type != nullptr) r.params["type"] = *type;
  return r;
}

TEST(RequestEnginePropertyTest, MatchesPlainVectorModelAcrossCompactions) {
  // Empty, short and heap-allocated (> 15 chars) ids share the engine.
  const std::vector<std::string> ids = {
      "",       "c0",    "c1", "c2",  "SP-client-with-a-long-name-0042",
      "c3",     "c4",    "c5", "FL-workstation-07.ministry.local",
      "ad-only"};
  const std::vector<std::string> types = {"FL", "SP", "SPE", "IP"};
  const auto key = CncKeyPair::generate(21);
  std::size_t compactions = 0;
  std::size_t plain_purges = 0;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(sim::derive_seed(0x9e0e, seed));
    RequestEngine engine;
    engine.set_logging(false);
    Model model;
    sim::TimePoint now = 0;

    for (int op = 0; op < 1500; ++op) {
      SCOPED_TRACE(op);
      now += rng.uniform_int(0, 3 * sim::kMinute);
      const std::string& id =
          ids[static_cast<std::size_t>(rng.uniform_int(0, 8))];
      const std::string* type =
          rng.bernoulli(0.2)
              ? nullptr
              : &types[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      const std::string effective_type = type ? *type : kClientTypeFl;
      const auto kind = rng.uniform_int(0, 99);
      if (kind < 35) {
        const net::HttpResponse got =
            engine.handle(request("GET_NEWS", id, type), now);
        const net::HttpResponse want = model.get_news(id, effective_type);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.body, want.body);
      } else if (kind < 70) {
        const std::string name = "doc" + std::to_string(op);
        const auto blob = encrypt_for(
            public_half(key),
            std::string(static_cast<std::size_t>(rng.uniform_int(0, 40)),
                        'x'));
        net::HttpRequest r = request("ADD_ENTRY", id, type);
        r.method = "POST";
        r.body = serialize_entry_upload(name, blob);
        const net::HttpResponse got = engine.handle(r, now);
        const net::HttpResponse want =
            model.add_entry(id, effective_type, name, blob, now);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.body, want.body);
      } else if (kind < 74) {
        // Malformed: a 404 path or a 400 upload body. Counted, no state.
        net::HttpRequest r = request("ADD_ENTRY", id, type);
        if (rng.bernoulli(0.5)) {
          r.path = "/wrong";
        } else {
          r.body = "UPL1garbage";
        }
        const net::HttpResponse got = engine.handle(r, now);
        EXPECT_TRUE(got.status == 404 || got.status == 400);
        EXPECT_TRUE(got.body.empty());
        ++model.counters.rejected;
      } else if (kind < 77) {
        Payload p{"mod-" + std::to_string(op), "broadcast " + id};
        engine.push_news(p);
        model.news.emplace_back(model.next_news_seq++, std::move(p));
      } else if (kind < 80) {
        const std::string& target =
            ids[static_cast<std::size_t>(rng.uniform_int(0, 9))];
        Payload p{"ad-" + std::to_string(op), "targeted " + target};
        engine.push_ad(target, p);
        model.clients[model.client(target)].ads.push_back(std::move(p));
        ++model.counters.pending_ads;
      } else if (kind < 90) {
        for (std::size_t i = model.retrieved; i < model.entries.size(); ++i) {
          model.entries[i].retrieved = true;
        }
        const std::size_t first_new = model.retrieved;
        model.retrieved = model.entries.size();
        expect_same_entries(
            engine.take_new_entries(),
            std::span<const Entry>(model.entries).subspan(first_new));
      } else {
        // Purge with a retention somewhere between "everything retrieved"
        // and "nothing": the purged prefix ranges from empty to all of it.
        const sim::TimePoint cutoff =
            now - rng.uniform_int(0, 2 * sim::kHour);
        const Entry* before = engine.entries().data();
        const std::size_t purged = engine.purge_retrieved(cutoff);
        EXPECT_EQ(purged, model.purge(cutoff));
        if (purged > 0) {
          // Without compaction the live range only advances by `purged`.
          if (engine.entries().data() == before + purged) {
            ++plain_purges;
          } else {
            ++compactions;
          }
        }
      }
      expect_same_entries(engine.entries(), model.entries);
      ASSERT_EQ(engine.retrieved_watermark(), model.retrieved);
      ASSERT_EQ(engine.state_checksum(), model.state_checksum());
    }
    EXPECT_EQ(engine.contacted_clients(), model.contact_order.size());
  }
  // Both purge paths ran, many times.
  EXPECT_GE(compactions, 20u);
  EXPECT_GE(plain_purges, 20u);
}

}  // namespace
}  // namespace cyd::cnc
