#pragma once
// Interned hot-path client/session state for the C&C server.
//
// The seed server kept everything a GET_NEWS needs (contacts, last_news_seq,
// last_seen) in Database rows of std::map<string,string>, found by an
// O(clients) scan over every row and round-tripped through stoull/to_string on
// every beacon. ClientIndex pulls that session state into a flat vector of
// ClientState keyed by an open-addressing hash over interned client ids
// (StringPool pattern): one probe per lookup, integer fields, no allocation
// on the warm path. The Database stays the cold forensic store — rows are
// created/updated write-behind from the states marked `touched` here, so
// table dumps remain byte-identical to the eager seed path.
//
// A state is created on first sight of a client id, which can be a contact
// (GET_NEWS/ADD_ENTRY — starts the forensic row) or a push_ad for a client
// that has not phoned home yet (no row until it does, exactly like the
// seed's ads_ map). Client identity is the id alone; `type` records what the
// first contact claimed, matching the seed's one-row-per-client semantics.

#include <cstdint>
#include <string_view>
#include <vector>

#include "cnc/wire.hpp"
#include "sim/string_pool.hpp"
#include "sim/time.hpp"

namespace cyd::cnc {

struct ClientState {
  sim::StringId id = sim::kNoString;  ///< into the index's pool
  std::string type;                   ///< recorded at first contact
  sim::TimePoint first_seen = 0;      ///< first contact (not first push_ad)
  sim::TimePoint last_seen = 0;
  std::uint64_t contacts = 0;
  std::uint64_t last_news_seq = 0;
  std::vector<Payload> ads;  ///< queued targeted commands, delivered once
  std::uint64_t row_id = 0;  ///< cold-store row; 0 = not materialized yet
  bool touched = false;      ///< queued for the next write-behind flush
};

class ClientIndex {
 public:
  ClientIndex();

  /// Index of the state for `client_id`, creating it on first sight.
  /// Amortised O(1); allocates only on creation. The returned index is
  /// stable forever; ClientState references are invalidated by the next
  /// creation (the states live in a growing vector).
  std::uint32_t get_or_create(std::string_view client_id);

  /// Existing state or nullptr; never allocates.
  const ClientState* find(std::string_view client_id) const;
  ClientState* find(std::string_view client_id);

  ClientState& state(std::uint32_t index) { return states_[index]; }
  const ClientState& state(std::uint32_t index) const {
    return states_[index];
  }
  std::string_view id_of(const ClientState& s) const {
    return pool_.view(s.id);
  }

  /// All states in creation (first-sight) order.
  const std::vector<ClientState>& states() const { return states_; }
  std::vector<ClientState>& states() { return states_; }
  std::size_t size() const { return states_.size(); }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffff'ffffu;

  std::uint32_t* probe(std::string_view client_id);
  void grow();

  sim::StringPool pool_;
  std::vector<ClientState> states_;
  std::vector<std::uint32_t> slots_;  ///< open addressing, linear probing
  std::size_t mask_ = 0;              ///< slots_.size() - 1 (power of two)
};

}  // namespace cyd::cnc
