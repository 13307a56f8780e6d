#pragma once
// Hot-path client/session state for the C&C server.
//
// The seed server kept everything a GET_NEWS needs (contacts, last_news_seq,
// last_seen) in Database rows of std::map<string,string>, found by an
// O(clients) scan over every row and round-tripped through stoull/to_string on
// every beacon. ClientIndex pulls that session state into a flat vector of
// ClientState keyed by an open-addressing hash over the client ids: one probe
// per lookup, integer fields, no allocation on the warm path. The Database
// stays the cold forensic store — rows are created/updated write-behind from
// the states marked `touched` here, so table dumps remain byte-identical to
// the eager seed path.
//
// Every id is stored once, in one append-only byte arena; a state names its
// id by {offset, size}. A slot packs the id's 32-bit hash over the state
// index, so a probe rejects a foreign slot on the tag alone and touches the
// state and the arena only on a tag match, and grow() rehashes from the tags
// without reading a single id.
//
// A state is created on first sight of a client id, which can be a contact
// (GET_NEWS/ADD_ENTRY — starts the forensic row) or a push_ad for a client
// that has not phoned home yet (no row until it does, exactly like the
// seed's ads_ map). Client identity is the id alone; `type` records what the
// first contact claimed, matching the seed's one-row-per-client semantics.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cnc/wire.hpp"
#include "sim/time.hpp"

namespace cyd::cnc {

struct ClientState {
  std::uint32_t id_offset = 0;  ///< into the index's id arena
  std::uint32_t id_size = 0;
  std::string type;               ///< recorded at first contact
  sim::TimePoint first_seen = 0;  ///< first contact (not first push_ad)
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
  /// stable forever; ClientState references and id_of() views are
  /// invalidated by the next creation (states and ids live in growing
  /// buffers).
  std::uint32_t get_or_create(std::string_view client_id);

  /// Existing state or nullptr; never allocates.
  const ClientState* find(std::string_view client_id) const;
  ClientState* find(std::string_view client_id);

  ClientState& state(std::uint32_t index) { return states_[index]; }
  const ClientState& state(std::uint32_t index) const {
    return states_[index];
  }
  std::string_view id_of(const ClientState& s) const {
    return std::string_view(ids_.data() + s.id_offset, s.id_size);
  }

  /// States are numbered 0..size() in creation (first-sight) order.
  std::size_t size() const { return states_.size(); }

 private:
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

  /// Position of `client_id`'s slot, or of the empty slot where it would go.
  std::size_t probe(std::string_view client_id, std::uint32_t hash) const;
  void grow();

  std::string ids_;  ///< every client id, back to back, in creation order
  std::vector<ClientState> states_;
  /// Open addressing, linear probing: (hash32 << 32) | state index.
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;  ///< slots_.size() - 1 (power of two)
};

}  // namespace cyd::cnc
