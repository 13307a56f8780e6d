#include "cnc/client_index.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"

namespace cyd::cnc {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two

std::uint32_t hash32(std::string_view client_id) {
  const std::uint64_t h = common::fnv1a64(client_id);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint64_t make_slot(std::uint32_t hash, std::uint32_t index) {
  return (std::uint64_t{hash} << 32) | index;
}

std::uint32_t slot_hash(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot >> 32);
}

std::uint32_t slot_index(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot);
}

}  // namespace

ClientIndex::ClientIndex() : slots_(kInitialSlots, kEmptySlot) {
  mask_ = kInitialSlots - 1;
}

std::size_t ClientIndex::probe(std::string_view client_id,
                               std::uint32_t hash) const {
  std::size_t i = hash & mask_;
  while (true) {
    const std::uint64_t slot = slots_[i];
    if (slot == kEmptySlot ||
        (slot_hash(slot) == hash &&
         id_of(states_[slot_index(slot)]) == client_id)) {
      return i;
    }
    i = (i + 1) & mask_;
  }
}

void ClientIndex::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmptySlot);
  mask_ = slots_.size() - 1;
  for (const std::uint64_t slot : old) {
    if (slot == kEmptySlot) continue;
    std::size_t i = slot_hash(slot) & mask_;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

std::uint32_t ClientIndex::get_or_create(std::string_view client_id) {
  const std::uint32_t hash = hash32(client_id);
  std::size_t pos = probe(client_id, hash);
  if (slots_[pos] != kEmptySlot) return slot_index(slots_[pos]);
  // Offsets, sizes and indexes are 32-bit; the all-ones index would make a
  // slot indistinguishable from kEmptySlot.
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (states_.size() >= kMax || ids_.size() + client_id.size() > kMax) {
    throw std::length_error("ClientIndex: 32-bit id arena or index exhausted");
  }
  // Keep the table under ~70% full so probe chains stay short.
  if ((states_.size() + 1) * 10 >= slots_.size() * 7) {
    grow();
    pos = probe(client_id, hash);
  }
  const auto index = static_cast<std::uint32_t>(states_.size());
  ClientState& state = states_.emplace_back();
  state.id_offset = static_cast<std::uint32_t>(ids_.size());
  state.id_size = static_cast<std::uint32_t>(client_id.size());
  ids_.append(client_id);
  slots_[pos] = make_slot(hash, index);
  return index;
}

const ClientState* ClientIndex::find(std::string_view client_id) const {
  const std::uint64_t slot = slots_[probe(client_id, hash32(client_id))];
  return slot == kEmptySlot ? nullptr : &states_[slot_index(slot)];
}

ClientState* ClientIndex::find(std::string_view client_id) {
  return const_cast<ClientState*>(std::as_const(*this).find(client_id));
}

}  // namespace cyd::cnc
