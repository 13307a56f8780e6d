#pragma once
// Simulated Windows registry.
//
// Keys are backslash paths under the usual hives ("HKLM\\SYSTEM\\..."),
// values are string or dword. Malware persistence (Stuxnet's service keys,
// Shamoon's TrkSvr service) and configuration (autorun policy) live here,
// and the IOC extractor walks it.
//
// Like winsys::Volume, a Registry can be layered copy-on-write over an
// immutable base hive (set_base): reads consult delta -> base per *value*
// (setting one value under a base key does not hide the key's other base
// values), remove_value/remove_key leave whiteouts, and a base-less Registry
// behaves exactly as before the layering existed.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.hpp"

namespace cyd::winsys {

using RegValue = std::variant<std::string, std::uint32_t>;

/// Canonical value name -> data, and sets of canonical names. Transparent
/// comparators let lookups take string_views, so only inserts allocate.
using RegValueMap = std::map<std::string, RegValue, std::less<>>;
using RegNameSet = std::set<std::string, std::less<>>;

class Registry {
 public:
  /// Layers this registry copy-on-write over an immutable base hive.
  /// Single-level (the base must itself be base-less). nullptr detaches.
  void set_base(std::shared_ptr<const Registry> base);
  const Registry* base() const { return base_.get(); }

  /// Sets (creating intermediate keys implicitly) key\value = data.
  void set(std::string_view key, std::string_view value, RegValue data);

  std::optional<RegValue> get(std::string_view key,
                              std::string_view value) const;
  std::optional<std::string> get_string(std::string_view key,
                                        std::string_view value) const;
  std::optional<std::uint32_t> get_dword(std::string_view key,
                                         std::string_view value) const;

  bool remove_value(std::string_view key, std::string_view value);
  /// Deletes a key and every subkey.
  std::size_t remove_key(std::string_view key);

  bool key_exists(std::string_view key) const;
  /// Value names under a key.
  std::vector<std::string> values(std::string_view key) const;
  /// Every (key, value) pair, for IOC sweeps.
  std::vector<std::pair<std::string, std::string>> all_entries() const;

 private:
  // canonical key -> (canonical value name -> data)
  std::map<std::string, RegValueMap, std::less<>> keys_;
  std::shared_ptr<const Registry> base_;  // immutable template hive layer
  RegNameSet deleted_keys_;               // whole-key whiteouts over base
  // per-value whiteouts over base, canonical key -> value names
  std::map<std::string, RegNameSet, std::less<>> deleted_values_;
};

}  // namespace cyd::winsys
