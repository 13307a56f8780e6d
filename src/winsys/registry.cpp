#include "winsys/registry.hpp"

#include <array>
#include <cassert>
#include <cctype>

namespace cyd::winsys {

namespace {

const RegValueMap kNoValues;

/// std::tolower of every byte value, tabulated on first use. The program
/// never changes its C locale, so this is std::tolower without a libc call
/// per character.
const std::array<char, 256>& lower_table() {
  static const std::array<char, 256> table = [] {
    std::array<char, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = static_cast<char>(std::tolower(c));
    return t;
  }();
  return table;
}

/// A key path or value name in canonical form: lower-case (std::tolower),
/// '/' folded to '\\', leading, repeated and trailing separators dropped.
/// Names up to kInline bytes canonicalize into an inline buffer, so lookups
/// allocate nothing; longer ones fall back to the heap.
class Canon {
 public:
  explicit Canon(std::string_view s) {
    char* out = inline_;
    if (s.size() > kInline) {
      heap_.resize(s.size());
      out = heap_.data();
    }
    const auto& lower = lower_table();
    std::size_t n = 0;
    bool last_sep = false;
    for (char raw : s) {
      char c = raw == '/' ? '\\' : raw;
      c = lower[static_cast<unsigned char>(c)];
      if (c == '\\') {
        if (last_sep || n == 0) continue;
        last_sep = true;
      } else {
        last_sep = false;
      }
      out[n++] = c;
    }
    while (n > 0 && out[n - 1] == '\\') --n;
    view_ = std::string_view(out, n);
  }
  Canon(const Canon&) = delete;
  Canon& operator=(const Canon&) = delete;

  std::string_view view() const { return view_; }

 private:
  static constexpr std::size_t kInline = 256;
  char inline_[kInline] = {};
  std::string heap_;
  std::string_view view_;
};

/// The entry for `key`, inserted (and its key string allocated) only when
/// it is missing.
template <typename Map>
typename Map::mapped_type& slot(Map& map, std::string_view key) {
  auto it = map.lower_bound(key);
  if (it == map.end() || it->first != key) {
    it = map.emplace_hint(it, key, typename Map::mapped_type{});
  }
  return it->second;
}

/// Visits the merged value names of one key in sorted order: delta shadows
/// base, whiteouted base names are skipped.
template <typename Fn>
void merge_value_names(const RegValueMap& delta, const RegValueMap& base,
                       const RegNameSet* whiteouts, Fn&& fn) {
  auto di = delta.begin();
  auto bi = base.begin();
  while (di != delta.end() || bi != base.end()) {
    if (bi == base.end() || (di != delta.end() && di->first <= bi->first)) {
      if (bi != base.end() && bi->first == di->first) ++bi;
      fn(di->first);
      ++di;
    } else {
      if (whiteouts == nullptr || !whiteouts->contains(bi->first)) {
        fn(bi->first);
      }
      ++bi;
    }
  }
}

}  // namespace

void Registry::set_base(std::shared_ptr<const Registry> base) {
  assert(base == nullptr || base->base_ == nullptr);
  base_ = std::move(base);
}

void Registry::set(std::string_view key, std::string_view value,
                   RegValue data) {
  const Canon k(key);
  const Canon v(value);
  if (auto dit = deleted_values_.find(k.view());
      dit != deleted_values_.end()) {
    if (auto wit = dit->second.find(v.view()); wit != dit->second.end()) {
      dit->second.erase(wit);
    }
  }
  slot(slot(keys_, k.view()), v.view()) = std::move(data);
}

std::optional<RegValue> Registry::get(std::string_view key,
                                      std::string_view value) const {
  const Canon ck(key);
  const Canon cv(value);
  const std::string_view k = ck.view();
  const std::string_view v = cv.view();
  if (auto kit = keys_.find(k); kit != keys_.end()) {
    if (auto vit = kit->second.find(v); vit != kit->second.end()) {
      return vit->second;
    }
  }
  if (base_ == nullptr || deleted_keys_.contains(k)) return std::nullopt;
  if (auto dit = deleted_values_.find(k);
      dit != deleted_values_.end() && dit->second.contains(v)) {
    return std::nullopt;
  }
  auto bit = base_->keys_.find(k);
  if (bit == base_->keys_.end()) return std::nullopt;
  auto vit = bit->second.find(v);
  if (vit == bit->second.end()) return std::nullopt;
  return vit->second;
}

std::optional<std::string> Registry::get_string(std::string_view key,
                                                std::string_view value) const {
  auto v = get(key, value);
  if (!v || !std::holds_alternative<std::string>(*v)) return std::nullopt;
  return std::get<std::string>(*v);
}

std::optional<std::uint32_t> Registry::get_dword(std::string_view key,
                                                 std::string_view value) const {
  auto v = get(key, value);
  if (!v || !std::holds_alternative<std::uint32_t>(*v)) return std::nullopt;
  return std::get<std::uint32_t>(*v);
}

bool Registry::remove_value(std::string_view key, std::string_view value) {
  const Canon ck(key);
  const Canon cv(value);
  const std::string_view k = ck.view();
  const std::string_view v = cv.view();
  bool removed = false;
  if (auto kit = keys_.find(k); kit != keys_.end()) {
    if (auto vit = kit->second.find(v); vit != kit->second.end()) {
      kit->second.erase(vit);
      removed = true;
    }
  }
  if (base_ != nullptr && !deleted_keys_.contains(k)) {
    auto bit = base_->keys_.find(k);
    if (bit != base_->keys_.end() && bit->second.contains(v)) {
      if (slot(deleted_values_, k).emplace(v).second) removed = true;
    }
  }
  return removed;
}

std::size_t Registry::remove_key(std::string_view key) {
  const std::string k(Canon(key).view());
  const std::string prefix = k + "\\";
  auto in_subtree = [&](const std::string& s) {
    return s == k || s.compare(0, prefix.size(), prefix) == 0;
  };
  std::size_t removed = 0;
  RegNameSet dropped;  // delta keys erased, to avoid double count
  for (auto it = keys_.lower_bound(k);
       it != keys_.end() && it->first.compare(0, k.size(), k) == 0;) {
    if (in_subtree(it->first)) {
      dropped.insert(it->first);
      it = keys_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (base_ != nullptr) {
    for (auto it = base_->keys_.lower_bound(k);
         it != base_->keys_.end() && it->first.compare(0, k.size(), k) == 0;
         ++it) {
      if (!in_subtree(it->first)) continue;
      deleted_values_.erase(it->first);  // key whiteout covers them
      if (deleted_keys_.insert(it->first).second &&
          !dropped.contains(it->first)) {
        ++removed;
      }
    }
  }
  return removed;
}

bool Registry::key_exists(std::string_view key) const {
  const Canon ck(key);
  const std::string_view k = ck.view();
  if (keys_.contains(k)) return true;
  if (deleted_keys_.contains(k)) return false;
  return base_ != nullptr && base_->keys_.contains(k);
}

std::vector<std::string> Registry::values(std::string_view key) const {
  const Canon ck(key);
  const std::string_view k = ck.view();
  std::vector<std::string> out;
  auto kit = keys_.find(k);
  const RegValueMap* delta = kit == keys_.end() ? nullptr : &kit->second;
  const RegValueMap* base = nullptr;
  if (base_ != nullptr && !deleted_keys_.contains(k)) {
    auto bit = base_->keys_.find(k);
    if (bit != base_->keys_.end()) base = &bit->second;
  }
  if (delta == nullptr && base == nullptr) return out;
  const RegNameSet* whiteouts = nullptr;
  if (auto dit = deleted_values_.find(k); dit != deleted_values_.end()) {
    whiteouts = &dit->second;
  }
  merge_value_names(delta != nullptr ? *delta : kNoValues,
                    base != nullptr ? *base : kNoValues, whiteouts,
                    [&out](const std::string& name) { out.push_back(name); });
  return out;
}

std::vector<std::pair<std::string, std::string>> Registry::all_entries()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  auto emit_key = [&](const std::string& key, const RegValueMap* delta,
                      const RegValueMap* base) {
    const RegNameSet* whiteouts = nullptr;
    if (auto dit = deleted_values_.find(key); dit != deleted_values_.end()) {
      whiteouts = &dit->second;
    }
    merge_value_names(
        delta != nullptr ? *delta : kNoValues,
        base != nullptr ? *base : kNoValues, whiteouts,
        [&](const std::string& name) { out.emplace_back(key, name); });
  };
  auto di = keys_.begin();
  auto bi = base_ != nullptr ? base_->keys_.begin()
                             : decltype(keys_.begin()){};
  const auto bend = base_ != nullptr ? base_->keys_.end()
                                     : decltype(keys_.begin()){};
  while (di != keys_.end() || bi != bend) {
    if (bi == bend || (di != keys_.end() && di->first <= bi->first)) {
      const RegValueMap* base = nullptr;
      if (bi != bend && bi->first == di->first) {
        if (!deleted_keys_.contains(di->first)) base = &bi->second;
        ++bi;
      }
      emit_key(di->first, &di->second, base);
      ++di;
    } else {
      if (!deleted_keys_.contains(bi->first)) {
        emit_key(bi->first, nullptr, &bi->second);
      }
      ++bi;
    }
  }
  return out;
}

}  // namespace cyd::winsys
