#pragma once
// Byte-buffer helpers shared across modules.
//
// Simulated file contents, PE sections, packets and stolen data are all plain
// byte strings; these helpers provide the encoding, hashing and statistics
// the dissection toolkit needs (hex dumps, XOR ciphers, entropy scoring).

#include <cstdint>
#include <string>
#include <string_view>

namespace cyd::sim {
class Rng;
}

namespace cyd::common {

/// Raw bytes. std::string is used so file contents, packet payloads and PE
/// images share one representation with cheap copies on small buffers.
using Bytes = std::string;

/// Lower-case hex encoding ("deadbeef").
std::string to_hex(std::string_view data);

/// Inverse of to_hex. Throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Single-byte XOR cipher — the "simple Xor cipher" Shamoon uses to encrypt
/// its PE resources. Involution: applying twice restores the input.
Bytes xor_cipher(std::string_view data, std::uint8_t key);

/// Multi-byte repeating-key XOR.
Bytes xor_cipher(std::string_view data, std::string_view key);

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash; the simulation's stand-in for a strong digest.
/// Passing the hash of a prefix as `h` continues it over `data`, so a
/// stream hashed piece by piece equals the hash of its concatenation.
std::uint64_t fnv1a64(std::string_view data, std::uint64_t h = kFnv1a64Offset);

/// Truncated FNV used as the *weak* digest in the PKI model (collidable).
std::uint32_t weak_digest32(std::string_view data);

/// Shannon entropy in bits/byte, in [0, 8]. Packed/encrypted payloads score
/// high; the analysis heuristics use this exactly like real PE triage does.
double shannon_entropy(std::string_view data);

/// Deterministic pseudo-random buffer from the given stream.
Bytes random_bytes(sim::Rng& rng, std::size_t n);

/// True if `needle` occurs in `haystack`.
bool contains(std::string_view haystack, std::string_view needle);

/// Case-insensitive ASCII comparison helpers.
bool iequals(std::string_view a, std::string_view b);
std::string to_lower(std::string_view s);

/// Little-endian fixed-width integer append/read used by the PE serializer.
/// The writers take any byte sink with append(std::string_view) and
/// push_back(char): a Bytes buffer, or a streaming digest that hashes the
/// encoding without materializing it (pki::Digester).
template <typename Sink>
void put_u32(Sink& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(std::string_view(b, sizeof b));
}

template <typename Sink>
void put_u64(Sink& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(std::string_view(b, sizeof b));
}

/// u32 length prefix, then the bytes.
template <typename Sink>
void put_string(Sink& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Throw std::out_of_range on a short buffer (Reader below does not).
std::uint32_t get_u32(std::string_view data, std::size_t offset);
std::uint64_t get_u64(std::string_view data, std::size_t offset);

/// Non-throwing, bounds-checked cursor over a wire encoding. Each read
/// returns false once the data runs out, so parsers of untrusted blobs
/// reject truncation without exceptions (or the allocations they make).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(unsigned char& v) {
    if (remaining() < 1) return false;
    v = static_cast<unsigned char>(data_[off_++]);
    return true;
  }
  bool u32(std::uint32_t& v) { return little_endian(v); }
  bool u64(std::uint64_t& v) { return little_endian(v); }
  /// The next `n` bytes, as a view into the data.
  bool bytes(std::size_t n, std::string_view& v) {
    if (remaining() < n) return false;
    v = data_.substr(off_, n);
    off_ += n;
    return true;
  }
  /// A put_string() field.
  bool string(std::string_view& v) {
    std::uint32_t len = 0;
    return u32(len) && bytes(len, v);
  }
  std::size_t remaining() const { return data_.size() - off_; }

 private:
  template <typename T>
  bool little_endian(T& v) {
    if (remaining() < sizeof(T)) return false;
    v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>(v << 8) |
          static_cast<unsigned char>(data_[off_ + i]);
    }
    off_ += sizeof(T);
    return true;
  }

  std::string_view data_;
  std::size_t off_ = 0;
};

}  // namespace cyd::common
