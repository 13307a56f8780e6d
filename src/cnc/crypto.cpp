#include "cnc/crypto.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace cyd::cnc {
namespace {

/// XORs `data` with the deterministic keystream for a blob, writing into
/// the one output buffer. The stream is common::random_bytes over the same
/// Rng (each next_u64() supplies 8 bytes, low byte first), so the result is
/// bit-identical to xor_cipher(data, random_bytes(rng, data.size())) without
/// building the keystream. Seeded from the *private* scalar so that, at the
/// model level, producing the stream requires key possession; encrypt_for
/// gets the same stream through the wrap value provisioned into the public
/// half.
common::Bytes xor_keystream(std::uint64_t seed, std::string_view data) {
  sim::Rng rng(seed ^ 0xc0dec0dec0dec0deULL);
  common::Bytes out(data);
  for (std::size_t i = 0; i < out.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    const std::size_t end = std::min(out.size(), i + 8);
    for (std::size_t j = i; j < end; ++j, v >>= 8) {
      out[j] = static_cast<char>(static_cast<unsigned char>(out[j]) ^
                                 static_cast<unsigned char>(v & 0xff));
    }
  }
  return out;
}

/// FNV-1a of `label` followed by the scalar's little-endian bytes: the
/// digest of `label + put_u64(scalar)` without building that string.
std::uint64_t derive(std::string_view label, std::uint64_t scalar) {
  char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<char>((scalar >> (8 * i)) & 0xff);
  }
  return common::fnv1a64(std::string_view(le, sizeof le),
                         common::fnv1a64(label));
}

std::uint64_t derive_public(std::uint64_t private_scalar) {
  return derive("cnc-pub", private_scalar);
}

std::uint64_t derive_wrap(std::uint64_t private_scalar) {
  return derive("cnc-wrap", private_scalar);
}

}  // namespace

CncKeyPair CncKeyPair::generate(std::uint64_t seed) {
  CncKeyPair key;
  key.private_scalar = derive("cnc-priv", seed);
  key.public_id = derive_public(key.private_scalar);
  return key;
}

CncPublicKey public_half(const CncKeyPair& key) {
  return CncPublicKey{key.public_id, derive_wrap(key.private_scalar)};
}

common::Bytes EncryptedBlob::serialize() const {
  common::Bytes out("ENC1");
  common::put_u64(out, key_id);
  out.append(ciphertext);
  return out;
}

std::optional<EncryptedBlob> EncryptedBlob::parse(std::string_view bytes) {
  const auto view = parse_blob_view(bytes);
  if (!view) return std::nullopt;
  return view->materialize();
}

std::optional<EncryptedBlobView> parse_blob_view(std::string_view bytes) {
  if (bytes.size() < 12 || bytes.substr(0, 4) != "ENC1") return std::nullopt;
  EncryptedBlobView view;
  view.key_id = common::get_u64(bytes, 4);
  view.ciphertext = bytes.substr(12);
  return view;
}

EncryptedBlob encrypt_for(const CncPublicKey& recipient,
                          std::string_view plaintext) {
  EncryptedBlob blob;
  blob.key_id = recipient.public_id;
  blob.ciphertext = xor_keystream(recipient.wrap, plaintext);
  return blob;
}

std::optional<common::Bytes> decrypt(const CncKeyPair& key,
                                     const EncryptedBlob& blob) {
  if (derive_public(key.private_scalar) != blob.key_id) return std::nullopt;
  return xor_keystream(derive_wrap(key.private_scalar), blob.ciphertext);
}

}  // namespace cyd::cnc
