#include "cnc/crypto.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace cyd::cnc {
namespace {

TEST(CncCryptoTest, EncryptDecryptRoundTrip) {
  const auto key = CncKeyPair::generate(42);
  const auto blob = encrypt_for(public_half(key), "stolen cad drawings");
  const auto plain = decrypt(key, blob);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, "stolen cad drawings");
}

TEST(CncCryptoTest, CiphertextDiffersFromPlaintext) {
  const auto key = CncKeyPair::generate(42);
  const auto blob = encrypt_for(public_half(key), "secret document body");
  EXPECT_NE(blob.ciphertext, "secret document body");
}

TEST(CncCryptoTest, WrongKeyFailsToDecrypt) {
  const auto right = CncKeyPair::generate(1);
  const auto wrong = CncKeyPair::generate(2);
  const auto blob = encrypt_for(public_half(right), "for coordinator only");
  EXPECT_FALSE(decrypt(wrong, blob).has_value());
}

TEST(CncCryptoTest, KeyGenerationDeterministic) {
  EXPECT_EQ(CncKeyPair::generate(7).public_id,
            CncKeyPair::generate(7).public_id);
  EXPECT_NE(CncKeyPair::generate(7).public_id,
            CncKeyPair::generate(8).public_id);
}

TEST(CncCryptoTest, BlobSerializationRoundTrip) {
  const auto key = CncKeyPair::generate(3);
  const auto blob = encrypt_for(public_half(key), "payload");
  const auto parsed = EncryptedBlob::parse(blob.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key_id, blob.key_id);
  EXPECT_EQ(parsed->ciphertext, blob.ciphertext);
  EXPECT_EQ(decrypt(key, *parsed), "payload");
}

TEST(CncCryptoTest, BlobParseRejectsGarbage) {
  EXPECT_FALSE(EncryptedBlob::parse("").has_value());
  EXPECT_FALSE(EncryptedBlob::parse("XXXX12345678").has_value());
  EXPECT_FALSE(EncryptedBlob::parse("ENC1shrt").has_value());
}

TEST(CncCryptoTest, EmptyPlaintextAllowed) {
  const auto key = CncKeyPair::generate(4);
  const auto blob = encrypt_for(public_half(key), "");
  EXPECT_EQ(decrypt(key, blob), "");
}

TEST(CncCryptoTest, LargePayloadRoundTrip) {
  const auto key = CncKeyPair::generate(5);
  common::Bytes big(1 << 20, 'x');  // 1 MiB of redundancy
  const auto blob = encrypt_for(public_half(key), big);
  // A keyed stream must not leave megabytes of constant bytes visible.
  EXPECT_GT(common::shannon_entropy(blob.ciphertext), 7.5);
  EXPECT_EQ(decrypt(key, blob), big);
}

/// Plaintext for the ciphertext pins: every byte value, no runs.
common::Bytes pin_plaintext(std::size_t n) {
  common::Bytes s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return s;
}

// FNV-1a of encrypt_for's ciphertext for every length 0..70 (the keystream
// crosses several 8-byte Rng words and every partial tail) and for 64 KiB.
// The values were recorded from the keystream-then-XOR implementation; any
// rewrite of the cipher must reproduce them, or every stored upload and the
// C&C golden checksums move.
TEST(CncCryptoTest, CiphertextPinnedPerLength) {
  static constexpr std::uint64_t kPins[71] = {
    0xcbf29ce484222325ull, 0xaf64364c8602857aull, 0x09cd9507b64888a3ull,
    0xf0dcf61abd40540eull, 0x87ca8e6f944f5d6dull, 0x0c8dab9902dc1dacull,
    0x30d7ddffdc05c30bull, 0x049172c2ddcab9dbull, 0x8ddfeb1edf79e89eull,
    0x8d654375bc267adaull, 0x698bd70eb561a9c2ull, 0xba47e5fe34f2f6e8ull,
    0x7b226df3f8d9102dull, 0x1491768fd8d74193ull, 0xca6dba6d75c3e68cull,
    0xbc5a68ff1be0e393ull, 0xee83777c5f21d0caull, 0x6b349a55a6756816ull,
    0x9fca4989d97fc8feull, 0x0483333c9421415aull, 0xcc3207efb4831868ull,
    0x7c1ba84fbac212c4ull, 0xa511687a57c5486bull, 0x41dd21e3243a5daeull,
    0x251e6df68f2d77bbull, 0x402ca6f54a429157ull, 0x4e7196cd2f1de66cull,
    0x68e9e2a70fcee8acull, 0x145467dfdc94aef2ull, 0x201b3663d0a4dd8full,
    0x331abf9b882415bcull, 0xfa88e94855503dbcull, 0x06e18fe8f757ee5eull,
    0x093662dc4a6adc6eull, 0x12467a527394aa1aull, 0xa26c5e1a659dbe4cull,
    0x9be27fdaab0addfbull, 0xecbc8b90a3760671ull, 0xba6763c5c18c99a7ull,
    0x4a47ed07e1e8a4ecull, 0x20dbdf64de4ed9e1ull, 0x2475fd65bffb669full,
    0xefe436e5382f66f9ull, 0xd02ffb7e788b83dcull, 0x4d0c2de6d51104a2ull,
    0xfcb5ff3c0be9cc00ull, 0x530d59083e46be12ull, 0x666d1d01d236423cull,
    0x41aa6b1832325e13ull, 0xc6f27a1d4b969380ull, 0xa49890c770dbe5e3ull,
    0x8b23dce4c5a7916eull, 0x158231bbdbbcd3bbull, 0x490deb3661db3b6bull,
    0xfde1e26847859b0full, 0xec6f1c3188070c9full, 0xc7d94c2a23fa0decull,
    0x904a579b21e5a804ull, 0x13fafd9a993cb013ull, 0x302cedb2621f1000ull,
    0xfb67eb1cbac8387full, 0xf9ccd3d16237b356ull, 0xaebf63c9e4a5f335ull,
    0x952a7a0f85fd769eull, 0x74a3ae60adaff8f2ull, 0xe2199d472202ee3dull,
    0x34751edecafbe4edull, 0x1ee7ef92ea053d01ull, 0x895942a3a6e6f1c4ull,
    0x499de6149a6ca3deull, 0x83f1de02669a84ebull,
  };
  const auto key = CncKeyPair::generate(0x5eed);
  const CncPublicKey pub = public_half(key);
  for (std::size_t n = 0; n <= 70; ++n) {
    const auto blob = encrypt_for(pub, pin_plaintext(n));
    EXPECT_EQ(common::fnv1a64(blob.ciphertext), kPins[n]) << "length " << n;
    EXPECT_EQ(decrypt(key, blob), pin_plaintext(n)) << "length " << n;
  }
  const auto big = encrypt_for(pub, pin_plaintext(64 * 1024));
  EXPECT_EQ(common::fnv1a64(big.ciphertext), 0x8b5c2d69dd291324ull);
  EXPECT_EQ(decrypt(key, big), pin_plaintext(64 * 1024));
}

}  // namespace
}  // namespace cyd::cnc
