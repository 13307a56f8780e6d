#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "pe/image.hpp"
#include "sim/rng.hpp"

namespace cyd::common {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data("\x00\x01\xfe\xff\x42", 5);
  EXPECT_EQ(to_hex(data), "0001feff42");
  EXPECT_EQ(from_hex("0001feff42"), data);
}

TEST(BytesTest, HexUppercaseAccepted) {
  EXPECT_EQ(from_hex("DEADBEEF"), from_hex("deadbeef"));
}

TEST(BytesTest, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, FromHexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(BytesTest, XorSingleByteIsInvolution) {
  const Bytes plain = "TrkSvr dropper payload";
  const Bytes cipher = xor_cipher(plain, 0xAB);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_cipher(cipher, 0xAB), plain);
}

TEST(BytesTest, XorZeroKeyIsIdentity) {
  const Bytes plain = "unchanged";
  EXPECT_EQ(xor_cipher(plain, 0x00), plain);
}

TEST(BytesTest, XorMultiByteRoundTrip) {
  const Bytes plain = "flame module payload bytes";
  const Bytes cipher = xor_cipher(plain, "k3y!");
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_cipher(cipher, "k3y!"), plain);
}

TEST(BytesTest, XorEmptyKeyIsIdentity) {
  const Bytes plain = "abc";
  EXPECT_EQ(xor_cipher(plain, std::string_view{}), plain);
}

TEST(BytesTest, Fnv1a64KnownVector) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(BytesTest, Fnv1a64Sensitivity) {
  EXPECT_NE(fnv1a64("stuxnet"), fnv1a64("stuxnet "));
  EXPECT_NE(fnv1a64("flame"), fnv1a64("Flame"));
}

TEST(BytesTest, EntropyOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy(""), 0.0);
}

TEST(BytesTest, EntropyOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy(Bytes(1024, 'A')), 0.0);
}

TEST(BytesTest, EntropyOfAllBytesIsEight) {
  Bytes all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
  EXPECT_NEAR(shannon_entropy(all), 8.0, 1e-9);
}

TEST(BytesTest, RandomBytesScoreHighEntropy) {
  sim::Rng rng(99);
  const Bytes data = random_bytes(rng, 64 * 1024);
  EXPECT_GT(shannon_entropy(data), 7.9);
}

TEST(BytesTest, EnglishTextScoresMidEntropy) {
  const Bytes text =
      "The quick brown fox jumps over the lazy dog. The Middle East is "
      "currently the target of an unprecedented campaign of cyber attacks.";
  const double e = shannon_entropy(text);
  EXPECT_GT(e, 3.0);
  EXPECT_LT(e, 5.5);
}

/// The one-log2-per-byte-value loop shannon_entropy used before it memoized
/// terms per count; kept as the oracle its doubles must match bit for bit.
double entropy_oracle(std::string_view data) {
  if (data.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (unsigned char c : data) ++counts[c];
  double entropy = 0.0;
  const double n = static_cast<double>(data.size());
  for (std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

void expect_entropy_bits_equal(std::string_view data, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(shannon_entropy(data)),
            std::bit_cast<std::uint64_t>(entropy_oracle(data)))
      << what << " (" << data.size() << " bytes)";
}

TEST(BytesTest, EntropyBitIdenticalToPerByteValueLoop) {
  sim::Rng rng(2013);
  for (const std::size_t n : {1u, 7u, 256u, 2900u, 65536u}) {
    expect_entropy_bits_equal(random_bytes(rng, n), "random");
  }
  const std::string text =
      "The Middle East is currently the target of an unprecedented campaign "
      "of cyber attacks: Stuxnet, Duqu, Flame, Gauss and Shamoon.";
  expect_entropy_bits_equal(text, "text");
  std::string long_text;
  for (int i = 0; i < 40; ++i) long_text += text;
  expect_entropy_bits_equal(long_text, "long text");
  expect_entropy_bits_equal(Bytes(1, 'A'), "constant");
  expect_entropy_bits_equal(Bytes(1024, 'A'), "constant");
  Bytes all;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
    expect_entropy_bits_equal(all, "all-256");
  }
  // Counts 1, 257, 513 and 769, twice each, share a memo slot.
  Bytes colliding;
  for (int b = 0; b < 8; ++b) {
    colliding.append(static_cast<std::size_t>(1 + 256 * (b % 4)),
                     static_cast<char>(b));
  }
  expect_entropy_bits_equal(colliding, "colliding counts");

  const pe::Image image =
      pe::Builder{}
          .program("entropy.probe")
          .section(".text", Bytes(3000, '\x90') + random_bytes(rng, 700), true)
          .section(".packed", random_bytes(rng, 4096), true)
          .section(".data", long_text, false, true)
          .resource(101, "CONFIG", text)
          .encrypted_resource(102, "PKCS12", long_text, 0x5a)
          .import("kernel32.dll", {"CreateFileW", "WriteFile"})
          .build();
  for (const pe::Section& section : image.sections) {
    expect_entropy_bits_equal(section.data, section.name.c_str());
  }
  for (const pe::Resource& resource : image.resources) {
    expect_entropy_bits_equal(resource.data, resource.name.c_str());
  }
  expect_entropy_bits_equal(image.serialize(), "serialized image");
}

TEST(BytesTest, RandomBytesExactLength) {
  sim::Rng rng(1);
  EXPECT_EQ(random_bytes(rng, 0).size(), 0u);
  EXPECT_EQ(random_bytes(rng, 7).size(), 7u);
  EXPECT_EQ(random_bytes(rng, 8).size(), 8u);
  EXPECT_EQ(random_bytes(rng, 9).size(), 9u);
}

TEST(BytesTest, ContainsFindsSubstring) {
  EXPECT_TRUE(contains("mssecmgr.ocx", "secmgr"));
  EXPECT_FALSE(contains("mssecmgr.ocx", "stuxnet"));
}

TEST(BytesTest, IequalsIsCaseInsensitive) {
  EXPECT_TRUE(iequals("S7OTBXDX.DLL", "s7otbxdx.dll"));
  EXPECT_FALSE(iequals("s7otbxdx.dll", "s7otbxsx.dll"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(BytesTest, ToLowerAscii) {
  EXPECT_EQ(to_lower("TrkSvr.EXE"), "trksvr.exe");
}

TEST(BytesTest, U32RoundTrip) {
  Bytes buf;
  put_u32(buf, 0xdeadbeef);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(get_u32(buf, 0), 0xdeadbeefu);
}

TEST(BytesTest, U64RoundTrip) {
  Bytes buf;
  put_u64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(get_u64(buf, 0), 0x0123456789abcdefULL);
}

TEST(BytesTest, GetU32ThrowsOnTruncation) {
  Bytes buf = "abc";
  EXPECT_THROW(get_u32(buf, 0), std::out_of_range);
  EXPECT_THROW(get_u32(buf, 1), std::out_of_range);
}

TEST(BytesTest, GetU64ThrowsOnTruncation) {
  Bytes buf = "abcdefg";
  EXPECT_THROW(get_u64(buf, 0), std::out_of_range);
}

TEST(BytesTest, WeakDigestIsNarrow) {
  // The weak digest must fit in 32 bits by contract.
  EXPECT_LE(weak_digest32("anything at all"), 0xffffffffu);
}

class XorKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(XorKeySweep, InvolutionHoldsForAllKeys) {
  const Bytes plain("Shamoon resource payload \x00\x01\xff test", 33);
  const auto key = static_cast<std::uint8_t>(GetParam());
  EXPECT_EQ(xor_cipher(xor_cipher(plain, key), key), plain);
}

INSTANTIATE_TEST_SUITE_P(AllByteKeys, XorKeySweep,
                         ::testing::Values(0, 1, 2, 31, 64, 127, 128, 171, 200,
                                           254, 255));

}  // namespace
}  // namespace cyd::common
