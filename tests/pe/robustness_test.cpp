// Robustness properties: parsers in the dissection pipeline consume
// attacker-controlled bytes and must never crash, loop, or accept garbage —
// they either parse exactly what the serializer produced or reject cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/similarity.hpp"
#include "analysis/static_analysis.hpp"
#include "analysis/yara.hpp"
#include "cnc/crypto.hpp"
#include "cnc/server.hpp"
#include "pe/image.hpp"
#include "pki/signing.hpp"
#include "sim/rng.hpp"

namespace cyd {
namespace {

/// Deterministic random image for a seed: varying section/resource/import
/// counts and payload sizes.
pe::Image random_image(std::uint64_t seed) {
  sim::Rng rng(seed);
  pe::Builder builder;
  builder.machine(rng.bernoulli(0.5) ? pe::Machine::kX86 : pe::Machine::kX64)
      .timestamp(rng.uniform_int(0, 1'000'000'000))
      .program("prog-" + std::to_string(seed))
      .filename("file" + std::to_string(seed % 7) + ".exe")
      .version("v" + std::to_string(seed));
  const int sections = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < sections; ++i) {
    builder.section(".s" + std::to_string(i),
                    common::random_bytes(rng, static_cast<std::size_t>(
                                                  rng.uniform_int(0, 2048))),
                    rng.bernoulli(0.5), rng.bernoulli(0.3));
  }
  const int resources = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < resources; ++i) {
    const auto payload = common::random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 512)));
    if (rng.bernoulli(0.5)) {
      builder.encrypted_resource(static_cast<std::uint32_t>(100 + i), "r",
                                 payload,
                                 static_cast<std::uint8_t>(rng.uniform_int(
                                     0, 255)));
    } else {
      builder.resource(static_cast<std::uint32_t>(100 + i), "r", payload);
    }
  }
  const int imports = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < imports; ++i) {
    builder.import("dll" + std::to_string(i) + ".dll",
                   {"FnA", "FnB" + std::to_string(i)});
  }
  return builder.build();
}

/// A spread of proper prefixes of `bytes`, not just off-by-ones.
std::vector<common::Bytes> truncations(const common::Bytes& bytes) {
  std::vector<common::Bytes> out;
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 37)) {
    out.push_back(bytes.substr(0, cut));
  }
  return out;
}

/// 32 copies of `bytes`, each with one byte XORed by a nonzero mask.
std::vector<common::Bytes> bit_flips(const common::Bytes& bytes,
                                     std::uint64_t seed) {
  sim::Rng rng(seed ^ 0xf11b);
  std::vector<common::Bytes> out;
  for (int flips = 0; flips < 32; ++flips) {
    auto mutated = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     static_cast<char>(rng.uniform_int(1, 255)));
    out.push_back(std::move(mutated));
  }
  return out;
}

class PeRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeRoundTripSweep, SerializeParseIsIdentity) {
  const auto image = random_image(GetParam());
  const auto bytes = image.serialize();
  const auto parsed = pe::Image::parse(bytes);
  EXPECT_EQ(parsed.serialize(), bytes);
  EXPECT_EQ(parsed.program_id, image.program_id);
  EXPECT_EQ(parsed.sections.size(), image.sections.size());
  EXPECT_EQ(parsed.resources.size(), image.resources.size());
}

TEST_P(PeRoundTripSweep, EveryTruncationRejectsCleanly) {
  const auto bytes = random_image(GetParam()).serialize();
  for (const auto& prefix : truncations(bytes)) {
    EXPECT_THROW(pe::Image::parse(prefix), pe::ParseError)
        << "prefix " << prefix.size() << " of " << bytes.size();
  }
}

TEST_P(PeRoundTripSweep, BitFlipsNeverCrashParserOrDissector) {
  pki::CertStore store;
  pki::TrustStore trust;
  for (const auto& mutated :
       bit_flips(random_image(GetParam()).serialize(), GetParam())) {
    // Either parses (mutation hit a payload byte) or throws ParseError;
    // the static dissector must absorb both outcomes.
    try {
      pe::Image::parse(mutated);
    } catch (const pe::ParseError&) {
    }
    const auto report = analysis::dissect(mutated, store, trust, 0);
    (void)report;  // must simply not crash
  }
}

TEST_P(PeRoundTripSweep, PileCarveOfHostileBytesMatchesSerialExtraction) {
  // The bit-flipped and truncated specimens above, as one pile: the
  // parallel carve of extract_pile must intern exactly what a serial
  // extract_features loop does, specimen by specimen.
  const auto bytes = random_image(GetParam()).serialize();
  std::vector<analysis::LabelledSpecimen> pile;
  for (auto& b : bit_flips(bytes, GetParam())) {
    pile.push_back({"flip", std::move(b)});
  }
  for (auto& b : truncations(bytes)) pile.push_back({"cut", std::move(b)});
  pile.push_back({"intact", bytes});
  analysis::FeatureDict serial_dict;
  analysis::FeatureDict pooled_dict;
  const auto pooled = analysis::extract_pile(pile, pooled_dict);
  ASSERT_EQ(pooled.size(), pile.size());
  for (std::size_t i = 0; i < pile.size(); ++i) {
    const auto serial = analysis::extract_features(pile[i].bytes, serial_dict);
    EXPECT_EQ(pooled[i].strings, serial.strings) << pile[i].label << " " << i;
    EXPECT_EQ(pooled[i].imports, serial.imports) << pile[i].label << " " << i;
    EXPECT_EQ(pooled[i].section_names, serial.section_names)
        << pile[i].label << " " << i;
  }
  EXPECT_EQ(pooled_dict.size(), serial_dict.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeRoundTripSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(ParserFuzzTest, RandomBytesNeverCrashAnyParser) {
  sim::Rng rng(0xfa22);
  for (int round = 0; round < 200; ++round) {
    const auto junk = common::random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 600)));
    EXPECT_THROW(pe::Image::parse(junk), pe::ParseError);
    EXPECT_FALSE(pki::CodeSignature::parse(junk).has_value());
    EXPECT_FALSE(pki::Certificate::parse(junk).has_value());
    // Payload/blob parsers return empty/nullopt on garbage.
    (void)cnc::parse_payloads(junk);
    (void)cnc::EncryptedBlob::parse(junk);
  }
}

TEST(ParserFuzzTest, MagicPrefixedGarbageStillRejected) {
  sim::Rng rng(0xfa23);
  for (const char* magic : {"SPE1", "SIG1", "CRT1", "PLS1", "ENC1", "UPL1"}) {
    for (int round = 0; round < 50; ++round) {
      const auto junk =
          std::string(magic) +
          common::random_bytes(
              rng, static_cast<std::size_t>(rng.uniform_int(0, 200)));
      try {
        pe::Image::parse(junk);
      } catch (const pe::ParseError&) {
      }
      (void)pki::CodeSignature::parse(junk);
      (void)pki::Certificate::parse(junk);
      (void)cnc::parse_payloads(junk);
      (void)cnc::EncryptedBlob::parse(junk);
    }
  }
  SUCCEED();  // surviving without UB/crash is the property
}

class SignedImageSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignedImageSweep, SignVerifyHoldsAndTamperBreaks) {
  auto ca = pki::CertificateAuthority::create_root(
      "Root", pki::HashAlgorithm::kStrong64, 0, sim::days(30000), GetParam());
  auto key = pki::KeyPair::generate(GetParam() ^ 0x5);
  auto cert = ca.issue("Vendor", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(30000),
                       key);
  pki::CertStore store;
  pki::TrustStore trust;
  store.add(ca.certificate());
  trust.trust_root(ca.certificate().serial);

  auto image = random_image(GetParam() ^ 0xabc);
  pki::sign_image(image, cert, key);
  EXPECT_TRUE(pki::verify_image(image, store, trust, 1).valid());

  auto tampered = image;
  tampered.program_id += "!";
  EXPECT_EQ(pki::verify_image(tampered, store, trust, 1).status,
            pki::SignatureStatus::kDigestMismatch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignedImageSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace cyd
