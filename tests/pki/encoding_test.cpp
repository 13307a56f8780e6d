// Byte encodings that code-signing digests cover. The signed region of a PE
// image and a certificate's to-be-signed bytes are pinned as hex for fixed
// fixtures: every digest, and so every signature in every repro, depends on
// these bytes staying the same. Streaming the same encodings into a
// Digester must give the digest of the materialized bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "pe/image.hpp"
#include "pki/certificate.hpp"
#include "sim/rng.hpp"

namespace cyd::pki {
namespace {

pe::Image fixture_image() {
  return pe::Builder{}
      .machine(pe::Machine::kX64)
      .timestamp(1'234'567)
      .program("pin.prog")
      .filename("pin.sys")
      .version("Pin Co/Pin")
      .section(".text", std::string("\x90\x90\xc3", 3), true)
      .section(".data", "abc", false, true)
      .encrypted_resource(7, "cfg", "payload", 0x5a)
      .import("kernel32.dll", {"CreateFileW", "WriteFile"})
      .build();
}

Certificate fixture_cert() {
  auto root = CertificateAuthority::create_root(
      "Pin Root", HashAlgorithm::kStrong64, 10, 20'000, 5);
  Certificate c =
      root.issue("Pin Leaf", kUsageCodeSigning | kUsageServerAuth,
                 HashAlgorithm::kWeakSum, 100, 9'000, KeyPair::generate(6));
  c.collision_padding = std::string("pad\0\xff", 5);
  return c;
}

TEST(EncodingTest, SignedRegionHexIsPinned) {
  EXPECT_EQ(common::to_hex(fixture_image().signed_region()),
            "535045310187d61200000000000800000070696e2e70726f670700000070696e"
            "2e7379730a00000050696e20436f2f50696e02000000050000002e7465787403"
            "0000009090c301050000002e646174610300000061626302010000000700000"
            "003000000636667070000002a3b2336353b3e015a010000000c0000006b6572"
            "6e656c33322e646c6c020000000b00000043726561746546696c65570900000"
            "0577269746546696c65");
}

TEST(EncodingTest, TbsBytesHexIsPinned) {
  EXPECT_EQ(common::to_hex(fixture_cert().tbs_bytes()),
            "54425331cd50c8a9dbc25d8150696e204c6561660050696e20526f6f7400492c"
            "6c941b6212a9d0a4a5e92238ab7209000000006400000000000000282300000"
            "000000070616400ff");
}

TEST(DigesterTest, RandomSplitsMatchWholeBufferDigest) {
  sim::Rng rng(2718704);
  for (int trial = 0; trial < 200; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 2000));
    const common::Bytes data = common::random_bytes(rng, size);
    std::uint64_t sum = 0;  // independent reference for the weak algorithm
    for (unsigned char c : data) sum += c;
    EXPECT_EQ(digest(HashAlgorithm::kStrong64, data), common::fnv1a64(data));
    EXPECT_EQ(digest(HashAlgorithm::kWeakSum, data), sum & 0xffffULL);

    for (HashAlgorithm alg :
         {HashAlgorithm::kStrong64, HashAlgorithm::kWeakSum}) {
      Digester d(alg);
      std::size_t off = 0;
      while (off < data.size()) {
        if (rng.bernoulli(0.2)) {
          d.push_back(data[off++]);
          continue;
        }
        const auto piece = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(data.size() - off)));
        d.append(std::string_view(data).substr(off, piece));
        off += piece;
      }
      EXPECT_EQ(d.finish(), digest(alg, data)) << "trial " << trial;
    }
  }
}

TEST(DigesterTest, StreamedEncodingsMatchMaterializedBytes) {
  const pe::Image img = fixture_image();
  const Certificate cert = fixture_cert();
  for (HashAlgorithm alg :
       {HashAlgorithm::kStrong64, HashAlgorithm::kWeakSum}) {
    Digester region(alg);
    img.write_signed_region(region);
    EXPECT_EQ(region.finish(), digest(alg, img.signed_region()));
    EXPECT_EQ(CertificateView(cert).tbs_digest(alg),
              digest(alg, cert.tbs_bytes()));
  }
}

TEST(EncodingTest, CertificateViewParsesInPlace) {
  const Certificate cert = fixture_cert();
  const common::Bytes wire = cert.serialize();
  const auto view = CertificateView::parse(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->to_certificate().serialize(), wire);
  EXPECT_EQ(view->subject.data(), wire.data() + 16)
      << "the view must point into the wire bytes, not copy them";
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(CertificateView::parse(std::string_view(wire).substr(0, cut)));
  }
}

}  // namespace
}  // namespace cyd::pki
