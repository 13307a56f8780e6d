// Allocation pin for trust decisions. verify_image runs on every driver
// load, Windows Update check and fleet-wide re-verification, so it must not
// touch the heap beyond the verdict it returns: the host's certificate
// store is never copied, the signature blob is parsed in place, and digests
// stream over the image and the certificates without building their bytes.
// Rides in alloc_tests for the counting operator new of tools/alloc_hook.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "alloc_hook.hpp"
#include "pe/image.hpp"
#include "pki/licensing.hpp"
#include "pki/signing.hpp"
#include "sim/simulation.hpp"
#include "winsys/host.hpp"
#include "winsys/host_image.hpp"
#include "winsys/program.hpp"

namespace cyd::pki {
namespace {

/// An image-backed (copy-on-write) host whose PKI stores layer over a
/// template image carrying the Microsoft landscape, and a Windows Update
/// binary signed by Microsoft.
struct CowHostFixture {
  sim::Simulation simulation;
  winsys::ProgramRegistry programs;
  MicrosoftPki ms{sim::make_date(2010, 1, 15), 555};
  std::shared_ptr<const winsys::HostImage> image = [this] {
    winsys::HostImage::Builder builder(winsys::HostArchetype::kOfficePc,
                                       winsys::OsVersion::kWin7);
    ms.install_into(builder.cert_store());
    ms.anchor_root(builder.trust_store());
    return builder.build();
  }();
  winsys::Host host{simulation, programs, "cow-01", image};
  pe::Image update = [this] {
    auto img = pe::Builder{}
                   .program("windows.update")
                   .filename("kb2718704.exe")
                   .section(".text", std::string(1024, '\x90'), true)
                   .build();
    sign_image(img, ms.update_signing_cert(), ms.update_signing_key());
    return img;
  }();
  sim::TimePoint now = sim::make_date(2012, 5, 1);

  /// Heap allocations made by one verify_image call on `img`.
  std::uint64_t allocations_of(const pe::Image& img, SignatureVerdict& out) {
    const std::uint64_t before = alloc_hook::allocations();
    out = verify_image(img, host.cert_store(), host.trust_store(), now);
    return alloc_hook::allocations() - before;
  }
};

/// Heap buffers a verdict owns: its strings beyond the small-string buffer.
std::uint64_t owned_buffers(const SignatureVerdict& v) {
  const std::size_t inline_capacity = std::string().capacity();
  return (v.signer_subject.size() > inline_capacity ? 1 : 0) +
         (v.chain.detail.size() > inline_capacity ? 1 : 0);
}

TEST(VerifyAllocTest, ValidVerdictAllocatesOnlyItsStrings) {
  CowHostFixture f;
  ASSERT_NE(f.host.cert_store().base(), nullptr);
  SignatureVerdict verdict;
  [[maybe_unused]] const std::uint64_t made =
      f.allocations_of(f.update, verdict);
  ASSERT_TRUE(verdict.valid()) << verdict.describe();
  // Both strings are long Microsoft subjects, so the pin is not vacuous.
  ASSERT_EQ(owned_buffers(verdict), 2u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(made, owned_buffers(verdict))
      << "verify_image allocated beyond the verdict's own strings";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(VerifyAllocTest, UnsignedMalformedAndTamperedAllocateNothing) {
  CowHostFixture f;
  pe::Image unsigned_img = f.update;
  unsigned_img.signature.clear();
  pe::Image garbage = f.update;
  garbage.signature = "not a signature at all, but long enough to matter";
  pe::Image truncated = f.update;
  truncated.signature.resize(truncated.signature.size() - 3);
  pe::Image bad_cert = f.update;
  bad_cert.signature[bad_cert.signature.size() - 30] ^= 0x7f;
  pe::Image tampered = f.update;
  tampered.sections[0].data[0] = 'x';

  struct Case {
    const pe::Image* img;
    SignatureStatus expected;
  };
  for (const Case& c : {Case{&unsigned_img, SignatureStatus::kUnsigned},
                        Case{&garbage, SignatureStatus::kMalformed},
                        Case{&truncated, SignatureStatus::kMalformed},
                        Case{&tampered, SignatureStatus::kDigestMismatch}}) {
    SignatureVerdict verdict;
    [[maybe_unused]] const std::uint64_t made =
        f.allocations_of(*c.img, verdict);
    EXPECT_EQ(verdict.status, c.expected) << verdict.describe();
#if CYD_ALLOC_COUNTS_RELIABLE
    EXPECT_EQ(made, 0u) << to_string(c.expected);
#endif
  }
  // Whatever a flipped byte inside the embedded chain turns into, rejecting
  // it costs nothing beyond the verdict's strings either.
  SignatureVerdict verdict;
  [[maybe_unused]] const std::uint64_t made =
      f.allocations_of(bad_cert, verdict);
  EXPECT_FALSE(verdict.valid());
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(made, owned_buffers(verdict));
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

}  // namespace
}  // namespace cyd::pki
