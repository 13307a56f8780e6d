// Property suite over trust verdicts.
//
// A seeded corpus of certificate authorities, leaves, signed images and
// copy-on-write layered stores is pushed through verify_image, and every
// verdict's (status, chain.status, chain_length, chain.detail,
// signer_subject) is folded into one FNV checksum. The checksum is pinned,
// so any change to issuer resolution order, rejection rules or verdict text
// shows up here. The corpus covers corrupted and truncated signature blobs,
// presented certificates that collide with store certificates by serial or
// subject, duplicate serials inside a presented chain, expired, revoked and
// weak-hash chains under both weak-hash policies, and tampered images.
//
// The explicit tests below the corpus pin each shadowing rule on its own:
// issuers resolve against the presented chain first (the last duplicate
// wins), then the host store's delta, then its shared base. Resolution is
// by serial only, the way a Windows verifier resolves a signer by subject
// in one store before it ever walks to a trust anchor.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "pe/image.hpp"
#include "pki/certificate.hpp"
#include "pki/signing.hpp"
#include "pki/trust.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace cyd::pki {
namespace {

using sim::kDay;

const sim::TimePoint kNow = sim::make_date(2011, 3, 1);

/// Appends one verdict record to `log`; the checksum is fnv1a64 of the log.
void fold(common::Bytes& log, const SignatureVerdict& v) {
  log.push_back(static_cast<char>(v.status));
  log.push_back(static_cast<char>(v.chain.status));
  common::put_u32(log, static_cast<std::uint32_t>(v.chain.chain_length));
  log.append(v.chain.detail);
  log.push_back('\0');
  log.append(v.signer_subject);
  log.push_back('\0');
}

/// A copy of `cert` under a different key: same serial and subject, so it
/// collides with the original wherever issuers are resolved.
Certificate rekeyed(Certificate cert, std::uint64_t key_id) {
  cert.public_key_id = key_id;
  return cert;
}

/// A certificate that names itself as its (non-root) issuer and carries a
/// valid signature under its own key: resolving its issuer never ends.
Certificate self_loop(const KeyPair& key, std::uint64_t serial,
                      HashAlgorithm alg) {
  Certificate c;
  c.serial = serial;
  c.subject = "Loop Signer";
  c.issuer_subject = c.subject;
  c.issuer_serial = serial;
  c.public_key_id = key.key_id;
  c.usage = kUsageCodeSigning | kUsageCertSign;
  c.hash_alg = alg;
  c.not_before = 0;
  c.not_after = kNow + 365 * kDay;
  c.issuer_sig = IssuerSignature{digest(alg, c.tbs_bytes()), alg, key.key_id};
  return c;
}

pe::Image random_image(sim::Rng& rng, std::uint64_t seed) {
  const auto timestamp =
      static_cast<std::int64_t>(rng.next_u64() % 1'000'000);
  const auto size = static_cast<std::size_t>(rng.uniform_int(0, 300));
  return pe::Builder{}
      .program("prop.driver")
      .filename("drv" + std::to_string(seed) + ".sys")
      .timestamp(timestamp)
      .section(".text", common::random_bytes(rng, size), true)
      .build();
}

struct CorpusResult {
  std::uint64_t checksum = 0;
  std::size_t verdicts = 0;
  std::array<std::size_t, 8> by_status{};
  std::array<std::size_t, 9> by_chain{};
};

/// One seed's world: a root and sub-CA, an untrusted rogue root, leaves and
/// a handful of imposters, layered base/delta stores with random content,
/// and images signed with assorted presented chains, then mutated.
void run_seed(std::uint64_t seed, common::Bytes& log, CorpusResult& out) {
  sim::Rng rng(seed);
  auto alg = [&] {
    return rng.bernoulli(0.3) ? HashAlgorithm::kWeakSum
                              : HashAlgorithm::kStrong64;
  };
  auto not_after = [&] {
    return rng.bernoulli(0.15) ? kNow - kDay : kNow + 365 * kDay;
  };
  const std::string tag = std::to_string(seed);
  // Every draw is a named statement: argument evaluation order is
  // unspecified, and the pinned checksum must not depend on the compiler.
  const HashAlgorithm root_alg = alg();
  const std::uint64_t root_seed = rng.next_u64();
  auto root = CertificateAuthority::create_root(
      "Prop Root " + tag, root_alg, 0, kNow + 3650 * kDay, root_seed);
  const HashAlgorithm sub_alg = alg();
  const sim::TimePoint sub_end = not_after();
  const std::uint64_t sub_seed = rng.next_u64();
  auto sub = root.issue_sub_ca("Prop Intermediate CA " + tag, sub_alg, 0,
                               sub_end, sub_seed);
  const HashAlgorithm rogue_alg = alg();
  const std::uint64_t rogue_seed = rng.next_u64();
  auto rogue = CertificateAuthority::create_root(
      "Prop Root " + tag, rogue_alg, 0, kNow + 3650 * kDay, rogue_seed);

  const KeyPair leaf_key = KeyPair::generate(rng.next_u64());
  const std::uint32_t leaf_usage =
      rng.bernoulli(0.85) ? kUsageCodeSigning : kUsageServerAuth;
  const HashAlgorithm leaf_alg = alg();
  const sim::TimePoint leaf_start = rng.bernoulli(0.1) ? kNow + kDay : 0;
  const sim::TimePoint leaf_end = not_after();
  const Certificate leaf =
      sub.issue("Prop Vendor Signing Certificate " + tag, leaf_usage, leaf_alg,
                leaf_start, leaf_end, leaf_key);
  const KeyPair direct_key = KeyPair::generate(rng.next_u64());
  const HashAlgorithm direct_alg = alg();
  const sim::TimePoint direct_end = not_after();
  const Certificate direct =
      root.issue("Prop Direct Signer " + tag, kUsageCodeSigning, direct_alg, 0,
                 direct_end, direct_key);
  const KeyPair rogue_key = KeyPair::generate(rng.next_u64());
  const Certificate rogue_leaf =
      rogue.issue("Prop Vendor Signing Certificate " + tag, kUsageCodeSigning,
                  alg(), 0, kNow + 365 * kDay, rogue_key);
  const KeyPair loop_key = KeyPair::generate(rng.next_u64());
  const std::uint64_t loop_serial = rng.next_u64() | 1;
  const Certificate loop = self_loop(loop_key, loop_serial, alg());

  // Imposters: store and chain collisions on serial (different key, or
  // cert-sign usage stripped) and on subject (different serial).
  const Certificate sub_rekeyed =
      rekeyed(sub.certificate(), rng.next_u64());
  Certificate sub_no_certsign = sub.certificate();
  sub_no_certsign.usage = kUsageCodeSigning;
  const Certificate root_rekeyed =
      rekeyed(root.certificate(), rng.next_u64());
  const Certificate leaf_rekeyed = rekeyed(leaf, rng.next_u64());

  // Shared base store/trust and a per-host delta over them.
  auto base_store = std::make_shared<CertStore>();
  if (rng.bernoulli(0.85)) base_store->add(root.certificate());
  if (rng.bernoulli(0.4)) base_store->add(sub.certificate());
  if (rng.bernoulli(0.15)) base_store->add(sub_rekeyed);
  if (rng.bernoulli(0.1)) base_store->add(root_rekeyed);
  auto base_trust = std::make_shared<TrustStore>();
  if (rng.bernoulli(0.9)) base_trust->trust_root(root.certificate().serial);
  if (rng.bernoulli(0.1)) base_trust->trust_root(rogue.certificate().serial);
  if (rng.bernoulli(0.3)) {
    base_trust->set_reject_weak_hash(rng.bernoulli(0.5));
  }
  if (rng.bernoulli(0.08)) {
    base_trust->mark_untrusted(sub.certificate().serial);
  }

  CertStore host_store;
  host_store.set_base(base_store);
  if (rng.bernoulli(0.3)) host_store.add(sub.certificate());
  if (rng.bernoulli(0.1)) host_store.add(sub_rekeyed);
  if (rng.bernoulli(0.1)) host_store.add(sub_no_certsign);
  if (rng.bernoulli(0.1)) host_store.add(leaf_rekeyed);
  if (rng.bernoulli(0.1)) host_store.add(root.certificate());
  TrustStore host_trust;
  host_trust.set_base(base_trust);
  if (rng.bernoulli(0.3)) host_trust.set_reject_weak_hash(rng.bernoulli(0.5));
  if (rng.bernoulli(0.08)) host_trust.mark_untrusted(leaf.serial);
  if (rng.bernoulli(0.05)) {
    host_trust.mark_untrusted(root.certificate().serial);
  }

  struct Signer {
    const Certificate* cert;
    const KeyPair* key;
  };
  const std::array<Signer, 4> signers{{{&leaf, &leaf_key},
                                       {&direct, &direct_key},
                                       {&rogue_leaf, &rogue_key},
                                       {&loop, &loop_key}}};
  const std::vector<std::vector<Certificate>> chains{
      {},
      {sub.certificate()},
      {sub_rekeyed},
      {sub.certificate(), sub_rekeyed},
      {sub_rekeyed, sub.certificate()},
      {sub_no_certsign, sub.certificate()},
      {sub.certificate(), sub_no_certsign},
      {sub.certificate(), root_rekeyed},
      {sub.certificate(), leaf_rekeyed},
      {sub.certificate(), rogue.certificate()},
      {rogue.certificate()},
  };

  const std::array<sim::TimePoint, 3> times{kNow, kNow + 400 * kDay,
                                            kNow - 3 * kDay};
  auto verify = [&](const pe::Image& img, const CertStore& store,
                    const TrustStore& trust, sim::TimePoint at) {
    const SignatureVerdict v = verify_image(img, store, trust, at);
    fold(log, v);
    ++out.verdicts;
    ++out.by_status[static_cast<std::size_t>(v.status)];
    ++out.by_chain[static_cast<std::size_t>(v.chain.status)];
  };

  for (int round = 0; round < 6; ++round) {
    pe::Image img = random_image(rng, seed);
    const Signer& s =
        signers[rng.bernoulli(0.1) ? 3
                                   : static_cast<std::size_t>(
                                         rng.uniform_int(0, 2))];
    const auto& chain =
        chains[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(chains.size()) - 1))];
    sign_image(img, *s.cert, *s.key, chain);
    const sim::TimePoint at = times[static_cast<std::size_t>(
        rng.bernoulli(0.8) ? 0 : rng.uniform_int(1, 2))];

    verify(img, host_store, host_trust, at);
    // Same image against the bare base stores and a store-less host.
    verify(img, *base_store, *base_trust, at);
    verify(img, CertStore{}, host_trust, at);

    // Bit flips anywhere in the signature blob.
    for (int k = 0; k < 4; ++k) {
      pe::Image flipped = img;
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flipped.signature.size()) - 1));
      flipped.signature[pos] = static_cast<char>(
          flipped.signature[pos] ^ (1 << rng.uniform_int(0, 7)));
      verify(flipped, host_store, host_trust, at);
    }
    // Truncation and a trailing byte.
    {
      pe::Image cut = img;
      cut.signature.resize(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cut.signature.size()) - 1)));
      verify(cut, host_store, host_trust, at);
      pe::Image longer = img;
      longer.signature.push_back('\0');
      verify(longer, host_store, host_trust, at);
    }
    // Tampered after signing.
    {
      pe::Image tampered = img;
      tampered.sections[0].data.push_back('x');
      verify(tampered, host_store, host_trust, at);
    }
    // Unsigned.
    {
      pe::Image bare = img;
      bare.signature.clear();
      verify(bare, host_store, host_trust, at);
    }
  }
}

CorpusResult run_corpus() {
  CorpusResult out;
  common::Bytes log;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) run_seed(seed, log, out);
  out.checksum = common::fnv1a64(log);
  return out;
}

TEST(TrustPropertyTest, CorpusVerdictChecksumIsPinned) {
  const CorpusResult r = run_corpus();
  EXPECT_EQ(r.verdicts, 300u * 6u * 11u);
  EXPECT_EQ(r.checksum, 0x6961879f990b17b9ULL) << std::hex << r.checksum;
}

TEST(TrustPropertyTest, CorpusReachesEveryVerdict) {
  const CorpusResult r = run_corpus();
  for (std::size_t s = 0; s < r.by_status.size(); ++s) {
    EXPECT_GT(r.by_status[s], 0u)
        << to_string(static_cast<SignatureStatus>(s));
  }
  for (std::size_t c = 0; c < r.by_chain.size(); ++c) {
    EXPECT_GT(r.by_chain[c], 0u) << to_string(static_cast<ChainStatus>(c));
  }
}

// --- Shadowing rules, one at a time ---------------------------------------

struct ShadowFixture {
  CertificateAuthority root = CertificateAuthority::create_root(
      "Shadow Root CA", HashAlgorithm::kStrong64, 0, kNow + 3650 * kDay, 11);
  CertificateAuthority sub = root.issue_sub_ca(
      "Shadow Intermediate CA", HashAlgorithm::kStrong64, 0,
      kNow + 365 * kDay, 12);
  KeyPair leaf_key = KeyPair::generate(13);
  Certificate leaf =
      sub.issue("Shadow Vendor Signing Certificate", kUsageCodeSigning,
                HashAlgorithm::kStrong64, 0, kNow + 365 * kDay, leaf_key);
  Certificate sub_rekeyed = rekeyed(sub.certificate(), 0xbad);
  std::shared_ptr<CertStore> base = std::make_shared<CertStore>();
  CertStore store;
  TrustStore trust;

  ShadowFixture() {
    base->add(root.certificate());
    store.set_base(base);
    trust.trust_root(root.certificate().serial);
  }

  SignatureVerdict signed_with(const std::vector<Certificate>& chain) const {
    pe::Image img = pe::Builder{}
                        .program("shadow.driver")
                        .section(".text", "body", true)
                        .build();
    sign_image(img, leaf, leaf_key, chain);
    return verify_image(img, store, trust, kNow);
  }
};

TEST(TrustShadowingTest, PresentedChainShadowsStoreDelta) {
  ShadowFixture f;
  f.store.add(f.sub.certificate());
  EXPECT_TRUE(f.signed_with({}).valid());
  const auto v = f.signed_with({f.sub_rekeyed});
  EXPECT_EQ(v.status, SignatureStatus::kChainInvalid);
  EXPECT_EQ(v.chain.status, ChainStatus::kBadSignature);
}

TEST(TrustShadowingTest, PresentedChainShadowsStoreBase) {
  ShadowFixture f;
  auto base = std::make_shared<CertStore>(*f.base);
  base->add(f.sub.certificate());
  f.store.set_base(base);
  EXPECT_TRUE(f.signed_with({}).valid());
  EXPECT_EQ(f.signed_with({f.sub_rekeyed}).chain.status,
            ChainStatus::kBadSignature);
}

TEST(TrustShadowingTest, LastDuplicateInPresentedChainWins) {
  ShadowFixture f;
  EXPECT_TRUE(f.signed_with({f.sub_rekeyed, f.sub.certificate()}).valid());
  EXPECT_EQ(f.signed_with({f.sub.certificate(), f.sub_rekeyed}).chain.status,
            ChainStatus::kBadSignature);
}

TEST(TrustShadowingTest, LaterPresentedCertShadowsTheSigner) {
  // sign_image puts the signer first; a later duplicate of its serial
  // replaces it, so the signature key no longer matches.
  ShadowFixture f;
  const auto v = f.signed_with(
      {f.sub.certificate(), rekeyed(f.leaf, 0xfeed)});
  EXPECT_EQ(v.status, SignatureStatus::kKeyMismatch);
  EXPECT_EQ(v.signer_subject, "Shadow Vendor Signing Certificate");
}

TEST(TrustShadowingTest, PresentedSignerShadowsStoreCopy) {
  ShadowFixture f;
  f.store.add(rekeyed(f.leaf, 0xfeed));
  f.store.add(f.sub.certificate());
  EXPECT_TRUE(f.signed_with({}).valid());
}

TEST(TrustShadowingTest, DeltaShadowsBase) {
  ShadowFixture f;
  auto base = std::make_shared<CertStore>(*f.base);
  base->add(f.sub_rekeyed);
  f.store.set_base(base);
  EXPECT_EQ(f.signed_with({}).chain.status, ChainStatus::kBadSignature);
  f.store.add(f.sub.certificate());
  EXPECT_TRUE(f.signed_with({}).valid());

  auto good_base = std::make_shared<CertStore>(*f.base);
  good_base->add(f.sub.certificate());
  CertStore bad_delta;
  bad_delta.set_base(good_base);
  bad_delta.add(f.sub_rekeyed);
  f.store = bad_delta;
  EXPECT_EQ(f.signed_with({}).chain.status, ChainStatus::kBadSignature);
}

TEST(TrustShadowingTest, SubjectCollisionDoesNotResolve) {
  // Same subject as the intermediate, different serial: resolution is by
  // serial, so the chain is still incomplete.
  ShadowFixture f;
  auto other = CertificateAuthority::create_root(
      "Shadow Intermediate CA", HashAlgorithm::kStrong64, 0,
      kNow + 3650 * kDay, 99);
  const auto v = f.signed_with({other.certificate()});
  EXPECT_EQ(v.chain.status, ChainStatus::kIncompleteChain);
  EXPECT_EQ(v.chain.detail, "Shadow Intermediate CA");
}

TEST(TrustShadowingTest, PresentedRootCarriesNoTrust) {
  ShadowFixture f;
  f.trust = TrustStore{};
  const auto v = f.signed_with({f.sub.certificate(), f.root.certificate()});
  EXPECT_EQ(v.chain.status, ChainStatus::kUntrustedRoot);
  EXPECT_EQ(v.chain.chain_length, 2);
}

TEST(TrustShadowingTest, PresentedChainDoesNotLeakIntoTheStore) {
  ShadowFixture f;
  EXPECT_TRUE(f.signed_with({f.sub.certificate()}).valid());
  EXPECT_EQ(f.store.find(f.sub.certificate().serial), nullptr);
  EXPECT_EQ(f.store.find(f.leaf.serial), nullptr);
  const auto v = f.signed_with({});
  EXPECT_EQ(v.chain.status, ChainStatus::kIncompleteChain);
  EXPECT_EQ(v.chain.detail, "Shadow Intermediate CA");
}

}  // namespace
}  // namespace cyd::pki
