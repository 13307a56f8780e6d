#pragma once
// Certificates, keys and certificate authorities.
//
// The campaign the paper dissects abused the PKI three different ways
// (Section V-C): Stuxnet signed rootkit drivers with keys *stolen* from
// JMicron and Realtek; Flame *forged* a code-signing certificate off a
// Terminal Services licensing cert whose chain still used a weak hash; and
// Shamoon reused a *legitimately signed* raw-disk driver (Eldos). This module
// models exactly the trust decisions those abuses exploit.
//
// Crypto is structural, not numeric: a signature is valid iff the recorded
// digest of the to-be-signed bytes matches under the declared hash algorithm
// and the signing key id equals the issuer's key id. Private-key possession
// is modelled by holding the KeyPair value; "stealing a certificate" means
// exfiltrating that value. The *weak* hash algorithm is a genuine (simulated)
// weakness: it is an additive checksum, so collisions are computable — see
// pki/forgery.hpp.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "sim/time.hpp"

namespace cyd::pki {

/// Digest algorithms available to issuers. kWeakSum is the MD5 analogue:
/// still accepted by legacy verification paths, collidable by a resourced
/// attacker.
enum class HashAlgorithm : std::uint8_t { kWeakSum = 0, kStrong64 = 1 };

const char* to_string(HashAlgorithm a);

/// Streaming digest under one algorithm: bytes fed in any number of pieces
/// digest the same as their concatenation. It is a byte sink (append and
/// push_back), so encoders such as Certificate's TBS writer or
/// pe::Image::write_signed_region hash straight into it without building
/// the bytes.
class Digester {
 public:
  explicit Digester(HashAlgorithm alg)
      : alg_(alg),
        state_(alg == HashAlgorithm::kStrong64 ? common::kFnv1a64Offset : 0) {}

  void append(std::string_view data) {
    if (alg_ == HashAlgorithm::kStrong64) {
      state_ = common::fnv1a64(data, state_);
      return;
    }
    // Weak algorithm: additive byte sum mod 2^16. Deliberately linear and
    // narrow so that chosen-suffix collisions are computable with a short
    // trailer (forgery.hpp) — the simulation's stand-in for the MD5
    // chosen-prefix attack used against the Terminal Services licensing
    // chain.
    for (unsigned char c : data) state_ += c;
  }
  void push_back(char c) { append(std::string_view(&c, 1)); }

  /// Digest of everything appended so far (widened to 64 bits).
  std::uint64_t finish() const {
    return alg_ == HashAlgorithm::kStrong64 ? state_ : state_ & 0xffffULL;
  }

 private:
  HashAlgorithm alg_;
  std::uint64_t state_;
};

/// Computes a digest of `data` under `alg` (widened to 64 bits).
std::uint64_t digest(HashAlgorithm alg, std::string_view data);

/// Certificate key-usage bits.
enum KeyUsage : std::uint32_t {
  kUsageNone = 0,
  kUsageCodeSigning = 1u << 0,
  kUsageLicenseVerification = 1u << 1,
  kUsageCertSign = 1u << 2,   // may act as an issuing CA
  kUsageServerAuth = 1u << 3,
};

std::string usage_to_string(std::uint32_t usage);

/// An asymmetric key pair. Possession of the struct = possession of the
/// private key; public identity is `key_id`.
struct KeyPair {
  std::uint64_t key_id = 0;

  static KeyPair generate(std::uint64_t seed_material);
};

/// Issuer signature over a certificate's to-be-signed (TBS) bytes.
struct IssuerSignature {
  std::uint64_t tbs_digest = 0;     // digest of the subject cert's TBS bytes
  HashAlgorithm alg = HashAlgorithm::kStrong64;
  std::uint64_t issuer_key_id = 0;  // key that produced the signature
};

struct Certificate {
  std::uint64_t serial = 0;
  std::string subject;
  std::string issuer_subject;
  std::uint64_t issuer_serial = 0;   // 0 for self-signed roots
  std::uint64_t public_key_id = 0;
  std::uint32_t usage = kUsageNone;
  HashAlgorithm hash_alg = HashAlgorithm::kStrong64;
  sim::TimePoint not_before = 0;
  sim::TimePoint not_after = 0;
  /// Opaque padding an attacker may add to steer the weak TBS digest; honest
  /// issuers leave it empty. Included in tbs_bytes().
  common::Bytes collision_padding;
  IssuerSignature issuer_sig;

  /// Deterministic serialization of all fields the issuer signs.
  common::Bytes tbs_bytes() const;

  /// Full wire encoding (TBS fields + issuer signature); used to embed
  /// certificate chains inside code signatures, Authenticode-style.
  common::Bytes serialize() const;
  static std::optional<Certificate> parse(std::string_view bytes);

  bool self_signed() const { return issuer_serial == 0; }
  bool valid_at(sim::TimePoint t) const {
    return t >= not_before && t <= not_after;
  }
  bool has_usage(std::uint32_t bit) const { return (usage & bit) != 0; }
};

/// A certificate's fields without ownership: the strings point into a
/// Certificate or into a serialized certificate, which must outlive the
/// view. Chain validation works on views, so certificates presented inside
/// a signature blob are checked in place, never copied.
struct CertificateView {
  std::uint64_t serial = 0;
  std::string_view subject;
  std::string_view issuer_subject;
  std::uint64_t issuer_serial = 0;
  std::uint64_t public_key_id = 0;
  std::uint32_t usage = kUsageNone;
  HashAlgorithm hash_alg = HashAlgorithm::kStrong64;
  sim::TimePoint not_before = 0;
  sim::TimePoint not_after = 0;
  std::string_view collision_padding;
  IssuerSignature issuer_sig;

  CertificateView() = default;
  // Implicit: a Certificate passes wherever a view is expected.
  CertificateView(const Certificate& c)
      : serial(c.serial),
        subject(c.subject),
        issuer_subject(c.issuer_subject),
        issuer_serial(c.issuer_serial),
        public_key_id(c.public_key_id),
        usage(c.usage),
        hash_alg(c.hash_alg),
        not_before(c.not_before),
        not_after(c.not_after),
        collision_padding(c.collision_padding),
        issuer_sig(c.issuer_sig) {}

  /// Parses Certificate::serialize() output in place (same rules as
  /// Certificate::parse, which is built on this).
  static std::optional<CertificateView> parse(std::string_view bytes);
  /// An owning copy.
  Certificate to_certificate() const;

  /// Writes the to-be-signed bytes into any byte sink (common::put_u32).
  template <typename Sink>
  void write_tbs(Sink& out) const;
  /// Digest of the TBS bytes under `alg`, streamed without building them.
  std::uint64_t tbs_digest(HashAlgorithm alg) const {
    Digester d(alg);
    write_tbs(d);
    return d.finish();
  }

  bool self_signed() const { return issuer_serial == 0; }
  bool valid_at(sim::TimePoint t) const {
    return t >= not_before && t <= not_after;
  }
  bool has_usage(std::uint32_t bit) const { return (usage & bit) != 0; }
};

template <typename Sink>
void CertificateView::write_tbs(Sink& out) const {
  out.append("TBS1");
  common::put_u64(out, serial);
  out.append(subject);
  out.push_back('\0');
  out.append(issuer_subject);
  out.push_back('\0');
  common::put_u64(out, issuer_serial);
  common::put_u64(out, public_key_id);
  common::put_u32(out, usage);
  out.push_back(static_cast<char>(hash_alg));
  common::put_u64(out, static_cast<std::uint64_t>(not_before));
  common::put_u64(out, static_cast<std::uint64_t>(not_after));
  // Attacker-controllable trailer, appended raw: its bytes shift the weak
  // additive digest without affecting any authenticated field above. It is
  // never parsed, only digested, mirroring the unauthenticated fields abused
  // in the real chosen-prefix collision.
  out.append(collision_padding);
}

/// A bundle of certificates indexed by serial; chain validation resolves
/// issuers against one of these (hosts carry their own store).
///
/// Optionally layered over an immutable shared base (the template image's
/// certificate landscape): find() consults delta -> base, add() writes the
/// delta only, and a serial present in both resolves to the delta copy —
/// the same last-wins rule a materialized store's add() applies.
class CertStore {
 public:
  /// Single-level copy-on-write layering; nullptr detaches.
  void set_base(std::shared_ptr<const CertStore> base);
  const CertStore* base() const { return base_.get(); }

  void add(const Certificate& cert);
  const Certificate* find(std::uint64_t serial) const;
  /// Distinct visible serials across delta and base.
  std::size_t size() const;
  /// Visible certificates in serial order (delta shadows base).
  std::vector<const Certificate*> all() const;

 private:
  std::map<std::uint64_t, Certificate> certs_;
  std::shared_ptr<const CertStore> base_;
};

/// An issuing authority: owns a certificate and the matching private key.
class CertificateAuthority {
 public:
  /// Creates a self-signed root CA.
  static CertificateAuthority create_root(std::string subject,
                                          HashAlgorithm alg,
                                          sim::TimePoint not_before,
                                          sim::TimePoint not_after,
                                          std::uint64_t seed);

  /// Issues a subject certificate signed by this CA.
  Certificate issue(std::string subject, std::uint32_t usage,
                    HashAlgorithm alg, sim::TimePoint not_before,
                    sim::TimePoint not_after, const KeyPair& subject_key);

  /// Issues a subordinate CA (usage includes kUsageCertSign).
  CertificateAuthority issue_sub_ca(std::string subject, HashAlgorithm alg,
                                    sim::TimePoint not_before,
                                    sim::TimePoint not_after,
                                    std::uint64_t seed);

  const Certificate& certificate() const { return cert_; }
  const KeyPair& key() const { return key_; }

 private:
  CertificateAuthority() = default;

  Certificate cert_;
  KeyPair key_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace cyd::pki
