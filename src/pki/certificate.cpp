#include "pki/certificate.hpp"

#include <cassert>
#include <utility>

namespace cyd::pki {

const char* to_string(HashAlgorithm a) {
  return a == HashAlgorithm::kWeakSum ? "weak-sum32" : "strong-fnv64";
}

std::uint64_t digest(HashAlgorithm alg, std::string_view data) {
  Digester d(alg);
  d.append(data);
  return d.finish();
}

std::string usage_to_string(std::uint32_t usage) {
  std::string out;
  auto add = [&](const char* name) {
    if (!out.empty()) out += "|";
    out += name;
  };
  if (usage & kUsageCodeSigning) add("code-signing");
  if (usage & kUsageLicenseVerification) add("license-verification");
  if (usage & kUsageCertSign) add("cert-sign");
  if (usage & kUsageServerAuth) add("server-auth");
  if (out.empty()) out = "none";
  return out;
}

KeyPair KeyPair::generate(std::uint64_t seed_material) {
  common::Bytes seed_bytes("keygen");
  common::put_u64(seed_bytes, seed_material);
  return KeyPair{common::fnv1a64(seed_bytes)};
}

common::Bytes Certificate::tbs_bytes() const {
  common::Bytes out;
  CertificateView(*this).write_tbs(out);
  return out;
}

common::Bytes Certificate::serialize() const {
  common::Bytes out("CRT1");
  common::put_u64(out, serial);
  common::put_string(out, subject);
  common::put_string(out, issuer_subject);
  common::put_u64(out, issuer_serial);
  common::put_u64(out, public_key_id);
  common::put_u32(out, usage);
  out.push_back(static_cast<char>(hash_alg));
  common::put_u64(out, static_cast<std::uint64_t>(not_before));
  common::put_u64(out, static_cast<std::uint64_t>(not_after));
  common::put_string(out, collision_padding);
  common::put_u64(out, issuer_sig.tbs_digest);
  out.push_back(static_cast<char>(issuer_sig.alg));
  common::put_u64(out, issuer_sig.issuer_key_id);
  return out;
}

std::optional<Certificate> Certificate::parse(std::string_view bytes) {
  const auto view = CertificateView::parse(bytes);
  if (!view) return std::nullopt;
  return view->to_certificate();
}

std::optional<CertificateView> CertificateView::parse(std::string_view bytes) {
  common::Reader in(bytes);
  std::string_view magic;
  if (!in.bytes(4, magic) || magic != "CRT1") return std::nullopt;
  CertificateView c;
  std::uint64_t not_before = 0;
  std::uint64_t not_after = 0;
  unsigned char alg1 = 0;
  unsigned char alg2 = 0;
  const bool read =
      in.u64(c.serial) && in.string(c.subject) &&
      in.string(c.issuer_subject) && in.u64(c.issuer_serial) &&
      in.u64(c.public_key_id) && in.u32(c.usage) && in.u8(alg1) &&
      alg1 <= 1 && in.u64(not_before) && in.u64(not_after) &&
      in.string(c.collision_padding) && in.u64(c.issuer_sig.tbs_digest) &&
      in.u8(alg2) && alg2 <= 1 && in.u64(c.issuer_sig.issuer_key_id);
  if (!read || in.remaining() != 0) return std::nullopt;
  c.hash_alg = static_cast<HashAlgorithm>(alg1);
  c.not_before = static_cast<sim::TimePoint>(not_before);
  c.not_after = static_cast<sim::TimePoint>(not_after);
  c.issuer_sig.alg = static_cast<HashAlgorithm>(alg2);
  return c;
}

Certificate CertificateView::to_certificate() const {
  Certificate c;
  c.serial = serial;
  c.subject = subject;
  c.issuer_subject = issuer_subject;
  c.issuer_serial = issuer_serial;
  c.public_key_id = public_key_id;
  c.usage = usage;
  c.hash_alg = hash_alg;
  c.not_before = not_before;
  c.not_after = not_after;
  c.collision_padding = collision_padding;
  c.issuer_sig = issuer_sig;
  return c;
}

void CertStore::set_base(std::shared_ptr<const CertStore> base) {
  assert(base == nullptr || base->base_ == nullptr);
  base_ = std::move(base);
}

void CertStore::add(const Certificate& cert) { certs_[cert.serial] = cert; }

const Certificate* CertStore::find(std::uint64_t serial) const {
  auto it = certs_.find(serial);
  if (it != certs_.end()) return &it->second;
  if (base_ != nullptr) {
    auto bit = base_->certs_.find(serial);
    if (bit != base_->certs_.end()) return &bit->second;
  }
  return nullptr;
}

std::size_t CertStore::size() const {
  std::size_t total = certs_.size();
  if (base_ != nullptr) {
    for (const auto& [serial, cert] : base_->certs_) {
      if (!certs_.contains(serial)) ++total;
    }
  }
  return total;
}

std::vector<const Certificate*> CertStore::all() const {
  std::vector<const Certificate*> out;
  out.reserve(certs_.size());
  if (base_ == nullptr) {
    for (const auto& [serial, cert] : certs_) out.push_back(&cert);
    return out;
  }
  auto di = certs_.begin();
  auto bi = base_->certs_.begin();
  while (di != certs_.end() || bi != base_->certs_.end()) {
    if (bi == base_->certs_.end() ||
        (di != certs_.end() && di->first <= bi->first)) {
      if (bi != base_->certs_.end() && bi->first == di->first) ++bi;
      out.push_back(&di->second);
      ++di;
    } else {
      out.push_back(&bi->second);
      ++bi;
    }
  }
  return out;
}

CertificateAuthority CertificateAuthority::create_root(
    std::string subject, HashAlgorithm alg, sim::TimePoint not_before,
    sim::TimePoint not_after, std::uint64_t seed) {
  CertificateAuthority ca;
  ca.key_ = KeyPair::generate(seed);
  Certificate& c = ca.cert_;
  c.serial = common::fnv1a64(subject) ^ seed;
  c.subject = subject;
  c.issuer_subject = subject;
  c.issuer_serial = 0;  // self-signed
  c.public_key_id = ca.key_.key_id;
  c.usage = kUsageCertSign;
  c.hash_alg = alg;
  c.not_before = not_before;
  c.not_after = not_after;
  c.issuer_sig = IssuerSignature{CertificateView(c).tbs_digest(alg), alg,
                                 ca.key_.key_id};
  return ca;
}

Certificate CertificateAuthority::issue(std::string subject,
                                        std::uint32_t usage,
                                        HashAlgorithm alg,
                                        sim::TimePoint not_before,
                                        sim::TimePoint not_after,
                                        const KeyPair& subject_key) {
  Certificate c;
  common::Bytes serial_material;
  common::put_u64(serial_material, key_.key_id);
  common::put_u64(serial_material, next_serial_++);
  serial_material.append(subject);
  c.serial = common::fnv1a64(serial_material);
  c.subject = std::move(subject);
  c.issuer_subject = cert_.subject;
  c.issuer_serial = cert_.serial;
  c.public_key_id = subject_key.key_id;
  c.usage = usage;
  c.hash_alg = alg;
  c.not_before = not_before;
  c.not_after = not_after;
  c.issuer_sig =
      IssuerSignature{CertificateView(c).tbs_digest(alg), alg, key_.key_id};
  return c;
}

CertificateAuthority CertificateAuthority::issue_sub_ca(
    std::string subject, HashAlgorithm alg, sim::TimePoint not_before,
    sim::TimePoint not_after, std::uint64_t seed) {
  CertificateAuthority sub;
  sub.key_ = KeyPair::generate(seed);
  sub.cert_ = issue(std::move(subject), kUsageCertSign, alg, not_before,
                    not_after, sub.key_);
  return sub;
}

}  // namespace cyd::pki
