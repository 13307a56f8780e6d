#include "pki/signing.hpp"

#include <stdexcept>

namespace cyd::pki {

namespace {

std::uint64_t image_digest(HashAlgorithm alg, const pe::Image& image) {
  Digester d(alg);
  image.write_signed_region(d);
  return d.finish();
}

}  // namespace

common::Bytes CodeSignature::serialize() const {
  common::Bytes out("SIG1");
  common::put_u64(out, image_digest);
  out.push_back(static_cast<char>(alg));
  common::put_u64(out, signer_serial);
  common::put_u64(out, signer_key_id);
  common::put_u32(out, static_cast<std::uint32_t>(chain.size()));
  for (const auto& cert : chain) common::put_string(out, cert.serialize());
  return out;
}

std::optional<CodeSignature> CodeSignature::parse(std::string_view bytes) {
  SignatureView view;
  if (!view.parse(bytes)) return std::nullopt;
  CodeSignature sig;
  sig.image_digest = view.image_digest;
  sig.alg = view.alg;
  sig.signer_serial = view.signer_serial;
  sig.signer_key_id = view.signer_key_id;
  for (const auto& cert : view.chain()) {
    sig.chain.push_back(cert.to_certificate());
  }
  return sig;
}

bool SignatureView::parse(std::string_view bytes) {
  common::Reader in(bytes);
  std::string_view magic;
  unsigned char alg_byte = 0;
  if (!in.bytes(4, magic) || magic != "SIG1" || !in.u64(image_digest) ||
      !in.u8(alg_byte) || alg_byte > 1 || !in.u64(signer_serial) ||
      !in.u64(signer_key_id) || !in.u32(chain_size) ||
      chain_size > kMaxChain) {
    return false;
  }
  alg = static_cast<HashAlgorithm>(alg_byte);
  for (std::uint32_t i = 0; i < chain_size; ++i) {
    std::string_view encoded;
    if (!in.string(encoded)) return false;
    const auto cert = CertificateView::parse(encoded);
    if (!cert) return false;
    chain_slots[i] = *cert;
  }
  return in.remaining() == 0;
}

const char* to_string(SignatureStatus s) {
  switch (s) {
    case SignatureStatus::kUnsigned: return "unsigned";
    case SignatureStatus::kMalformed: return "malformed";
    case SignatureStatus::kDigestMismatch: return "digest-mismatch";
    case SignatureStatus::kSignerUnknown: return "signer-unknown";
    case SignatureStatus::kKeyMismatch: return "key-mismatch";
    case SignatureStatus::kWrongUsage: return "wrong-usage";
    case SignatureStatus::kChainInvalid: return "chain-invalid";
    case SignatureStatus::kValid: return "valid";
  }
  return "?";
}

std::string SignatureVerdict::describe() const {
  std::string out = to_string(status);
  if (!signer_subject.empty()) out += " signer=\"" + signer_subject + "\"";
  if (status == SignatureStatus::kChainInvalid) {
    out += std::string(" chain=") + to_string(chain.status);
  }
  return out;
}

void sign_image(pe::Image& image, const Certificate& signer,
                const KeyPair& key,
                const std::vector<Certificate>& intermediates) {
  if (key.key_id != signer.public_key_id) {
    throw std::invalid_argument(
        "sign_image: private key does not match the signer certificate");
  }
  CodeSignature sig;
  sig.alg = signer.hash_alg;
  sig.image_digest = image_digest(sig.alg, image);
  sig.signer_serial = signer.serial;
  sig.signer_key_id = key.key_id;
  sig.chain.push_back(signer);
  for (const auto& cert : intermediates) sig.chain.push_back(cert);
  image.signature = sig.serialize();
}

SignatureVerdict verify_image(const pe::Image& image, const CertStore& store,
                              const TrustStore& trust, sim::TimePoint now) {
  SignatureVerdict verdict;
  if (image.signature.empty()) {
    verdict.status = SignatureStatus::kUnsigned;
    return verdict;
  }
  SignatureView sig;
  if (!sig.parse(image.signature)) {
    verdict.status = SignatureStatus::kMalformed;
    return verdict;
  }
  if (image_digest(sig.alg, image) != sig.image_digest) {
    verdict.status = SignatureStatus::kDigestMismatch;
    return verdict;
  }
  // Resolve against the presented chain, then the host store. Presented
  // certificates carry no trust by themselves: anchoring still happens only
  // through the TrustStore.
  const auto signer = resolve(sig.signer_serial, store, sig.chain());
  if (!signer) {
    verdict.status = SignatureStatus::kSignerUnknown;
    return verdict;
  }
  verdict.signer_subject = signer->subject;
  if (signer->public_key_id != sig.signer_key_id) {
    verdict.status = SignatureStatus::kKeyMismatch;
    return verdict;
  }
  if (!signer->has_usage(kUsageCodeSigning)) {
    verdict.status = SignatureStatus::kWrongUsage;
    return verdict;
  }
  verdict.chain = verify_chain(*signer, store, trust, now, sig.chain());
  verdict.status = verdict.chain.ok() ? SignatureStatus::kValid
                                      : SignatureStatus::kChainInvalid;
  return verdict;
}

}  // namespace cyd::pki
