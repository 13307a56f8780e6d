#include "pki/trust.hpp"

namespace cyd::pki {

const char* to_string(ChainStatus s) {
  switch (s) {
    case ChainStatus::kOk: return "ok";
    case ChainStatus::kUntrustedRoot: return "untrusted-root";
    case ChainStatus::kIncompleteChain: return "incomplete-chain";
    case ChainStatus::kExpired: return "expired";
    case ChainStatus::kRevoked: return "revoked";
    case ChainStatus::kBadSignature: return "bad-signature";
    case ChainStatus::kInvalidIssuer: return "invalid-issuer";
    case ChainStatus::kWeakHashRejected: return "weak-hash-rejected";
    case ChainStatus::kChainTooLong: return "chain-too-long";
  }
  return "?";
}

std::optional<CertificateView> resolve(
    std::uint64_t serial, const CertStore& store,
    std::span<const CertificateView> presented) {
  for (auto it = presented.rbegin(); it != presented.rend(); ++it) {
    if (it->serial == serial) return *it;
  }
  if (const Certificate* cert = store.find(serial)) return *cert;
  return std::nullopt;
}

ChainResult verify_chain(const CertificateView& cert, const CertStore& store,
                         const TrustStore& trust, sim::TimePoint now,
                         std::span<const CertificateView> presented) {
  constexpr int kMaxDepth = 16;
  CertificateView current = cert;
  auto result = [](ChainStatus status, std::string_view who, int depth) {
    return ChainResult{status, std::string(who), depth};
  };

  for (int depth = 0; depth < kMaxDepth; ++depth) {
    if (trust.is_untrusted(current.serial)) {
      return result(ChainStatus::kRevoked, current.subject, depth);
    }
    if (!current.valid_at(now)) {
      return result(ChainStatus::kExpired, current.subject, depth);
    }
    if (trust.reject_weak_hash() &&
        current.issuer_sig.alg == HashAlgorithm::kWeakSum) {
      return result(ChainStatus::kWeakHashRejected, current.subject, depth);
    }

    if (current.self_signed()) {
      // Self-signature must verify and the root must be anchored.
      if (current.tbs_digest(current.issuer_sig.alg) !=
              current.issuer_sig.tbs_digest ||
          current.issuer_sig.issuer_key_id != current.public_key_id) {
        return result(ChainStatus::kBadSignature, current.subject, depth);
      }
      if (!trust.is_trusted_root(current.serial)) {
        return result(ChainStatus::kUntrustedRoot, current.subject, depth);
      }
      return result(ChainStatus::kOk, current.subject, depth + 1);
    }

    const auto issuer = resolve(current.issuer_serial, store, presented);
    if (!issuer) {
      return result(ChainStatus::kIncompleteChain, current.issuer_subject,
                  depth);
    }
    if (!issuer->has_usage(kUsageCertSign)) {
      return result(ChainStatus::kInvalidIssuer, issuer->subject, depth);
    }
    // The issuer signature is valid iff the recorded digest matches the TBS
    // bytes under the declared algorithm and was produced with the issuer's
    // key. A weak-sum collision makes two different TBS encodings share a
    // digest — which is precisely the forgery this check cannot detect.
    if (current.tbs_digest(current.issuer_sig.alg) !=
            current.issuer_sig.tbs_digest ||
        current.issuer_sig.issuer_key_id != issuer->public_key_id) {
      return result(ChainStatus::kBadSignature, current.subject, depth);
    }
    current = *issuer;
  }
  return result(ChainStatus::kChainTooLong, cert.subject, kMaxDepth);
}

}  // namespace cyd::pki
