#pragma once
// Static dissection of simulated PE specimens.
//
// Reproduces the workflow behind the paper's Fig. 6: parse the container,
// walk sections and resources (entropy-scoring each), brute the single-byte
// XOR key of encrypted resources, recursively carve nested executables
// (Shamoon's wiper-inside-TrkSvr, driver-inside-wiper), extract printable
// strings, and judge the Authenticode signature against a trust store.

#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pe/image.hpp"
#include "pki/signing.hpp"

namespace cyd::analysis {

struct SectionInfo {
  std::string name;
  std::size_t size = 0;
  double entropy = 0.0;
  bool executable = false;
};

struct ResourceInfo {
  std::uint32_t id = 0;
  std::string name;
  std::size_t size = 0;
  double entropy = 0.0;
  bool xor_encrypted = false;
  /// Key recovered by brute force (independent of the header metadata).
  std::optional<std::uint8_t> recovered_xor_key;
  /// Set when the decrypted payload is itself a PE; holds its dissection.
  std::unique_ptr<struct StaticReport> embedded;
};

struct StaticReport {
  bool parse_ok = false;
  std::string parse_error;

  pe::Machine machine = pe::Machine::kX86;
  std::string original_filename;
  std::string program_id;
  std::string version_info;
  std::int64_t build_timestamp = 0;
  std::size_t total_size = 0;

  std::vector<SectionInfo> sections;
  std::vector<ResourceInfo> resources;
  std::vector<std::string> imports;  // "dll!function"
  std::vector<std::string> strings;  // printable runs

  pki::SignatureVerdict signature;
  /// Heuristic: any section/resource with entropy above the packer line.
  bool looks_packed = false;

  /// Depth-first count of embedded executables (self excluded).
  std::size_t embedded_pe_count() const;
  /// One-line triage summary.
  std::string summary() const;
};

/// Visits every printable ASCII run of at least `min_length` in `data`
/// without allocating: `cb` receives a std::string_view aliasing `data`
/// (valid only for the duration of the call). Feature extraction interns
/// the views directly; dissect copies them into StaticReport::strings.
template <class Cb>
void for_each_string(std::string_view data, std::size_t min_length, Cb&& cb) {
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    if (std::isprint(c) && c != '\t') {
      if (run_len == 0) run_start = i;
      ++run_len;
    } else {
      if (run_len >= min_length) cb(data.substr(run_start, run_len));
      run_len = 0;
    }
  }
  if (run_len >= min_length) cb(data.substr(run_start, run_len));
}

/// Brute-forces a single-byte XOR key by looking for a known plaintext
/// marker (default: the SPE magic) in the decryption of `data`.
std::optional<std::uint8_t> brute_xor_key(
    std::string_view data, std::string_view marker = "SPE1");

/// Full static dissection. `store`/`trust` supply the verifier's view of
/// the PKI (an analyst workstation); `max_depth` bounds recursive carving.
StaticReport dissect(std::string_view bytes, const pki::CertStore& store,
                     const pki::TrustStore& trust, sim::TimePoint now,
                     int max_depth = 4);

}  // namespace cyd::analysis
