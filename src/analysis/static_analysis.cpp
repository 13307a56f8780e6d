#include "analysis/static_analysis.hpp"

#include <algorithm>
#include <cctype>

namespace cyd::analysis {
namespace {

constexpr double kPackerEntropyLine = 7.2;
constexpr std::size_t kMinStringLength = 6;

}  // namespace

const std::array<bool, 256>& printable_table() {
  static const std::array<bool, 256> table = [] {
    std::array<bool, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = std::isprint(c) && c != '\t';
    return t;
  }();
  return table;
}

std::optional<std::uint8_t> brute_xor_key(std::string_view data,
                                          std::string_view marker) {
  if (data.size() < marker.size() || marker.empty()) return std::nullopt;
  // Probe just the head, plus slack in case the marker is not at offset
  // zero.
  const std::size_t probe_len = std::min(data.size(), marker.size() + 64);
  const auto byte = [](std::string_view s, std::size_t i) {
    return static_cast<std::uint8_t>(s[i]);
  };
  std::optional<std::uint8_t> best;
  for (std::size_t p = 0; p + marker.size() <= probe_len; ++p) {
    const auto key = static_cast<std::uint8_t>(byte(data, p) ^ byte(marker, 0));
    if (best && key >= *best) continue;
    std::size_t i = 1;
    while (i < marker.size() && (byte(data, p + i) ^ key) == byte(marker, i)) {
      ++i;
    }
    if (i == marker.size()) best = key;
  }
  return best;
}

std::size_t StaticReport::embedded_pe_count() const {
  std::size_t count = 0;
  for (const auto& res : resources) {
    if (res.embedded) count += 1 + res.embedded->embedded_pe_count();
  }
  return count;
}

std::string StaticReport::summary() const {
  if (!parse_ok) return "unparseable: " + parse_error;
  std::string out = original_filename.empty() ? "<unnamed>" : original_filename;
  out += " [" + std::string(pe::to_string(machine)) + "]";
  out += " sections=" + std::to_string(sections.size());
  out += " resources=" + std::to_string(resources.size());
  out += " embedded-PEs=" + std::to_string(embedded_pe_count());
  out += " signature=" + std::string(pki::to_string(signature.status));
  if (looks_packed) out += " PACKED";
  return out;
}

StaticReport dissect(std::string_view bytes, const pki::CertStore& store,
                     const pki::TrustStore& trust, sim::TimePoint now,
                     int max_depth) {
  StaticReport report;
  report.total_size = bytes.size();

  pe::Image image;
  try {
    image = pe::Image::parse(bytes);
  } catch (const pe::ParseError& e) {
    report.parse_error = e.what();
    return report;
  }
  report.parse_ok = true;
  report.machine = image.machine;
  report.original_filename = image.original_filename;
  report.program_id = image.program_id;
  report.version_info = image.version_info;
  report.build_timestamp = image.build_timestamp;

  for (const auto& section : image.sections) {
    SectionInfo info;
    info.name = section.name;
    info.size = section.data.size();
    info.entropy = common::shannon_entropy(section.data);
    info.executable = section.executable;
    if (info.entropy > kPackerEntropyLine && info.size > 256) {
      report.looks_packed = true;
    }
    report.sections.push_back(info);
    for_each_string(section.data, kMinStringLength, [&](std::string_view s) {
      report.strings.emplace_back(s);
    });
  }

  for (const auto& resource : image.resources) {
    ResourceInfo info;
    info.id = resource.id;
    info.name = resource.name;
    info.size = resource.data.size();
    info.entropy = common::shannon_entropy(resource.data);
    info.xor_encrypted = resource.xor_encrypted;

    // The analyst does not trust header metadata: recover the key by brute
    // force, falling back to the stored plaintext for unencrypted entries.
    common::Bytes decrypted;
    std::string_view payload = resource.data;
    if (auto key = brute_xor_key(resource.data)) {
      info.recovered_xor_key = key;
      decrypted = common::xor_cipher(resource.data, *key);
      payload = decrypted;
    }
    if (max_depth > 0 && pe::Image::looks_like_pe(payload)) {
      info.embedded = std::make_unique<StaticReport>(
          dissect(payload, store, trust, now, max_depth - 1));
    } else {
      for_each_string(payload, kMinStringLength, [&](std::string_view s) {
        report.strings.emplace_back(s);
      });
    }
    report.resources.push_back(std::move(info));
  }

  for (const auto& import : image.imports) {
    for (const auto& fn : import.functions) {
      report.imports.push_back(import.dll + "!" + fn);
    }
  }

  report.signature = pki::verify_image(image, store, trust, now);
  return report;
}

}  // namespace cyd::analysis
