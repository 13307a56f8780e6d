#pragma once
// Simulated Portable Executable ("SPE") container.
//
// Shamoon's main file (TrkSvr.exe) is a 900KB PE carrying its dropper, wiper,
// reporter and a 64-bit variant as XOR-encrypted resources; Stuxnet drops
// signed kernel drivers; Flame ships ~20MB of modules. To dissect specimens
// the way the paper's sources did, the framework defines its own on-disk
// executable format with sections, an import table, a resource directory
// (with optional single-byte XOR encryption, as in Shamoon), an embedded
// program id (the behaviour hook used when a simulated host "executes" the
// file), and an opaque Authenticode-style signature blob filled in by the
// pki module.
//
// Images serialize to deterministic byte strings, so copying a file across
// hosts, hashing it for AV signatures, or carving it out of a disk image all
// behave like they do for real binaries.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace cyd::pe {

enum class Machine : std::uint8_t { kX86 = 0, kX64 = 1 };

const char* to_string(Machine m);

/// A loadable section (.text, .data, .rsrc ...).
struct Section {
  std::string name;
  common::Bytes data;
  bool executable = false;
  bool writable = false;
};

/// A resource directory entry. When `xor_encrypted` is set the stored bytes
/// are ciphertext under the single-byte `xor_key` (Shamoon-style).
struct Resource {
  std::uint32_t id = 0;
  std::string name;
  common::Bytes data;
  bool xor_encrypted = false;
  std::uint8_t xor_key = 0;

  /// Decrypted payload (identity when not encrypted).
  common::Bytes plaintext() const;
};

/// An import-table entry: one DLL and the functions referenced from it.
struct Import {
  std::string dll;
  std::vector<std::string> functions;
};

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Image {
 public:
  Machine machine = Machine::kX86;
  std::int64_t build_timestamp = 0;
  /// Behaviour hook: when a simulated host executes this file, the program
  /// registry maps this id to a factory for the in-sim program object.
  std::string program_id;
  std::string original_filename;
  std::string version_info;  // free-form "CompanyName/ProductName" style blob
  std::vector<Section> sections;
  std::vector<Resource> resources;
  std::vector<Import> imports;
  /// Opaque signature produced by pki::sign_image (empty when unsigned).
  common::Bytes signature;

  /// Deterministic byte encoding of the whole image (including signature).
  common::Bytes serialize() const;

  /// Byte encoding of everything *except* the signature blob — the region a
  /// code-signing digest covers.
  common::Bytes signed_region() const;
  /// Writes the signed region into any byte sink (common::put_u32); a
  /// digest sink hashes it without materializing the bytes.
  template <typename Sink>
  void write_signed_region(Sink& out) const;

  /// Parses bytes produced by serialize(). Throws ParseError on malformed or
  /// truncated input (the dissection tools rely on this to reject carved
  /// garbage).
  static Image parse(std::string_view bytes);

  /// True if `bytes` starts with the SPE magic.
  static bool looks_like_pe(std::string_view bytes);

  const Section* find_section(std::string_view name) const;
  const Resource* find_resource(std::uint32_t id) const;
  const Resource* find_resource(std::string_view name) const;
  bool imports_function(std::string_view dll, std::string_view function) const;

  /// Total payload size across sections and (stored) resources.
  std::size_t payload_size() const;

 private:
  static Image parse_impl(std::string_view bytes);
};

inline constexpr std::string_view kMagic = "SPE1";

template <typename Sink>
void Image::write_signed_region(Sink& out) const {
  using common::put_string;
  using common::put_u32;
  out.append(kMagic);
  out.push_back(static_cast<char>(machine));
  common::put_u64(out, static_cast<std::uint64_t>(build_timestamp));
  put_string(out, program_id);
  put_string(out, original_filename);
  put_string(out, version_info);

  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    put_string(out, s.name);
    put_string(out, s.data);
    out.push_back(static_cast<char>((s.executable ? 1 : 0) |
                                    (s.writable ? 2 : 0)));
  }

  put_u32(out, static_cast<std::uint32_t>(resources.size()));
  for (const auto& r : resources) {
    put_u32(out, r.id);
    put_string(out, r.name);
    put_string(out, r.data);
    out.push_back(static_cast<char>(r.xor_encrypted ? 1 : 0));
    out.push_back(static_cast<char>(r.xor_key));
  }

  put_u32(out, static_cast<std::uint32_t>(imports.size()));
  for (const auto& imp : imports) {
    put_string(out, imp.dll);
    put_u32(out, static_cast<std::uint32_t>(imp.functions.size()));
    for (const auto& f : imp.functions) put_string(out, f);
  }
}

/// Fluent builder so specimen factories read like a linker script.
class Builder {
 public:
  Builder& machine(Machine m);
  Builder& timestamp(std::int64_t t);
  Builder& program(std::string id);
  Builder& filename(std::string name);
  Builder& version(std::string info);
  Builder& section(std::string name, common::Bytes data, bool executable,
                   bool writable = false);
  Builder& resource(std::uint32_t id, std::string name, common::Bytes data);
  /// Stores the resource XOR-encrypted under `key`.
  Builder& encrypted_resource(std::uint32_t id, std::string name,
                              common::Bytes plaintext, std::uint8_t key);
  Builder& import(std::string dll, std::vector<std::string> functions);
  Image build() const;

 private:
  Image image_;
};

}  // namespace cyd::pe
