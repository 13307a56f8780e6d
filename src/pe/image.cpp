#include "pe/image.hpp"

#include <utility>

namespace cyd::pe {
namespace {

using common::Bytes;
using common::get_u32;
using common::get_u64;
using common::put_string;

std::string get_string(std::string_view data, std::size_t& offset) {
  const std::uint32_t len = get_u32(data, offset);
  offset += 4;
  if (offset + len > data.size()) {
    throw ParseError("SPE: truncated string field");
  }
  std::string s(data.substr(offset, len));
  offset += len;
  return s;
}

}  // namespace

const char* to_string(Machine m) {
  return m == Machine::kX64 ? "x64" : "x86";
}

common::Bytes Resource::plaintext() const {
  return xor_encrypted ? common::xor_cipher(data, xor_key) : data;
}

common::Bytes Image::signed_region() const {
  Bytes out;
  write_signed_region(out);
  return out;
}

common::Bytes Image::serialize() const {
  Bytes out = signed_region();
  put_string(out, signature);
  return out;
}

bool Image::looks_like_pe(std::string_view bytes) {
  return bytes.size() >= kMagic.size() &&
         bytes.substr(0, kMagic.size()) == kMagic;
}

Image Image::parse(std::string_view data) {
  try {
    return parse_impl(data);
  } catch (const std::out_of_range&) {
    // get_u32/get_u64 signal truncation with out_of_range; normalize.
    throw ParseError("SPE: truncated image");
  }
}

Image Image::parse_impl(std::string_view data) {
  if (!looks_like_pe(data)) throw ParseError("SPE: bad magic");
  std::size_t off = kMagic.size();

  auto need = [&](std::size_t n) {
    if (off + n > data.size()) throw ParseError("SPE: truncated image");
  };

  Image img;
  need(1);
  const auto machine_byte = static_cast<unsigned char>(data[off++]);
  if (machine_byte > 1) throw ParseError("SPE: unknown machine type");
  img.machine = static_cast<Machine>(machine_byte);
  need(8);
  img.build_timestamp = static_cast<std::int64_t>(get_u64(data, off));
  off += 8;
  img.program_id = get_string(data, off);
  img.original_filename = get_string(data, off);
  img.version_info = get_string(data, off);

  need(4);
  const std::uint32_t n_sections = get_u32(data, off);
  off += 4;
  if (n_sections > 10'000) throw ParseError("SPE: implausible section count");
  img.sections.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    Section s;
    s.name = get_string(data, off);
    s.data = get_string(data, off);
    need(1);
    const auto flags = static_cast<unsigned char>(data[off++]);
    s.executable = (flags & 1) != 0;
    s.writable = (flags & 2) != 0;
    img.sections.push_back(std::move(s));
  }

  need(4);
  const std::uint32_t n_resources = get_u32(data, off);
  off += 4;
  if (n_resources > 10'000) throw ParseError("SPE: implausible resource count");
  img.resources.reserve(n_resources);
  for (std::uint32_t i = 0; i < n_resources; ++i) {
    Resource r;
    need(4);
    r.id = get_u32(data, off);
    off += 4;
    r.name = get_string(data, off);
    r.data = get_string(data, off);
    need(2);
    r.xor_encrypted = data[off++] != 0;
    r.xor_key = static_cast<std::uint8_t>(data[off++]);
    img.resources.push_back(std::move(r));
  }

  need(4);
  const std::uint32_t n_imports = get_u32(data, off);
  off += 4;
  if (n_imports > 10'000) throw ParseError("SPE: implausible import count");
  img.imports.reserve(n_imports);
  for (std::uint32_t i = 0; i < n_imports; ++i) {
    Import imp;
    imp.dll = get_string(data, off);
    need(4);
    const std::uint32_t n_funcs = get_u32(data, off);
    off += 4;
    if (n_funcs > 100'000) throw ParseError("SPE: implausible import count");
    imp.functions.reserve(n_funcs);
    for (std::uint32_t j = 0; j < n_funcs; ++j) {
      imp.functions.push_back(get_string(data, off));
    }
    img.imports.push_back(std::move(imp));
  }

  img.signature = get_string(data, off);
  if (off != data.size()) throw ParseError("SPE: trailing bytes");
  return img;
}

const Section* Image::find_section(std::string_view name) const {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Resource* Image::find_resource(std::uint32_t id) const {
  for (const auto& r : resources) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const Resource* Image::find_resource(std::string_view name) const {
  for (const auto& r : resources) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

bool Image::imports_function(std::string_view dll,
                             std::string_view function) const {
  for (const auto& imp : imports) {
    if (!common::iequals(imp.dll, dll)) continue;
    for (const auto& f : imp.functions) {
      if (f == function) return true;
    }
  }
  return false;
}

std::size_t Image::payload_size() const {
  std::size_t total = 0;
  for (const auto& s : sections) total += s.data.size();
  for (const auto& r : resources) total += r.data.size();
  return total;
}

Builder& Builder::machine(Machine m) {
  image_.machine = m;
  return *this;
}
Builder& Builder::timestamp(std::int64_t t) {
  image_.build_timestamp = t;
  return *this;
}
Builder& Builder::program(std::string id) {
  image_.program_id = std::move(id);
  return *this;
}
Builder& Builder::filename(std::string name) {
  image_.original_filename = std::move(name);
  return *this;
}
Builder& Builder::version(std::string info) {
  image_.version_info = std::move(info);
  return *this;
}
Builder& Builder::section(std::string name, common::Bytes data,
                          bool executable, bool writable) {
  image_.sections.push_back(
      Section{std::move(name), std::move(data), executable, writable});
  return *this;
}
Builder& Builder::resource(std::uint32_t id, std::string name,
                           common::Bytes data) {
  image_.resources.push_back(
      Resource{id, std::move(name), std::move(data), false, 0});
  return *this;
}
Builder& Builder::encrypted_resource(std::uint32_t id, std::string name,
                                     common::Bytes plaintext,
                                     std::uint8_t key) {
  image_.resources.push_back(Resource{
      id, std::move(name), common::xor_cipher(plaintext, key), true, key});
  return *this;
}
Builder& Builder::import(std::string dll, std::vector<std::string> functions) {
  image_.imports.push_back(Import{std::move(dll), std::move(functions)});
  return *this;
}
Image Builder::build() const { return image_; }

}  // namespace cyd::pe
