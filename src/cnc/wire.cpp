#include "cnc/wire.hpp"

namespace cyd::cnc {

void append_payload(common::Bytes& out, const Payload& p) {
  common::put_u32(out, static_cast<std::uint32_t>(p.name.size()));
  out.append(p.name);
  common::put_u32(out, static_cast<std::uint32_t>(p.data.size()));
  out.append(p.data);
}

common::Bytes serialize_payloads(const std::vector<Payload>& payloads) {
  common::Bytes out("PLS1");
  common::put_u32(out, static_cast<std::uint32_t>(payloads.size()));
  for (const auto& p : payloads) append_payload(out, p);
  return out;
}

bool parse_payload_views(std::string_view bytes,
                         std::vector<PayloadView>& out) {
  out.clear();
  if (bytes.size() < 8 || bytes.substr(0, 4) != "PLS1") return false;
  std::size_t off = 4;
  const std::uint32_t count = common::get_u32(bytes, off);
  off += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    // All bounds checks are explicit subtractions against the remaining
    // length, so a lying length field can neither read past the buffer nor
    // throw on the hot path.
    if (bytes.size() - off < 4) { out.clear(); return false; }
    const std::uint32_t name_len = common::get_u32(bytes, off);
    off += 4;
    if (name_len > bytes.size() - off) { out.clear(); return false; }
    const std::string_view name = bytes.substr(off, name_len);
    off += name_len;
    if (bytes.size() - off < 4) { out.clear(); return false; }
    const std::uint32_t data_len = common::get_u32(bytes, off);
    off += 4;
    if (data_len > bytes.size() - off) { out.clear(); return false; }
    out.push_back(PayloadView{name, bytes.substr(off, data_len)});
    off += data_len;
  }
  return true;
}

std::vector<Payload> parse_payloads(std::string_view bytes) {
  std::vector<PayloadView> views;
  std::vector<Payload> out;
  if (!parse_payload_views(bytes, views)) return out;
  out.reserve(views.size());
  for (const auto& view : views) out.push_back(view.materialize());
  return out;
}

common::Bytes serialize_entry_upload(const std::string& data_name,
                                     const EncryptedBlob& blob) {
  common::Bytes out("UPL1");
  common::put_u32(out, static_cast<std::uint32_t>(data_name.size()));
  out.append(data_name);
  out.append(blob.serialize());
  return out;
}

std::optional<EntryUploadView> parse_entry_upload_view(std::string_view body) {
  if (body.size() < 8 || body.substr(0, 4) != "UPL1") return std::nullopt;
  const std::uint32_t name_len = common::get_u32(body, 4);
  if (name_len > body.size() - 8) return std::nullopt;
  const auto blob = parse_blob_view(body.substr(8 + name_len));
  if (!blob) return std::nullopt;
  return EntryUploadView{body.substr(8, name_len), *blob};
}

DecodedRequest decode_request(const net::HttpRequest& request) {
  DecodedRequest d;
  if (request.path != "/newsforyou") {
    d.error_status = 404;
    return d;
  }
  const auto cmd = request.params.find("cmd");
  if (cmd == request.params.end()) {
    d.error_status = 400;
    return d;
  }
  const bool get_news = cmd->second == "GET_NEWS";
  const bool add_entry = !get_news && cmd->second == "ADD_ENTRY";
  if (!get_news && !add_entry) {
    d.error_status = 400;
    return d;
  }
  const auto client = request.params.find("client");
  if (client == request.params.end()) {
    d.error_status = 400;
    return d;
  }
  d.client = client->second;
  const auto type = request.params.find("type");
  d.type = type == request.params.end() ? std::string_view(kClientTypeFl)
                                        : std::string_view(type->second);
  if (add_entry) {
    const auto upload = parse_entry_upload_view(request.body);
    if (!upload) {
      d.error_status = 400;
      return d;
    }
    d.upload = *upload;
    d.verb = RequestVerb::kAddEntry;
  } else {
    d.verb = RequestVerb::kGetNews;
  }
  return d;
}

}  // namespace cyd::cnc
