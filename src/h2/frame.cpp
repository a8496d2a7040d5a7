#include "h2/frame.hpp"

#include <array>
#include <initializer_list>
#include <string_view>

namespace hsim::h2 {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint32_t read_u32(const buf::Chain& c, std::size_t pos) {
  std::array<std::uint8_t, 4> b{};
  c.copy_to(pos, b);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

/// Wire size of one [u16 len][name][u16 len][value] entry.
std::size_t entry_size(std::string_view name, std::string_view value) {
  return 4 + name.size() + value.size();
}

void put_entry(std::vector<std::uint8_t>& out, std::string_view name,
               std::string_view value) {
  put_u16(out, static_cast<std::uint16_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  put_u16(out, static_cast<std::uint16_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

/// Encodes a header block: the pseudo-header entries, then `headers` in
/// order, into one exactly sized block.
buf::Chain encode_block(
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        pseudo,
    const http::Headers& headers) {
  std::size_t size = 0;
  for (const auto& [name, value] : pseudo) size += entry_size(name, value);
  for (const auto& [name, value] : headers.items())
    size += entry_size(name, value);
  std::vector<std::uint8_t> out;
  out.reserve(size);
  for (const auto& [name, value] : pseudo) put_entry(out, name, value);
  for (const auto& [name, value] : headers.items())
    put_entry(out, name, value);
  return buf::Chain(buf::Bytes(std::move(out)));
}

/// Reads one [u16 len][bytes] field at `pos`, advancing past it; false if
/// truncated.
bool read_field(std::string_view text, std::size_t& pos,
                std::string_view& out) {
  if (text.size() - pos < 2) return false;
  const std::size_t len =
      (static_cast<std::size_t>(static_cast<std::uint8_t>(text[pos])) << 8) |
      static_cast<std::uint8_t>(text[pos + 1]);
  pos += 2;
  if (text.size() - pos < len) return false;
  out = text.substr(pos, len);
  pos += len;
  return true;
}

/// Decodes a block's entries, handing pseudo-headers (":name") to
/// `on_pseudo` and adding the rest to `headers` in order. False on a
/// truncated entry or when `on_pseudo` rejects one.
template <typename OnPseudo>
bool decode_block(const buf::Chain& block, http::Headers& headers,
                  OnPseudo&& on_pseudo) {
  // Zero-copy for a one-node block; one flattening copy otherwise.
  const buf::Bytes flat = block.to_bytes();
  const std::string_view text = flat.view();
  std::string_view name, value;
  // The first pass rejects truncation before anything is decoded and sizes
  // the header list.
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < text.size(); ++count) {
    if (!read_field(text, pos, name) || !read_field(text, pos, value))
      return false;
  }
  headers.reserve(count);
  for (std::size_t pos = 0; pos < text.size();) {
    read_field(text, pos, name);
    read_field(text, pos, value);
    if (!name.empty() && name[0] == ':') {
      if (!on_pseudo(name, value)) return false;
    } else {
      headers.add(std::string(name), std::string(value));
    }
  }
  return true;
}

}  // namespace

std::string_view to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kGoAway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
  }
  return "?";
}

bool is_known_frame_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kData:
    case FrameType::kHeaders:
    case FrameType::kRstStream:
    case FrameType::kSettings:
    case FrameType::kPushPromise:
    case FrameType::kGoAway:
    case FrameType::kWindowUpdate:
      return true;
  }
  return false;
}

std::string_view to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kNoError: return "NO_ERROR";
    case ErrorCode::kProtocolError: return "PROTOCOL_ERROR";
    case ErrorCode::kInternalError: return "INTERNAL_ERROR";
    case ErrorCode::kFlowControlError: return "FLOW_CONTROL_ERROR";
    case ErrorCode::kFrameSizeError: return "FRAME_SIZE_ERROR";
    case ErrorCode::kRefusedStream: return "REFUSED_STREAM";
    case ErrorCode::kCancel: return "CANCEL";
  }
  return "?";
}

buf::Chain encode_frame(const Frame& frame) {
  std::array<std::uint8_t, kFrameHeaderSize> hdr{};
  const std::size_t len = frame.payload.size();
  hdr[0] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  hdr[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  hdr[2] = static_cast<std::uint8_t>(len & 0xFF);
  hdr[3] = static_cast<std::uint8_t>(frame.type);
  hdr[4] = frame.flags;
  hdr[5] = static_cast<std::uint8_t>((frame.stream_id >> 24) & 0x7F);
  hdr[6] = static_cast<std::uint8_t>((frame.stream_id >> 16) & 0xFF);
  hdr[7] = static_cast<std::uint8_t>((frame.stream_id >> 8) & 0xFF);
  hdr[8] = static_cast<std::uint8_t>(frame.stream_id & 0xFF);
  // An exactly sized header block and one node array for the whole frame.
  buf::Chain out;
  out.reserve_nodes(1 + frame.payload.node_count());
  out.append(buf::Bytes(std::span<const std::uint8_t>(hdr.data(), hdr.size())));
  out.append(frame.payload);
  return out;
}

buf::Chain encode_settings_payload(const std::vector<Setting>& settings) {
  std::vector<std::uint8_t> out;
  out.reserve(settings.size() * 6);
  for (const Setting& s : settings) {
    put_u16(out, s.id);
    put_u32(out, s.value);
  }
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::vector<Setting>> parse_settings_payload(
    const buf::Chain& payload) {
  if (payload.size() % 6 != 0) return std::nullopt;
  std::vector<Setting> out;
  for (std::size_t pos = 0; pos < payload.size(); pos += 6) {
    std::array<std::uint8_t, 2> id{};
    payload.copy_to(pos, id);
    out.push_back(Setting{
        static_cast<std::uint16_t>((static_cast<std::uint16_t>(id[0]) << 8) |
                                   id[1]),
        read_u32(payload, pos + 2)});
  }
  return out;
}

buf::Chain encode_window_update_payload(std::uint32_t increment) {
  std::vector<std::uint8_t> out;
  put_u32(out, increment & 0x7FFFFFFF);
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::uint32_t> parse_window_update_payload(
    const buf::Chain& payload) {
  if (payload.size() != 4) return std::nullopt;
  return read_u32(payload, 0) & 0x7FFFFFFF;
}

buf::Chain encode_rst_payload(ErrorCode code) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(code));
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::uint32_t> parse_rst_payload(const buf::Chain& payload) {
  if (payload.size() != 4) return std::nullopt;
  return read_u32(payload, 0);
}

buf::Chain encode_goaway_payload(const GoAway& g) {
  std::vector<std::uint8_t> out;
  put_u32(out, g.last_stream_id & 0x7FFFFFFF);
  put_u32(out, g.error_code);
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<GoAway> parse_goaway_payload(const buf::Chain& payload) {
  if (payload.size() < 8) return std::nullopt;
  GoAway g;
  g.last_stream_id = read_u32(payload, 0) & 0x7FFFFFFF;
  g.error_code = read_u32(payload, 4);
  return g;
}

buf::Chain encode_request_block(const http::Request& req) {
  return encode_block(
      {{":method", http::to_string(req.method)}, {":path", req.target}},
      req.headers);
}

buf::Chain encode_response_block(const http::Response& res) {
  const std::string status = std::to_string(res.status);
  return encode_block({{":status", status}}, res.headers);
}

std::optional<http::Request> decode_request_block(const buf::Chain& block) {
  http::Request req;
  req.version = http::Version::kHttp11;
  bool saw_method = false, saw_path = false;
  const bool ok = decode_block(
      block, req.headers, [&](std::string_view name, std::string_view value) {
        if (name == ":method") {
          auto m = http::parse_method(value);
          if (!m) return false;
          req.method = *m;
          saw_method = true;
        } else if (name == ":path") {
          req.target = value;
          saw_path = true;
        } else {
          return false;  // unknown pseudo-header
        }
        return true;
      });
  if (!ok || !saw_method || !saw_path) return std::nullopt;
  return req;
}

std::optional<http::Response> decode_response_block(const buf::Chain& block) {
  http::Response res;
  res.version = http::Version::kHttp11;
  bool saw_status = false;
  const bool ok = decode_block(
      block, res.headers, [&](std::string_view name, std::string_view value) {
        if (name != ":status") return false;
        int status = 0;
        for (char ch : value) {
          if (ch < '0' || ch > '9') return false;
          status = status * 10 + (ch - '0');
        }
        if (status < 100 || status > 599) return false;
        res.status = status;
        res.reason = std::string(http::default_reason(status));
        saw_status = true;
        return true;
      });
  if (!ok || !saw_status) return std::nullopt;
  return res;
}

buf::Chain encode_push_promise_payload(std::uint32_t promised_id,
                                       const http::Request& req) {
  std::vector<std::uint8_t> out;
  put_u32(out, promised_id & 0x7FFFFFFF);
  buf::Chain payload(buf::Bytes(std::move(out)));
  payload.append(encode_request_block(req));
  return payload;
}

std::optional<PushPromise> parse_push_promise_payload(
    const buf::Chain& payload) {
  if (payload.size() < 4) return std::nullopt;
  PushPromise p;
  p.promised_id = read_u32(payload, 0) & 0x7FFFFFFF;
  auto req = decode_request_block(payload.slice(4));
  if (!req) return std::nullopt;
  p.request = std::move(*req);
  return p;
}

void FrameDecoder::fail(ErrorCode code, std::string message) {
  error_ = DecodeError{code, std::move(message)};
  pending_.reset();
  input_.clear();
}

std::optional<Frame> FrameDecoder::next() {
  if (error_) return std::nullopt;
  if (!pending_) {
    if (input_.size() < kFrameHeaderSize) return std::nullopt;
    std::array<std::uint8_t, kFrameHeaderSize> hdr{};
    input_.copy_to(0, hdr);
    const std::size_t length = (static_cast<std::size_t>(hdr[0]) << 16) |
                               (static_cast<std::size_t>(hdr[1]) << 8) |
                               hdr[2];
    const std::uint8_t raw_type = hdr[3];
    const std::uint8_t flags = hdr[4];
    const std::uint32_t stream_id =
        ((static_cast<std::uint32_t>(hdr[5]) & 0x7F) << 24) |
        (static_cast<std::uint32_t>(hdr[6]) << 16) |
        (static_cast<std::uint32_t>(hdr[7]) << 8) |
        static_cast<std::uint32_t>(hdr[8]);
    if (!is_known_frame_type(raw_type)) {
      fail(ErrorCode::kProtocolError,
           "unknown frame type " + std::to_string(raw_type));
      return std::nullopt;
    }
    const FrameType type = static_cast<FrameType>(raw_type);
    if (length > max_frame_size_) {
      fail(ErrorCode::kFrameSizeError,
           std::string(to_string(type)) + " length " + std::to_string(length) +
               " exceeds max frame size " + std::to_string(max_frame_size_));
      return std::nullopt;
    }
    // Scope checks: stream frames must not land on the connection stream and
    // connection frames must not land on a stream.
    switch (type) {
      case FrameType::kData:
      case FrameType::kHeaders:
      case FrameType::kRstStream:
      case FrameType::kPushPromise:
        if (stream_id == 0) {
          fail(ErrorCode::kProtocolError,
               std::string(to_string(type)) + " on stream 0");
          return std::nullopt;
        }
        break;
      case FrameType::kSettings:
      case FrameType::kGoAway:
        if (stream_id != 0) {
          fail(ErrorCode::kProtocolError,
               std::string(to_string(type)) + " on stream " +
                   std::to_string(stream_id));
          return std::nullopt;
        }
        break;
      case FrameType::kWindowUpdate:
        break;  // valid on both scopes
    }
    // Fixed-size payload checks are attributable from the header alone.
    if (type == FrameType::kRstStream && length != 4) {
      fail(ErrorCode::kFrameSizeError, "RST_STREAM length != 4");
      return std::nullopt;
    }
    if (type == FrameType::kWindowUpdate && length != 4) {
      fail(ErrorCode::kFrameSizeError, "WINDOW_UPDATE length != 4");
      return std::nullopt;
    }
    if (type == FrameType::kSettings && length % 6 != 0) {
      fail(ErrorCode::kFrameSizeError, "SETTINGS length not a multiple of 6");
      return std::nullopt;
    }
    if (type == FrameType::kGoAway && length < 8) {
      fail(ErrorCode::kFrameSizeError, "GOAWAY length < 8");
      return std::nullopt;
    }
    if (type == FrameType::kPushPromise && length < 4) {
      fail(ErrorCode::kFrameSizeError, "PUSH_PROMISE length < 4");
      return std::nullopt;
    }
    Frame f;
    f.type = type;
    f.flags = flags;
    f.stream_id = stream_id;
    pending_ = std::move(f);
    pending_length_ = length;
    input_.pop_front(kFrameHeaderSize);
  }
  if (input_.size() < pending_length_) return std::nullopt;
  Frame out = std::move(*pending_);
  pending_.reset();
  out.payload = input_.split_front(pending_length_);
  return out;
}

}  // namespace hsim::h2
