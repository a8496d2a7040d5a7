// HTTP/1.0 and HTTP/1.1 message model: methods, versions, ordered headers
// with case-insensitive lookup, and wire serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buf/bytes.hpp"

namespace hsim::http {

enum class Version { kHttp10, kHttp11 };
std::string_view to_string(Version v);

enum class Method { kGet, kHead, kPost };
std::string_view to_string(Method m);
std::optional<Method> parse_method(std::string_view s);

/// Ordered header collection. HTTP header names are case-insensitive; order
/// is preserved for faithful byte counts on the wire.
class Headers {
 public:
  void add(std::string name, std::string value);
  /// Replaces an existing header (first occurrence) or adds.
  void set(std::string name, std::string value);
  void remove(std::string_view name);
  std::optional<std::string_view> get(std::string_view name) const;
  bool contains(std::string_view name) const { return get(name).has_value(); }

  /// True if the (comma-separated) value of `name` contains `token`,
  /// case-insensitively — e.g. has_token("Connection", "keep-alive").
  bool has_token(std::string_view name, std::string_view token) const;

  const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }
  std::size_t size() const { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() { items_.clear(); }

  /// Bytes these headers occupy on the wire (incl. per-line CRLF, excl. the
  /// blank line).
  std::size_t wire_size() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Case-insensitive ASCII comparison (header names, tokens).
bool iequals(std::string_view a, std::string_view b);

struct Request {
  Method method = Method::kGet;
  std::string target = "/";
  Version version = Version::kHttp11;
  Headers headers;
  std::vector<std::uint8_t> body;

  /// Serializes start line + headers + blank line + body.
  std::vector<std::uint8_t> serialize() const;
  std::size_t wire_size() const;
};

struct Response {
  Version version = Version::kHttp11;
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  // Shared slices of the origin bytes (a static_site asset on the server,
  // arrived TCP segments on the client) — copying a Response never copies
  // its payload.
  buf::Chain body;

  std::vector<std::uint8_t> serialize() const;
  /// Wire form as head-bytes + shared body slices: serializing a response
  /// copies only the start line and headers, never the body.
  buf::Chain serialize_chain() const;
  std::size_t wire_size() const;

  /// True for statuses that never carry a body (1xx, 204, 304).
  bool status_forbids_body() const {
    return (status >= 100 && status < 200) || status == 204 || status == 304;
  }
};

std::string_view default_reason(int status);

}  // namespace hsim::http
