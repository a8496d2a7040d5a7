#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <vector>

#include "buf/bytes.hpp"
#include "deflate/inflate.hpp"
#include "h2/frame.hpp"
#include "http/date.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "server/static_site.hpp"

namespace perfbench {

using namespace hsim;

namespace {

constexpr std::size_t kMss = 1460;

struct Page {
  std::vector<http::Response> responses;  // document order: html, images
  std::vector<std::size_t> body_sizes;
};

// The page as the server answers a first visit: 200s with the same header
// set server::HttpServer emits (bodies share the site's asset blocks).
Page build_page(const server::StaticSite& static_site,
                const content::MicroscapeSite& site) {
  std::vector<std::string> paths = {"/index.html"};
  for (const content::SiteImage& img : site.images) paths.push_back(img.path);
  Page page;
  for (const std::string& path : paths) {
    const server::Resource* res = static_site.find(path);
    http::Response r;
    r.headers.add("Date", http::format_http_date(http::kSimulationEpoch));
    r.headers.add("Server", "perfbench");
    r.headers.add("Content-Type", res->content_type);
    r.headers.add("ETag", res->etag);
    r.headers.add("Last-Modified", http::format_http_date(res->last_modified));
    r.headers.add("Content-Length", std::to_string(res->data.size()));
    r.body.append(res->data);
    page.body_sizes.push_back(res->data.size());
    page.responses.push_back(std::move(r));
  }
  return page;
}

template <typename Fn>
ReplayResult repeat(double min_seconds, Fn&& one_page) {
  ReplayResult out;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    out.error = one_page(out.pages == 0);
    ++out.pages;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (out.error.empty() && elapsed < min_seconds);
  out.us_per_page = elapsed * 1e6 / out.pages;
  return out;
}

}  // namespace

ReplayResult replay_http_parse(const content::MicroscapeSite& site,
                               double min_seconds) {
  const server::StaticSite static_site =
      server::StaticSite::from_microscape(site);
  const Page page = build_page(static_site, site);
  std::vector<std::uint8_t> wire;
  for (const http::Response& r : page.responses) {
    const std::vector<std::uint8_t> bytes = r.serialize();
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  return repeat(min_seconds, [&](bool verify) -> std::string {
    http::ResponseParser parser;
    for (std::size_t i = 0; i < page.responses.size(); ++i) {
      parser.push_request_context(http::Method::kGet);
    }
    std::size_t parsed = 0;
    for (std::size_t off = 0; off < wire.size(); off += kMss) {
      const std::size_t n = std::min(kMss, wire.size() - off);
      parser.feed(std::span<const std::uint8_t>(wire.data() + off, n));
      while (std::optional<http::Response> r = parser.next()) {
        if (parsed >= page.responses.size() ||
            r->body.size() != page.body_sizes[parsed]) {
          return "http replay: response " + std::to_string(parsed) +
                 " has the wrong body size";
        }
        if (verify && !(r->body == page.responses[parsed].body)) {
          return "http replay: response " + std::to_string(parsed) +
                 " body differs";
        }
        ++parsed;
      }
    }
    if (parser.failed() || parsed != page.responses.size()) {
      return "http replay: parsed " + std::to_string(parsed) + " of " +
             std::to_string(page.responses.size()) + " responses";
    }
    return {};
  });
}

ReplayResult replay_h2_codec(const content::MicroscapeSite& site,
                             double min_seconds) {
  const server::StaticSite static_site =
      server::StaticSite::from_microscape(site);
  const Page page = build_page(static_site, site);
  return repeat(min_seconds, [&](bool verify) -> std::string {
    // Encode: one stream per response (odd ids, as client-initiated),
    // HEADERS then DATA frames of at most the default max frame size.
    buf::Chain wire;
    std::size_t frames_sent = 0;
    for (std::size_t i = 0; i < page.responses.size(); ++i) {
      const http::Response& r = page.responses[i];
      const auto stream = static_cast<std::uint32_t>(2 * i + 1);
      h2::Frame headers;
      headers.type = h2::FrameType::kHeaders;
      headers.flags = h2::kFlagEndHeaders;
      headers.stream_id = stream;
      headers.payload = h2::encode_response_block(r);
      wire.append(h2::encode_frame(headers));
      ++frames_sent;
      std::size_t off = 0;
      do {
        const std::size_t n =
            std::min<std::size_t>(h2::kDefaultMaxFrameSize, r.body.size() - off);
        h2::Frame data;
        data.type = h2::FrameType::kData;
        data.stream_id = stream;
        data.payload = r.body.slice(off, n);
        off += n;
        if (off == r.body.size()) data.flags = h2::kFlagEndStream;
        wire.append(h2::encode_frame(data));
        ++frames_sent;
      } while (off < r.body.size());
    }
    // Decode in MSS slices and reassemble each stream's body.
    h2::FrameDecoder decoder;
    std::vector<buf::Chain> bodies(page.responses.size());
    std::size_t frames_seen = 0;
    for (std::size_t off = 0; off < wire.size(); off += kMss) {
      decoder.feed(wire.slice(off, kMss));
      while (std::optional<h2::Frame> f = decoder.next()) {
        ++frames_seen;
        const std::size_t i = (f->stream_id - 1) / 2;
        if (i >= bodies.size()) return "h2 replay: unknown stream id";
        if (f->type == h2::FrameType::kHeaders) {
          if (!h2::decode_response_block(f->payload)) {
            return "h2 replay: undecodable header block";
          }
        } else if (f->type == h2::FrameType::kData) {
          bodies[i].append(std::move(f->payload));
        }
      }
    }
    if (decoder.failed() || frames_seen != frames_sent) {
      return "h2 replay: decoded " + std::to_string(frames_seen) + " of " +
             std::to_string(frames_sent) + " frames";
    }
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      if (bodies[i].size() != page.body_sizes[i] ||
          (verify && !(bodies[i] == page.responses[i].body))) {
        return "h2 replay: stream body " + std::to_string(i) + " differs";
      }
    }
    return {};
  });
}

ReplayResult replay_inflate(const content::MicroscapeSite& site,
                            double min_seconds) {
  const server::StaticSite static_site =
      server::StaticSite::from_microscape(site);
  const server::Resource* html = static_site.find("/index.html");
  return repeat(min_seconds, [&](bool) -> std::string {
    const deflate::InflateResult r = deflate::zlib_decompress(html->deflated.span());
    if (!r.ok || r.data.size() != site.html.size() ||
        !std::equal(r.data.begin(), r.data.end(), site.html.begin())) {
      return "deflate replay: inflated HTML differs from the site";
    }
    return {};
  });
}

}  // namespace perfbench
