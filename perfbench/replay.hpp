// Layer replays: time one module's public codec on the page a workload
// really transfers, outside the event loop, so a per-layer cost can be
// quoted in microseconds per page.
//
//   http:    the site's 43 responses, serialised as the server sends them,
//            fed through http::ResponseParser in MSS-sized slices
//   h2:      the same responses as HEADERS + DATA frames, encoded with
//            h2::encode_frame and decoded by h2::FrameDecoder in MSS slices
//   deflate: the precompressed HTML inflated with deflate::zlib_decompress
//
// Each replay checks its output against the site and reports a failure
// instead of a timing when the round trip is not exact.
#pragma once

#include <string>

#include "content/microscape.hpp"

namespace perfbench {

struct ReplayResult {
  double us_per_page = 0;  // mean host microseconds per page
  unsigned pages = 0;      // pages replayed
  std::string error;       // empty when every page round-tripped exactly
};

/// Each replay repeats the page until at least `min_seconds` have passed.
ReplayResult replay_http_parse(const hsim::content::MicroscapeSite& site,
                               double min_seconds);
ReplayResult replay_h2_codec(const hsim::content::MicroscapeSite& site,
                             double min_seconds);
ReplayResult replay_inflate(const hsim::content::MicroscapeSite& site,
                            double min_seconds);

}  // namespace perfbench
