// Walks through the cache-revalidation flow in detail: a first visit
// populates the client cache with validators; a revalidation visit turns 43
// GETs into 43 conditional GETs answered by tiny 304s; the packet trace of
// the revalidation is printed tcpdump-style.
#include <cstdio>

#include "harness/experiment.hpp"

int main() {
  using namespace hsim;
  const content::MicroscapeSite& site = harness::shared_site();

  sim::EventQueue queue;
  sim::Rng rng(2024);
  const harness::NetworkProfile network = harness::wan_profile();
  net::Channel channel(queue, network.channel_config(), rng.fork());
  tcp::Host client_host(queue, 1, "client", rng.fork());
  tcp::Host server_host(queue, 2, "server", rng.fork());
  channel.attach_a(&client_host);
  channel.attach_b(&server_host);
  client_host.attach_uplink(&channel.uplink_from_a());
  server_host.attach_uplink(&channel.uplink_from_b());

  server::HttpServer server(server_host,
                            harness::server_site(site),
                            server::apache_config(), rng.fork());
  server.start(80);

  client::ClientConfig config =
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  client::Robot robot(client_host, 2, 80, config);

  std::printf("First visit (populates the cache)...\n");
  robot.start_first_visit("/index.html", [] {});
  queue.run_until(sim::seconds(120));
  std::printf("  cache entries: %zu, bytes fetched: %llu, elapsed %.2fs\n\n",
              robot.cache().size(),
              static_cast<unsigned long long>(robot.stats().body_bytes),
              robot.stats().elapsed_seconds());

  const client::CacheEntry* html = robot.cache().find("/index.html");
  if (html != nullptr) {
    std::printf("Cached /index.html validators: ETag %s, Last-Modified %s\n\n",
                html->etag.c_str(),
                http::format_http_date(html->last_modified).c_str());
  }

  // Trace only the revalidation.
  net::PacketTrace trace(1);
  channel.set_trace(&trace);
  std::printf("Revalidation visit (43 conditional GETs)...\n");
  robot.start_revalidation("/index.html", [] {});
  queue.run_until(queue.now() + sim::seconds(120));

  std::printf("  304 responses: %zu, body bytes transferred: %llu, "
              "elapsed %.2fs\n",
              robot.stats().responses_not_modified,
              static_cast<unsigned long long>(robot.stats().body_bytes),
              robot.stats().elapsed_seconds());
  const net::TraceSummary s = trace.summarize();
  std::printf("  packets: %llu (%llu c->s, %llu s->c), wire bytes: %llu, "
              "overhead %.1f%%\n\n",
              static_cast<unsigned long long>(s.packets),
              static_cast<unsigned long long>(s.packets_client_to_server),
              static_cast<unsigned long long>(s.packets_server_to_client),
              static_cast<unsigned long long>(s.wire_bytes),
              s.overhead_percent);

  std::printf("tcpdump-style trace of the revalidation:\n%s",
              trace.to_text(40).c_str());
  return 0;
}
