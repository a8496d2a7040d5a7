// Demonstrates why HTTP/1.1's persistent-connection signalling differs from
// HTTP/1.0 Keep-Alive: a blind relay proxy forwards the hop-by-hop
// "Connection: Keep-Alive" header to the origin, the origin obligingly holds
// its connection open, and the relay — which only closes when the origin
// closes — leaves everything hanging (paper, "Changes to HTTP").
#include <cstdio>

#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "proxy/proxy.hpp"
#include "server/server.hpp"

namespace {
using namespace hsim;

struct Router : net::PacketSink {
  std::map<net::IpAddr, net::Link*> routes;
  void deliver(net::Packet p) override {
    if (auto it = routes.find(p.dst); it != routes.end()) {
      it->second->transmit(std::move(p));
    }
  }
};

void run(bool strip_connection_headers) {
  sim::EventQueue queue;
  sim::Rng rng(1);
  net::Channel cp(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(20)),
                  rng.fork());
  net::Channel po(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(20)),
                  rng.fork());
  tcp::Host client(queue, 1, "client", rng.fork());
  tcp::Host proxy_host(queue, 2, "proxy", rng.fork());
  tcp::Host origin(queue, 3, "origin", rng.fork());
  net::Link proxy_uplink(queue, net::LinkConfig{}, rng.fork());
  Router router;
  cp.attach_a(&client);
  cp.attach_b(&proxy_host);
  po.attach_a(&proxy_host);
  po.attach_b(&origin);
  client.attach_uplink(&cp.uplink_from_a());
  origin.attach_uplink(&po.uplink_from_b());
  router.routes[1] = &cp.uplink_from_b();
  router.routes[3] = &po.uplink_from_a();
  proxy_uplink.set_sink(&router);
  proxy_host.attach_uplink(&proxy_uplink);

  server::ServerConfig oc = server::apache_config();
  oc.keep_alive = true;
  oc.idle_timeout = sim::seconds(300);
  server::HttpServer origin_server(
      origin, harness::server_site(harness::shared_site()), oc,
      rng.fork());
  origin_server.start(80);

  proxy::TunnelProxyConfig tc;
  tc.origin_addr = 3;
  tc.strip_connection_headers = strip_connection_headers;
  tc.idle_timeout = sim::seconds(120);
  proxy::TunnelProxy tunnel(proxy_host, tc);
  tunnel.start(8080);

  auto conn = client.connect(2, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  sim::Time response_at = -1, closed_at = -1;
  conn->set_on_data([&] {
    parser.feed(conn->read_all());
    if (parser.next() && response_at < 0) response_at = queue.now();
  });
  conn->set_on_peer_fin([&] {
    closed_at = queue.now();
    conn->shutdown_send();  // well-behaved client closes its half too
  });
  conn->set_on_connected([&] {
    conn->send("GET /images/img00.gif HTTP/1.0\r\nHost: microscape\r\n"
               "Connection: Keep-Alive\r\n\r\n");
  });
  queue.run_until(sim::seconds(400));

  std::printf("%s proxy:\n",
              strip_connection_headers ? "Header-aware" : "Blind");
  std::printf("  response delivered at %.2fs\n",
              sim::to_seconds(response_at));
  if (closed_at >= 0) {
    std::printf("  connection closed at  %.2fs%s\n",
                sim::to_seconds(closed_at),
                closed_at > sim::seconds(100)
                    ? "  <-- only the proxy's 120s idle reaper saved us"
                    : "");
  } else {
    std::printf("  connection NEVER closed (still hung)\n");
  }
  std::printf("  Connection headers stripped: %llu, idle hangups: %llu\n\n",
              static_cast<unsigned long long>(
                  tunnel.stats().keep_alive_headers_stripped),
              static_cast<unsigned long long>(tunnel.stats().idle_hangups));
}

}  // namespace

int main() {
  std::printf("The HTTP/1.0 Keep-Alive-through-proxies trap\n");
  std::printf("============================================\n\n");
  std::printf(
      "A client sends \"Connection: Keep-Alive\" through a relay proxy to\n"
      "an origin that honours it. Hop-by-hop headers forwarded blindly\n"
      "deadlock the relay: the origin waits for more requests, the proxy\n"
      "waits for the origin to close.\n\n");
  run(/*strip_connection_headers=*/false);
  run(/*strip_connection_headers=*/true);
  std::printf(
      "HTTP/1.1's fix: persistence is the default, Connection is defined\n"
      "as hop-by-hop, and proxies MUST strip it and the headers it names\n"
      "(see proxy::HttpProxy::strip_hop_by_hop).\n");
  return 0;
}
