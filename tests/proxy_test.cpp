// Proxy tests, including the paper's Keep-Alive-through-blind-proxies trap.
#include <gtest/gtest.h>

#include "client/robot.hpp"
#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "proxy/proxy.hpp"
#include "server/server.hpp"

namespace hsim {
namespace {

constexpr net::IpAddr kClientAddr = 1;
constexpr net::IpAddr kProxyAddr = 2;
constexpr net::IpAddr kOriginAddr = 3;

/// Routes the proxy host's outgoing packets onto the right channel by
/// destination address.
struct Router : net::PacketSink {
  std::map<net::IpAddr, net::Link*> routes;
  void deliver(net::Packet p) override {
    const auto it = routes.find(p.dst);
    if (it != routes.end()) it->second->transmit(std::move(p));
  }
};

struct ProxyNet {
  explicit ProxyNet(sim::Time rtt = sim::milliseconds(20))
      : rng(31),
        client_proxy(queue, net::ChannelConfig::symmetric(0, rtt),
                     rng.fork()),
        proxy_origin(queue, net::ChannelConfig::symmetric(0, rtt),
                     rng.fork()),
        client(queue, kClientAddr, "client", rng.fork()),
        proxy_host(queue, kProxyAddr, "proxy", rng.fork()),
        origin(queue, kOriginAddr, "origin", rng.fork()),
        proxy_uplink(queue, net::LinkConfig{}, rng.fork()) {
    client_proxy.attach_a(&client);
    client_proxy.attach_b(&proxy_host);
    proxy_origin.attach_a(&proxy_host);
    proxy_origin.attach_b(&origin);
    client.attach_uplink(&client_proxy.uplink_from_a());
    origin.attach_uplink(&proxy_origin.uplink_from_b());
    router.routes[kClientAddr] = &client_proxy.uplink_from_b();
    router.routes[kOriginAddr] = &proxy_origin.uplink_from_a();
    proxy_uplink.set_sink(&router);
    proxy_host.attach_uplink(&proxy_uplink);
  }

  server::ServerConfig origin_config() {
    server::ServerConfig c = server::apache_config();
    c.per_request_cpu = sim::microseconds(500);
    c.per_connection_cpu = sim::microseconds(500);
    return c;
  }

  sim::EventQueue queue;
  sim::Rng rng;
  net::Channel client_proxy;
  net::Channel proxy_origin;
  tcp::Host client;
  tcp::Host proxy_host;
  tcp::Host origin;
  net::Link proxy_uplink;
  Router router;
};

/// Captures and parses requests crossing the proxy->origin hop.
struct UpstreamRequestTap {
  http::RequestParser parser;
  std::vector<http::Request> requests;
  void attach(net::Link& link) {
    link.set_tap([this](const net::Packet& p) {
      if (p.payload.empty()) return;
      parser.feed({p.payload.data(), p.payload.size()});
      while (auto r = parser.next()) requests.push_back(std::move(*r));
    });
  }
};

TEST(HttpProxyTest, ForwardsGetEndToEnd) {
  ProxyNet net;
  server::HttpServer origin_server(
      net.origin, harness::server_site(harness::shared_site()),
      net.origin_config(), net.rng.fork());
  origin_server.start(80);
  proxy::HttpProxyConfig pc;
  pc.origin_addr = kOriginAddr;
  proxy::HttpProxy proxy(net.proxy_host, pc);
  proxy.start(8080);

  UpstreamRequestTap tap;
  tap.attach(net.proxy_origin.uplink_from_a());

  auto conn = net.client.connect(kProxyAddr, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  std::vector<http::Response> responses;
  conn->set_on_data([&] {
    const auto b = conn->read_all().to_vector();
    parser.feed({b.data(), b.size()});
    while (auto r = parser.next()) responses.push_back(std::move(*r));
  });
  conn->set_on_connected([&] {
    conn->send(
        "GET /index.html HTTP/1.0\r\nHost: x\r\n"
        "Connection: Keep-Alive\r\nKeep-Alive: 30\r\n\r\n");
  });
  net.queue.run_until(sim::seconds(60));

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), harness::shared_site().html.size());
  EXPECT_TRUE(responses[0].headers.contains("Via"));

  // The origin-side request must have no hop-by-hop headers left.
  ASSERT_EQ(tap.requests.size(), 1u);
  EXPECT_FALSE(tap.requests[0].headers.contains("Connection"));
  EXPECT_FALSE(tap.requests[0].headers.contains("Keep-Alive"));
  EXPECT_TRUE(tap.requests[0].headers.contains("Via"));
  EXPECT_GE(proxy.stats().keep_alive_headers_stripped, 1u);
}

TEST(HttpProxyTest, SequentialRequestsOnOneClientConnection) {
  ProxyNet net;
  server::HttpServer origin_server(
      net.origin, harness::server_site(harness::shared_site()),
      net.origin_config(), net.rng.fork());
  origin_server.start(80);
  proxy::HttpProxyConfig pc;
  pc.origin_addr = kOriginAddr;
  proxy::HttpProxy proxy(net.proxy_host, pc);
  proxy.start(8080);

  auto conn = net.client.connect(kProxyAddr, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  parser.push_request_context(http::Method::kGet);
  std::vector<http::Response> responses;
  conn->set_on_data([&] {
    const auto b = conn->read_all().to_vector();
    parser.feed({b.data(), b.size()});
    while (auto r = parser.next()) responses.push_back(std::move(*r));
  });
  conn->set_on_connected([&] {
    conn->send(
        "GET /images/img00.gif HTTP/1.1\r\nHost: x\r\n\r\n"
        "GET /images/img01.gif HTTP/1.1\r\nHost: x\r\n\r\n");
  });
  net.queue.run_until(sim::seconds(60));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 200);
  // One upstream connection per request, as a 1.0 proxy behaves.
  EXPECT_EQ(proxy.stats().upstream_connections, 2u);
}

TEST(TunnelProxyTest, BlindKeepAliveForwardingHangsConnections) {
  // The paper's trap: the tunnel forwards "Connection: Keep-Alive" verbatim;
  // the origin honours it and keeps its side open; the tunnel (which only
  // closes when the origin closes) leaves the client connection dangling.
  ProxyNet net;
  server::ServerConfig oc = net.origin_config();
  oc.keep_alive = true;
  oc.idle_timeout = sim::seconds(300);  // patient origin
  server::HttpServer origin_server(
      net.origin, harness::server_site(harness::shared_site()),
      oc, net.rng.fork());
  origin_server.start(80);

  proxy::TunnelProxyConfig tc;
  tc.origin_addr = kOriginAddr;
  tc.strip_connection_headers = false;  // the blind 1996 proxy
  tc.idle_timeout = sim::seconds(120);
  proxy::TunnelProxy tunnel(net.proxy_host, tc);
  tunnel.start(8080);

  auto conn = net.client.connect(kProxyAddr, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  bool got_response = false;
  bool peer_closed = false;
  sim::Time closed_at = 0;
  conn->set_on_data([&] {
    const auto b = conn->read_all().to_vector();
    parser.feed({b.data(), b.size()});
    if (parser.next()) got_response = true;
  });
  conn->set_on_peer_fin([&] {
    peer_closed = true;
    closed_at = net.queue.now();
  });
  conn->set_on_connected([&] {
    conn->send(
        "GET /images/img00.gif HTTP/1.0\r\nHost: x\r\n"
        "Connection: Keep-Alive\r\n\r\n");
  });

  net.queue.run_until(sim::seconds(60));
  // The response arrived (framed by Content-Length)...
  EXPECT_TRUE(got_response);
  // ...but nobody closed anything: the origin waits for more requests, the
  // tunnel waits for the origin. The connection is hung.
  EXPECT_FALSE(peer_closed);
  EXPECT_GE(net.origin.open_connections(), 1u);

  // Only the tunnel's idle reaper (120 s) breaks the deadlock.
  net.queue.run_until(sim::seconds(400));
  EXPECT_EQ(tunnel.stats().idle_hangups, 1u);
}

TEST(TunnelProxyTest, StrippingConnectionHeaderAvoidsTheHang) {
  ProxyNet net;
  server::ServerConfig oc = net.origin_config();
  oc.keep_alive = true;
  server::HttpServer origin_server(
      net.origin, harness::server_site(harness::shared_site()),
      oc, net.rng.fork());
  origin_server.start(80);

  proxy::TunnelProxyConfig tc;
  tc.origin_addr = kOriginAddr;
  tc.strip_connection_headers = true;  // the minimally-aware mitigation
  proxy::TunnelProxy tunnel(net.proxy_host, tc);
  tunnel.start(8080);

  auto conn = net.client.connect(kProxyAddr, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  bool got_response = false;
  bool peer_closed = false;
  conn->set_on_data([&] {
    const auto b = conn->read_all().to_vector();
    parser.feed({b.data(), b.size()});
    if (parser.next()) got_response = true;
  });
  conn->set_on_peer_fin([&] { peer_closed = true; });
  conn->set_on_connected([&] {
    conn->send(
        "GET /images/img00.gif HTTP/1.0\r\nHost: x\r\n"
        "Connection: Keep-Alive\r\n\r\n");
  });
  net.queue.run_until(sim::seconds(60));
  // Without the forwarded Keep-Alive, the origin closes after the response,
  // the tunnel mirrors the close, and the client sees a clean end.
  EXPECT_TRUE(got_response);
  EXPECT_TRUE(peer_closed);
  EXPECT_EQ(tunnel.stats().keep_alive_headers_stripped, 1u);
  EXPECT_EQ(tunnel.stats().idle_hangups, 0u);
}

TEST(TunnelProxyTest, TwoProxyChainReproducesThePapersScenario) {
  // "a problem discovered when Keep-Alive is used with MORE THAN ONE proxy
  // between a client and a server": client -> tunnel A -> tunnel B ->
  // origin. Even if the first hop is header-aware, a blind second hop that
  // forwards Keep-Alive re-creates the hang between itself and the origin.
  sim::EventQueue queue;
  sim::Rng rng(77);
  // Hosts: client(1) - proxyA(2) - proxyB(3) - origin(4).
  net::Channel ca(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(10)),
                  rng.fork());
  net::Channel ab(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(10)),
                  rng.fork());
  net::Channel bo(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(10)),
                  rng.fork());
  tcp::Host client(queue, 1, "client", rng.fork());
  tcp::Host proxy_a(queue, 2, "proxyA", rng.fork());
  tcp::Host proxy_b(queue, 3, "proxyB", rng.fork());
  tcp::Host origin(queue, 4, "origin", rng.fork());
  net::Link a_uplink(queue, net::LinkConfig{}, rng.fork());
  net::Link b_uplink(queue, net::LinkConfig{}, rng.fork());
  Router router_a, router_b;

  ca.attach_a(&client);
  ca.attach_b(&proxy_a);
  ab.attach_a(&proxy_a);
  ab.attach_b(&proxy_b);
  bo.attach_a(&proxy_b);
  bo.attach_b(&origin);
  client.attach_uplink(&ca.uplink_from_a());
  origin.attach_uplink(&bo.uplink_from_b());
  router_a.routes[1] = &ca.uplink_from_b();
  router_a.routes[3] = &ab.uplink_from_a();
  a_uplink.set_sink(&router_a);
  proxy_a.attach_uplink(&a_uplink);
  router_b.routes[2] = &ab.uplink_from_b();
  router_b.routes[4] = &bo.uplink_from_a();
  b_uplink.set_sink(&router_b);
  proxy_b.attach_uplink(&b_uplink);

  server::ServerConfig oc = server::apache_config();
  oc.keep_alive = true;
  oc.idle_timeout = sim::seconds(300);
  server::HttpServer origin_server(
      origin, harness::server_site(harness::shared_site()), oc,
      rng.fork());
  origin_server.start(80);

  // Hop A forwards blindly toward B; hop B forwards blindly to the origin.
  proxy::TunnelProxyConfig ta;
  ta.origin_addr = 3;  // next hop: proxy B
  ta.origin_port = 8080;
  ta.idle_timeout = sim::seconds(200);
  proxy::TunnelProxy tunnel_a(proxy_a, ta);
  tunnel_a.start(8080);
  proxy::TunnelProxyConfig tb;
  tb.origin_addr = 4;
  tb.origin_port = 80;
  tb.idle_timeout = sim::seconds(200);
  proxy::TunnelProxy tunnel_b(proxy_b, tb);
  tunnel_b.start(8080);

  auto conn = client.connect(2, 8080, tcp::TcpOptions{});
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  bool got_response = false;
  bool closed = false;
  conn->set_on_data([&] {
    const auto b = conn->read_all().to_vector();
    parser.feed({b.data(), b.size()});
    if (parser.next()) got_response = true;
  });
  conn->set_on_peer_fin([&] { closed = true; });
  conn->set_on_connected([&] {
    conn->send("GET /images/img00.gif HTTP/1.0\r\nHost: x\r\n"
               "Connection: Keep-Alive\r\n\r\n");
  });
  queue.run_until(sim::seconds(60));
  EXPECT_TRUE(got_response);
  EXPECT_FALSE(closed);  // the whole chain is hung
  EXPECT_GE(origin.open_connections(), 1u);
  // Idle reapers eventually clear the chain.
  queue.run_until(sim::seconds(600));
  EXPECT_GE(tunnel_b.stats().idle_hangups + tunnel_a.stats().idle_hangups,
            1u);
}

TEST(TunnelProxyTest, PipelinedRobotWorksThroughTunnel) {
  // HTTP/1.1 needs no Keep-Alive token, so a blind tunnel is transparent to
  // it: the full pipelined first visit succeeds through the relay.
  ProxyNet net;
  server::HttpServer origin_server(
      net.origin, harness::server_site(harness::shared_site()),
      net.origin_config(), net.rng.fork());
  origin_server.start(80);
  proxy::TunnelProxyConfig tc;
  tc.origin_addr = kOriginAddr;
  proxy::TunnelProxy tunnel(net.proxy_host, tc);
  tunnel.start(8080);

  client::Robot robot(
      net.client, kProxyAddr, 8080,
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  bool done = false;
  robot.start_first_visit("/index.html", [&] { done = true; });
  net.queue.run_until(sim::seconds(120));
  EXPECT_TRUE(done);
  EXPECT_EQ(robot.stats().responses_ok, 43u);
  EXPECT_EQ(tunnel.stats().client_connections, 1u);
  EXPECT_GT(tunnel.stats().bytes_relayed_down, 150'000u);
}

}  // namespace
}  // namespace hsim
