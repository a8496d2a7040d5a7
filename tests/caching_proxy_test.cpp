// Caching-proxy tests: fresh hits, revalidated hits, client-conditional
// passthrough, and invalidation when the origin's content changes.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "proxy/proxy.hpp"
#include "server/server.hpp"

namespace hsim {
namespace {

constexpr net::IpAddr kClientAddr = 1;
constexpr net::IpAddr kProxyAddr = 2;
constexpr net::IpAddr kOriginAddr = 3;

struct Router : net::PacketSink {
  std::map<net::IpAddr, net::Link*> routes;
  void deliver(net::Packet p) override {
    if (auto it = routes.find(p.dst); it != routes.end()) {
      it->second->transmit(std::move(p));
    }
  }
};

struct CacheRig {
  explicit CacheRig(sim::Time ttl)
      : rng(41),
        cp(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(10)),
           rng.fork()),
        po(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(40)),
           rng.fork()),
        client(queue, kClientAddr, "client", rng.fork()),
        proxy_host(queue, kProxyAddr, "proxy", rng.fork()),
        origin(queue, kOriginAddr, "origin", rng.fork()),
        proxy_uplink(queue, net::LinkConfig{}, rng.fork()),
        origin_server(origin,
                      harness::server_site(harness::shared_site()),
                      server::apache_config(), rng.fork()) {
    cp.attach_a(&client);
    cp.attach_b(&proxy_host);
    po.attach_a(&proxy_host);
    po.attach_b(&origin);
    client.attach_uplink(&cp.uplink_from_a());
    origin.attach_uplink(&po.uplink_from_b());
    router.routes[kClientAddr] = &cp.uplink_from_b();
    router.routes[kOriginAddr] = &po.uplink_from_a();
    proxy_uplink.set_sink(&router);
    proxy_host.attach_uplink(&proxy_uplink);
    origin_server.start(80);

    proxy::HttpProxyConfig pc;
    pc.origin_addr = kOriginAddr;
    pc.enable_cache = true;
    pc.cache_fresh_ttl = ttl;
    proxy = std::make_unique<proxy::HttpProxy>(proxy_host, pc);
    proxy->start(8080);
  }

  /// One GET through the proxy on a fresh connection; returns the response.
  std::optional<http::Response> get(const std::string& target,
                                    const std::string& extra_header = "") {
    auto conn = client.connect(kProxyAddr, 8080, tcp::TcpOptions{});
    http::ResponseParser parser;
    parser.push_request_context(http::Method::kGet);
    std::optional<http::Response> result;
    conn->set_on_data([&, raw = conn.get()] {
      const auto b = raw->read_all().to_vector();
      parser.feed({b.data(), b.size()});
      if (auto r = parser.next()) result = std::move(*r);
    });
    conn->set_on_connected([&, raw = conn.get()] {
      std::string wire = "GET " + target + " HTTP/1.1\r\nHost: x\r\n";
      wire += extra_header;
      wire += "\r\n";
      raw->send(wire);
      raw->shutdown_send();
    });
    queue.run_until(queue.now() + sim::seconds(60));
    return result;
  }

  sim::EventQueue queue;
  sim::Rng rng;
  net::Channel cp, po;
  tcp::Host client, proxy_host, origin;
  net::Link proxy_uplink;
  Router router;
  server::HttpServer origin_server;
  std::unique_ptr<proxy::HttpProxy> proxy;
};

TEST(CachingProxyTest, SecondFetchRevalidatesInsteadOfRefetching) {
  CacheRig rig(/*ttl=*/0);  // always revalidate
  const auto first = rig.get("/images/img05.gif");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, 200);
  const std::uint64_t upstream_after_first =
      rig.proxy->stats().upstream_body_bytes;
  EXPECT_EQ(rig.proxy->stats().cache_stores, 1u);

  const auto second = rig.get("/images/img05.gif");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->body, first->body);
  // No additional entity bytes crossed the proxy->origin hop.
  EXPECT_EQ(rig.proxy->stats().upstream_body_bytes, upstream_after_first);
  EXPECT_EQ(rig.proxy->stats().cache_revalidated_hits, 1u);
  // The origin answered the revalidation with a 304.
  EXPECT_EQ(rig.origin_server.stats().responses_304, 1u);
}

TEST(CachingProxyTest, FreshTtlServesWithoutContactingOrigin) {
  CacheRig rig(/*ttl=*/sim::seconds(600));
  ASSERT_TRUE(rig.get("/images/img05.gif").has_value());
  const std::uint64_t upstream_conns =
      rig.proxy->stats().upstream_connections;
  const auto second = rig.get("/images/img05.gif");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(rig.proxy->stats().cache_fresh_hits, 1u);
  // No new upstream connection for the second fetch.
  EXPECT_EQ(rig.proxy->stats().upstream_connections, upstream_conns);
  // The served copy carries an Age header.
  EXPECT_TRUE(second->headers.contains("Age"));
}

TEST(CachingProxyTest, ClientConditionalGets304FromProxy) {
  CacheRig rig(/*ttl=*/sim::seconds(600));
  const auto first = rig.get("/images/img05.gif");
  ASSERT_TRUE(first.has_value());
  const auto etag = first->headers.get("ETag");
  ASSERT_TRUE(etag.has_value());
  const auto second = rig.get(
      "/images/img05.gif",
      "If-None-Match: " + std::string(*etag) + "\r\n");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 304);
  EXPECT_TRUE(second->body.empty());
}

TEST(CachingProxyTest, ChangedOriginContentReplacesCacheEntry) {
  CacheRig rig(/*ttl=*/0);
  const auto first = rig.get("/images/img05.gif");
  ASSERT_TRUE(first.has_value());
  // Revise the resource at the origin.
  std::vector<std::uint8_t> new_data(777, 0x3C);
  ASSERT_TRUE(rig.origin_server.site().update(
      "/images/img05.gif", new_data, http::kSimulationEpoch + 100));
  const auto second = rig.get("/images/img05.gif");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->body, new_data);
  EXPECT_EQ(rig.proxy->stats().cache_stores, 2u);  // re-stored
  // And a third fetch revalidates the new entry successfully.
  const auto third = rig.get("/images/img05.gif");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->body, new_data);
  EXPECT_EQ(rig.proxy->stats().cache_revalidated_hits, 1u);
}

TEST(CachingProxyTest, DifferentTargetsCachedIndependently) {
  CacheRig rig(/*ttl=*/sim::seconds(600));
  ASSERT_TRUE(rig.get("/images/img05.gif").has_value());
  ASSERT_TRUE(rig.get("/images/img06.gif").has_value());
  EXPECT_EQ(rig.proxy->stats().cache_stores, 2u);
  EXPECT_EQ(rig.proxy->stats().cache_misses, 2u);
  rig.get("/images/img05.gif");
  rig.get("/images/img06.gif");
  EXPECT_EQ(rig.proxy->stats().cache_fresh_hits, 2u);
}

}  // namespace
}  // namespace hsim
