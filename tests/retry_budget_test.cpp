// Anti-storm recovery: retry budgets, seeded backoff jitter, Retry-After,
// and the proxy's upstream circuit breaker.
//
// Budget properties (seed sweep over a 5xx storm):
//   - the token bucket is never overdrawn: consumed <= refunded + budget
//   - refunds are bounded by successes (a token comes back only on a
//     successful response)
//   - exhaustion is always attributed: every retry refused on an empty
//     bucket fails its request with FailureKind::kRetryBudgetExhausted
//   - at the same seed, a budgeted client never re-issues more than an
//     unbudgeted one
//
// Retry-After: a 503 carrying the server's overload hint delays the
// re-issue beyond the client's own backoff, and the client still completes.
//
// Circuit breaker: consecutive upstream failures trip it open, requests are
// answered locally with `503 Retry-After`, a half-open probe re-tests the
// origin after open_duration, and a probe success closes it again.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "harness/chaos.hpp"
#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "proxy/proxy.hpp"
#include "server/server.hpp"

namespace hsim {
namespace {

// ---------------------------------------------------------------------------
// Retry-budget properties under a 5xx storm
// ---------------------------------------------------------------------------

harness::ExperimentSpec storm_spec(std::uint64_t seed, unsigned budget) {
  harness::ExperimentSpec spec;
  spec.network = harness::lan_profile();
  spec.client = harness::robot_config(client::ProtocolMode::kHttp10Parallel);
  spec.seed = seed;
  spec.server.faults.error_probability = 0.5;
  spec.client.max_attempts = 10;
  spec.client.retry_backoff = sim::milliseconds(50);
  spec.client.retry_server_errors = true;
  spec.client.request_deadline = sim::seconds(5);
  spec.client.page_deadline = sim::seconds(120);
  spec.client.retry_budget = budget;
  spec.client.retry_jitter = budget > 0 ? 0.5 : 0.0;
  spec.client.retry_jitter_seed = seed * 977 + 1;
  return spec;
}

std::size_t exhaustion_attributions(const client::RobotStats& stats) {
  std::size_t n = 0;
  for (const client::RequestFailure& f : stats.failures) {
    if (f.kind == client::FailureKind::kRetryBudgetExhausted) ++n;
  }
  return n;
}

TEST(RetryBudget, TokenBucketPropertiesHoldAcrossSeeds) {
  constexpr unsigned kBudget = 2;
  const content::MicroscapeSite& site = harness::shared_site();
  std::uint64_t total_exhausted = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const harness::RunResult budgeted =
        harness::run_once(storm_spec(seed, kBudget), site);
    const client::RobotStats& stats = budgeted.robot;

    // Never overdrawn: every consumed token was either part of the initial
    // budget or came back as a refund.
    EXPECT_LE(stats.retry_tokens_consumed,
              stats.retry_tokens_refunded + kBudget)
        << "seed " << seed;
    // Refunds only on success.
    EXPECT_LE(stats.retry_tokens_refunded,
              stats.responses_ok + stats.responses_partial +
                  stats.responses_not_modified)
        << "seed " << seed;
    // Exhaustion is always attributed, one failed request per refusal.
    EXPECT_EQ(exhaustion_attributions(stats), stats.retry_budget_exhausted)
        << "seed " << seed;
    EXPECT_EQ(stats.requests_failed, stats.failures.size()) << "seed " << seed;
    total_exhausted += stats.retry_budget_exhausted;

    // Same seed, no budget: at least as many re-issues.
    const harness::RunResult unbudgeted =
        harness::run_once(storm_spec(seed, 0), site);
    EXPECT_EQ(unbudgeted.robot.retry_budget_exhausted, 0u);
    EXPECT_EQ(unbudgeted.robot.retry_tokens_consumed, 0u);
    EXPECT_GE(unbudgeted.robot.retries + unbudgeted.robot.responses_error,
              stats.retries + stats.retry_budget_exhausted)
        << "seed " << seed;
  }
  // The sweep is not vacuous: the budget genuinely bit somewhere.
  EXPECT_GT(total_exhausted, 0u);
}

TEST(RetryBudget, DisabledBudgetNeverRefusesOrCounts) {
  const harness::RunResult result =
      harness::run_once(storm_spec(3, /*budget=*/0), harness::shared_site());
  EXPECT_EQ(result.robot.retry_budget_exhausted, 0u);
  EXPECT_EQ(result.robot.retry_tokens_consumed, 0u);
  EXPECT_EQ(result.robot.retry_tokens_refunded, 0u);
  EXPECT_EQ(exhaustion_attributions(result.robot), 0u);
}

// ---------------------------------------------------------------------------
// Retry-After honoured on overload 503s
// ---------------------------------------------------------------------------

TEST(RetryAfter, OverloadHintDelaysReissueBeyondBackoff) {
  harness::ExperimentSpec spec;
  spec.network = harness::lan_profile();
  spec.client = harness::robot_config(client::ProtocolMode::kHttp10Parallel);
  spec.seed = 5;
  // Two serving slots for four parallel lanes: the overflow connections are
  // rejected with "503 Retry-After: 2".
  spec.server.max_concurrent_connections = 2;
  spec.server.admission_policy = server::AdmissionPolicy::kReject503;
  spec.server.overload_retry_after = sim::seconds(2);
  spec.client.max_attempts = 10;
  spec.client.retry_backoff = sim::milliseconds(100);
  spec.client.retry_server_errors = true;
  spec.client.page_deadline = sim::seconds(120);

  const harness::RunResult result =
      harness::run_once(spec, harness::shared_site());
  EXPECT_GT(result.robot.retry_after_honored, 0u);
  EXPECT_TRUE(result.robot.complete);
  // The honoured hint is visible in wall-clock: at least one 2 s wait.
  EXPECT_GT(result.seconds(), 2.0);
}

// ---------------------------------------------------------------------------
// Proxy circuit breaker
// ---------------------------------------------------------------------------

constexpr net::IpAddr kClientAddr = 1;
constexpr net::IpAddr kProxyAddr = 2;
constexpr net::IpAddr kOriginAddr = 3;

struct Fanout : net::PacketSink {
  std::map<net::IpAddr, net::Link*> routes;
  void deliver(net::Packet p) override {
    if (auto it = routes.find(p.dst); it != routes.end()) {
      it->second->transmit(std::move(p));
    }
  }
};

/// Client — proxy — origin rig where the origin's first `faulty` connections
/// die mid-response (premature close), and every later one serves cleanly.
struct BreakerRig {
  explicit BreakerRig(unsigned faulty) : BreakerRig(faulty, make_config()) {}

  BreakerRig(unsigned faulty, server::ServerConfig origin_config)
      : rng(41),
        cp(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(5)),
           rng.fork()),
        po(queue, net::ChannelConfig::symmetric(0, sim::milliseconds(20)),
           rng.fork()),
        client(queue, kClientAddr, "client", rng.fork()),
        proxy_host(queue, kProxyAddr, "proxy", rng.fork()),
        origin(queue, kOriginAddr, "origin", rng.fork()),
        proxy_uplink(queue, net::LinkConfig{}, rng.fork()),
        origin_server(origin,
                      harness::server_site(harness::shared_site()),
                      with_faults(origin_config, faulty), rng.fork()) {
    cp.attach_a(&client);
    cp.attach_b(&proxy_host);
    po.attach_a(&proxy_host);
    po.attach_b(&origin);
    client.attach_uplink(&cp.uplink_from_a());
    origin.attach_uplink(&po.uplink_from_b());
    fanout.routes[kClientAddr] = &cp.uplink_from_b();
    fanout.routes[kOriginAddr] = &po.uplink_from_a();
    proxy_uplink.set_sink(&fanout);
    proxy_host.attach_uplink(&proxy_uplink);
    origin_server.start(80);

    proxy::HttpProxyConfig pc;
    pc.origin_addr = kOriginAddr;
    pc.breaker.enabled = true;
    pc.breaker.failure_threshold = 2;
    pc.breaker.open_duration = sim::seconds(5);
    pc.breaker.retry_after = sim::seconds(3);
    proxy = std::make_unique<proxy::HttpProxy>(proxy_host, pc);
    proxy->start(8080);
  }

  static server::ServerConfig make_config() { return server::apache_config(); }

  static server::ServerConfig with_faults(server::ServerConfig config,
                                          unsigned faulty) {
    config.faults.premature_close_after_bytes = faulty > 0 ? 1 : 0;
    config.faults.faulty_connection_limit = faulty;
    return config;
  }

  /// One GET through the proxy on a fresh connection.
  std::optional<http::Response> get(const std::string& target) {
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
      raw->send("GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n");
      raw->shutdown_send();
    });
    // Short window: requests resolve in well under a second here, and the
    // window must stay below breaker.open_duration so consecutive gets
    // observe the open state rather than racing the half-open transition.
    queue.run_until(queue.now() + sim::seconds(2));
    return result;
  }

  void wait(sim::Time dt) { queue.run_until(queue.now() + dt); }

  sim::EventQueue queue;
  sim::Rng rng;
  net::Channel cp, po;
  tcp::Host client, proxy_host, origin;
  net::Link proxy_uplink;
  Fanout fanout;
  server::HttpServer origin_server;
  std::unique_ptr<proxy::HttpProxy> proxy;
};

TEST(CircuitBreaker, TripsRejectsProbesAndRecovers) {
  // Origin connections 1-3 die mid-response; 4+ serve cleanly.
  BreakerRig rig(/*faulty=*/3);

  // Failures 1 and 2 trip the breaker (threshold 2).
  auto r1 = rig.get("/index.html");
  EXPECT_FALSE(r1.has_value() && r1->status == 200);
  auto r2 = rig.get("/index.html");
  EXPECT_FALSE(r2.has_value() && r2->status == 200);
  EXPECT_EQ(rig.proxy->stats().breaker_trips, 1u);

  // Open: answered locally with 503 + Retry-After, no upstream contact.
  const std::uint64_t upstream_before = rig.proxy->stats().upstream_connections;
  const auto rejected = rig.get("/index.html");
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, 503);
  const auto retry_after = rejected->headers.get("Retry-After");
  ASSERT_TRUE(retry_after.has_value());
  EXPECT_EQ(*retry_after, "3");
  EXPECT_EQ(rig.proxy->stats().upstream_connections, upstream_before);
  EXPECT_EQ(rig.proxy->stats().breaker_rejections, 1u);

  // After open_duration: the half-open probe goes upstream, hits the last
  // faulty connection, and the breaker reopens.
  rig.wait(sim::seconds(6));
  const auto probe_fail = rig.get("/index.html");
  EXPECT_FALSE(probe_fail.has_value() && probe_fail->status == 200);
  EXPECT_EQ(rig.proxy->stats().breaker_probes, 1u);
  EXPECT_EQ(rig.proxy->stats().breaker_trips, 2u);

  // Next open_duration: the probe succeeds (faulty budget spent) and the
  // breaker closes — traffic flows again.
  rig.wait(sim::seconds(6));
  const auto probe_ok = rig.get("/index.html");
  ASSERT_TRUE(probe_ok.has_value());
  EXPECT_EQ(probe_ok->status, 200);
  EXPECT_EQ(rig.proxy->stats().breaker_probes, 2u);

  const auto after = rig.get("/images/img05.gif");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(rig.proxy->stats().breaker_trips, 2u);
  EXPECT_EQ(rig.proxy->stats().breaker_rejections, 1u);
}

TEST(CircuitBreaker, DisabledBreakerNeverIntervenes) {
  BreakerRig rig(/*faulty=*/0, [] {
    return BreakerRig::make_config();
  }());
  rig.proxy.reset();  // rebuild without breaker
  proxy::HttpProxyConfig pc;
  pc.origin_addr = kOriginAddr;
  rig.proxy = std::make_unique<proxy::HttpProxy>(rig.proxy_host, pc);
  rig.proxy->start(8080);

  const auto ok = rig.get("/index.html");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(rig.proxy->stats().breaker_trips, 0u);
  EXPECT_EQ(rig.proxy->stats().breaker_rejections, 0u);
  EXPECT_EQ(rig.proxy->stats().breaker_probes, 0u);
}

}  // namespace
}  // namespace hsim
