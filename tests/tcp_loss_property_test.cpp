// Property sweep: TCP must deliver byte streams reliably and in order under
// any combination of loss rate, direction, transfer size and MSS — and the
// full HTTP stack must complete its workload over lossy links.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "tcp_test_util.hpp"

namespace hsim {
namespace {

using namespace testutil;
using tcp::ConnectionPtr;
using tcp::TcpOptions;

struct LossCase {
  double drop_up;    // client -> server
  double drop_down;  // server -> client
  std::size_t transfer;
  std::uint32_t mss;
  std::uint64_t seed;
};

class TcpLossProperty : public ::testing::TestWithParam<int> {};

TEST_P(TcpLossProperty, ReliableDeliveryUnderLoss) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1543 + 17);
  LossCase c;
  c.drop_up = rng.uniform_real(0.0, 0.12);
  c.drop_down = rng.uniform_real(0.0, 0.12);
  c.transfer = static_cast<std::size_t>(rng.uniform(1, 150'000));
  c.mss = rng.chance(0.3) ? 536 : 1460;
  c.seed = rng.next_u64();

  net::ChannelConfig cfg =
      net::ChannelConfig::symmetric(2'000'000, sim::milliseconds(30));
  cfg.a_to_b.random_drop_probability = c.drop_up;
  cfg.b_to_a.random_drop_probability = c.drop_down;
  TestNet net(cfg, c.seed);

  std::vector<std::uint8_t> received;
  net.server.listen(
      80,
      [&](ConnectionPtr conn) {
        conn->set_on_data([&received, raw = conn.get()] {
          auto b = raw->read_all().to_vector();
          received.insert(received.end(), b.begin(), b.end());
        });
      },
      TcpOptions{});

  TcpOptions copts;
  copts.mss = c.mss;
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, copts);
  const auto payload = pattern_bytes(c.transfer, c.seed ^ 0xBEEF);
  std::size_t off = 0;
  auto pump = [&] {
    off += conn->send(std::span<const std::uint8_t>(payload.data() + off,
                                                    payload.size() - off));
  };
  conn->set_on_connected(pump);
  conn->set_on_send_space(pump);
  net.queue.run_until(sim::seconds(1200));
  ASSERT_EQ(received.size(), payload.size())
      << "drop_up=" << c.drop_up << " drop_down=" << c.drop_down
      << " mss=" << c.mss;
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TcpLossProperty, ::testing::Range(0, 16));

class HttpOverLossProperty : public ::testing::TestWithParam<int> {};

TEST_P(HttpOverLossProperty, PipelinedVisitCompletesOverLossyWan) {
  const double drop = 0.005 + 0.005 * GetParam();  // 0.5% .. 2.5%
  harness::ExperimentSpec spec;
  spec.network = harness::wan_profile();
  spec.network.delay_jitter = 0.05;
  auto cfg = spec.network.channel_config();
  // run_once builds its own channel from the profile; emulate loss by
  // driving the rig manually here instead.
  sim::EventQueue queue;
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 5);
  cfg.a_to_b.random_drop_probability = drop;
  cfg.b_to_a.random_drop_probability = drop;
  net::Channel channel(queue, cfg, rng.fork());
  tcp::Host client_host(queue, 1, "c", rng.fork());
  tcp::Host server_host(queue, 2, "s", rng.fork());
  channel.attach_a(&client_host);
  channel.attach_b(&server_host);
  client_host.attach_uplink(&channel.uplink_from_a());
  server_host.attach_uplink(&channel.uplink_from_b());
  server::HttpServer server(
      server_host, harness::server_site(harness::shared_site()),
      server::apache_config(), rng.fork());
  server.start(80);
  client::Robot robot(
      client_host, 2, 80,
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  bool done = false;
  robot.start_first_visit("/index.html", [&] { done = true; });
  queue.run_until(sim::seconds(1200));
  EXPECT_TRUE(done) << "drop=" << drop;
  EXPECT_EQ(robot.stats().responses_ok, 43u) << "drop=" << drop;
  EXPECT_EQ(robot.stats().body_bytes,
            harness::shared_site().html.size() +
                harness::shared_site().total_image_bytes());
}

INSTANTIATE_TEST_SUITE_P(Sweep, HttpOverLossProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace hsim
