// Shows the trace/analysis API: runs one pipelined first visit over the WAN,
// prints the opening of the tcpdump-style listing, packet-train statistics
// and an xplot-style time/sequence excerpt — the paper's own tooling
// (tcpdump, xplot) recreated against the simulator.
#include <cstdio>

#include "harness/experiment.hpp"

int main() {
  using namespace hsim;
  const content::MicroscapeSite& site = harness::shared_site();

  sim::EventQueue queue;
  sim::Rng rng(7);
  net::Channel channel(queue, harness::wan_profile().channel_config(),
                       rng.fork());
  tcp::Host client_host(queue, 1, "client", rng.fork());
  tcp::Host server_host(queue, 2, "server", rng.fork());
  channel.attach_a(&client_host);
  channel.attach_b(&server_host);
  client_host.attach_uplink(&channel.uplink_from_a());
  server_host.attach_uplink(&channel.uplink_from_b());
  net::PacketTrace trace(1);
  channel.set_trace(&trace);

  server::HttpServer server(server_host,
                            harness::server_site(site),
                            server::jigsaw_config(), rng.fork());
  server.start(80);
  client::Robot robot(
      client_host, 2, 80,
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  robot.start_first_visit("/index.html", [] {});
  queue.run_until(sim::seconds(120));

  std::printf("First 30 packets of the pipelined first visit (WAN):\n%s\n",
              trace.to_text(30).c_str());

  const net::TraceSummary s = trace.summarize();
  std::printf("Summary: %llu packets, %llu wire bytes, mean packet %.0f "
              "bytes, overhead %.1f%%\n",
              static_cast<unsigned long long>(s.packets),
              static_cast<unsigned long long>(s.wire_bytes),
              s.mean_packet_size, s.overhead_percent);
  std::printf("Connections in trace: %zu, mean packet train %.1f packets\n\n",
              trace.connection_count(), trace.mean_packet_train_length());

  const std::string ts = trace.to_time_sequence(/*client_to_server=*/false);
  std::printf("xplot-style time/sequence data (server->client), first 10 "
              "lines:\n");
  std::size_t printed = 0, pos = 0;
  while (printed < 10 && pos < ts.size()) {
    const std::size_t eol = ts.find('\n', pos);
    if (eol == std::string::npos) break;
    std::printf("  %s\n", ts.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++printed;
  }
  return 0;
}
