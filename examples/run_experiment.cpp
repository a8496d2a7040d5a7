// General-purpose experiment runner: compose any network / server / client /
// scenario combination from the command line and choose the output format.
//
// Usage:
//   run_experiment [--net lan|wan|ppp|mobile] [--server jigsaw|apache|apache-b2]
//                  [--mode 1.0|1.1|pipe|pipec|h2] [--scenario first|reval]
//                  [--runs N] [--seed S]
//                  [--buffer BYTES] [--flush-ms MS] [--no-explicit-flush]
//                  [--max-conns N] [--no-nodelay] [--ranges]
//                  [--cc reno|newreno|cubic|bbr]
//                  [--profile flat|NAME|FILE] [--content paper|modern|avif]
//                  [--chaos FAULT] [--format summary|tsv|trace]
//
// --chaos layers a named fault regime (see harness/chaos.hpp) onto the run
// and arms the client's recovery machinery: none, burst-loss, outage,
// link-flaps, duplication, reordering, corruption, server-stall,
// premature-close, server-errors.
//
// --profile overlays a time-varying netem link profile on the access path:
// "flat" (the identity — byte-exact with the static link), a built-in name
// (3g-drive, 4g-walk, lte-stationary, wifi-congested) or a profiles/*.netem
// file. Unset, the HSIM_PROFILE environment variable is consulted.
// --content swaps the 1997 GIF payloads for WebP-class ("modern") or
// AVIF-class ("avif") encodings of the same page.
//
// Examples:
//   run_experiment --net ppp --mode pipec --scenario first
//   run_experiment --net wan --server apache --mode pipe --format tsv
//   run_experiment --net lan --mode 1.0 --format trace | head -40
//   run_experiment --net wan --mode pipe --chaos burst-loss
//   run_experiment --net wan --mode 1.1 --chaos server-stall --format trace
//   run_experiment --net mobile --profile 3g-drive --mode pipe
//   run_experiment --net mobile --profile 4g-walk --content modern --mode h2
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/chaos.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace {

using namespace hsim;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--net lan|wan|ppp|mobile] [--server jigsaw|apache|"
               "apache-b2]\n"
               "          [--mode 1.0|1.1|pipe|pipec|h2] [--scenario first|reval]"
               "\n"
               "          [--runs N] [--seed S] [--buffer BYTES] "
               "[--flush-ms MS]\n"
               "          [--no-explicit-flush] [--max-conns N] "
               "[--no-nodelay] [--ranges]\n"
               "          [--cc reno|newreno|cubic|bbr]\n"
               "          [--profile flat|3g-drive|4g-walk|lte-stationary|"
               "wifi-congested|FILE]\n"
               "          [--content paper|modern|avif]\n"
               "          [--chaos none|burst-loss|outage|link-flaps|"
               "duplication|reordering|\n"
               "                   corruption|server-stall|premature-close|"
               "server-errors]\n"
               "          [--format summary|tsv|trace]\n",
               argv0);
  std::exit(2);
}

struct Options {
  harness::NetworkProfile network = harness::wan_profile();
  server::ServerConfig server = server::jigsaw_config();
  client::ProtocolMode mode = client::ProtocolMode::kHttp11Pipelined;
  harness::Scenario scenario = harness::Scenario::kFirstVisit;
  unsigned runs = 3;
  std::uint64_t seed = 1;
  std::string format = "summary";
  // Client overrides (SIZE_MAX / -1 = leave default).
  std::size_t buffer = SIZE_MAX;
  int flush_ms = -1;
  bool no_explicit_flush = false;
  unsigned max_conns = 0;
  bool no_nodelay = false;
  bool ranges = false;
  harness::ChaosFault chaos = harness::ChaosFault::kNone;
  bool chaos_set = false;  // "--chaos none" still arms the recovery knobs
  tcp::CcKind cc = tcp::CcKind::kReno;
  std::string profile;     // netem overlay; empty consults HSIM_PROFILE
  std::string content = "paper";
};

const content::MicroscapeSite& site_for(const Options& o) {
  if (o.content == "modern") {
    return harness::shared_modern_site(content::ModernCodec::kWebP);
  }
  if (o.content == "avif") {
    return harness::shared_modern_site(content::ModernCodec::kAvif);
  }
  return harness::shared_site();
}

harness::ChaosFault parse_fault(const std::string& v, const char* argv0) {
  if (v == "none") return harness::ChaosFault::kNone;
  for (const harness::ChaosFault fault : harness::all_chaos_faults()) {
    if (v == to_string(fault)) return fault;
  }
  usage(argv0);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--net") {
      const std::string v = need_value(i);
      if (v == "lan") o.network = harness::lan_profile();
      else if (v == "wan") o.network = harness::wan_profile();
      else if (v == "ppp") o.network = harness::ppp_profile();
      else if (v == "mobile") o.network = harness::mobile_profile();
      else usage(argv[0]);
    } else if (a == "--server") {
      const std::string v = need_value(i);
      if (v == "jigsaw") o.server = server::jigsaw_config();
      else if (v == "apache") o.server = server::apache_config();
      else if (v == "apache-b2") o.server = server::apache_beta2_config();
      else usage(argv[0]);
    } else if (a == "--mode") {
      const std::string v = need_value(i);
      if (v == "1.0") o.mode = client::ProtocolMode::kHttp10Parallel;
      else if (v == "1.1") o.mode = client::ProtocolMode::kHttp11Persistent;
      else if (v == "pipe") o.mode = client::ProtocolMode::kHttp11Pipelined;
      else if (v == "pipec")
        o.mode = client::ProtocolMode::kHttp11PipelinedCompressed;
      else if (v == "h2") o.mode = client::ProtocolMode::kH2;
      else usage(argv[0]);
    } else if (a == "--scenario") {
      const std::string v = need_value(i);
      if (v == "first") o.scenario = harness::Scenario::kFirstVisit;
      else if (v == "reval") o.scenario = harness::Scenario::kRevalidation;
      else usage(argv[0]);
    } else if (a == "--runs") {
      o.runs = static_cast<unsigned>(std::atoi(need_value(i)));
      if (o.runs == 0) usage(argv[0]);
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
    } else if (a == "--buffer") {
      o.buffer = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (a == "--flush-ms") {
      o.flush_ms = std::atoi(need_value(i));
    } else if (a == "--no-explicit-flush") {
      o.no_explicit_flush = true;
    } else if (a == "--max-conns") {
      o.max_conns = static_cast<unsigned>(std::atoi(need_value(i)));
    } else if (a == "--no-nodelay") {
      o.no_nodelay = true;
    } else if (a == "--ranges") {
      o.ranges = true;
    } else if (a == "--cc") {
      if (!tcp::parse_cc_kind(need_value(i), &o.cc)) usage(argv[0]);
    } else if (a == "--profile") {
      o.profile = need_value(i);
      try {  // fail fast on an unknown name / unparsable file
        bool flat = false;
        (void)harness::resolve_profile(o.profile, &flat);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
      }
    } else if (a == "--content") {
      o.content = need_value(i);
      if (o.content != "paper" && o.content != "modern" &&
          o.content != "avif") {
        usage(argv[0]);
      }
    } else if (a == "--chaos") {
      o.chaos = parse_fault(need_value(i), argv[0]);
      o.chaos_set = true;
    } else if (a == "--format") {
      o.format = need_value(i);
      if (o.format != "summary" && o.format != "tsv" && o.format != "trace") {
        usage(argv[0]);
      }
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

int run_trace_format(const Options& o) {
  // Single run with the full tcpdump-style trace on stdout.
  const content::MicroscapeSite& site = site_for(o);

  // Route the chaos mutations through an ExperimentSpec so the trace path
  // injects exactly what run_once would.
  harness::ExperimentSpec spec;
  spec.server = o.server;
  spec.client = harness::robot_config(o.mode);
  spec.server.tcp.cc = o.cc;
  spec.client.tcp.cc = o.cc;
  if (o.chaos_set) harness::apply_chaos(o.chaos, spec);
  net::ChannelConfig channel_config = o.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel_config);
  harness::apply_profile_overlay(o.profile, channel_config, "access");

  sim::EventQueue queue;
  sim::Rng rng(o.seed);
  net::Channel channel(queue, channel_config, rng.fork());
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
                            spec.server, rng.fork());
  server.start(80);
  client::ClientConfig config = spec.client;
  config.tcp.recv_buffer =
      std::min(config.tcp.recv_buffer, o.network.client_recv_buffer);
  config.validate_with_ranges = o.ranges;
  client::Robot robot(client_host, 2, 80, config);
  if (o.scenario == harness::Scenario::kRevalidation) {
    robot.start_first_visit("/index.html", [] {});
    queue.run_until(sim::seconds(600));
    trace.clear();
    robot.start_revalidation("/index.html", [] {});
  } else {
    robot.start_first_visit("/index.html", [] {});
  }
  queue.run_until(queue.now() + sim::seconds(600));
  std::fputs(trace.to_text().c_str(), stdout);
  const net::TraceSummary s = trace.summarize();
  std::fprintf(stderr,
               "# %llu packets, %llu wire bytes, %.1f%% overhead, "
               "%zu retransmitted, longest gap %.3fs\n",
               static_cast<unsigned long long>(s.packets),
               static_cast<unsigned long long>(s.wire_bytes),
               s.overhead_percent, trace.retransmitted_data_packets(),
               sim::to_seconds(trace.longest_quiet_gap()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.format == "trace") return run_trace_format(o);

  harness::ExperimentSpec spec;
  spec.network = o.network;
  spec.server = o.server;
  spec.client = harness::robot_config(o.mode);
  spec.scenario = o.scenario;
  spec.seed = o.seed;
  spec.profile = o.profile;
  spec.server.tcp.cc = o.cc;
  spec.client.tcp.cc = o.cc;
  if (o.buffer != SIZE_MAX) spec.client.pipeline_buffer = o.buffer;
  if (o.flush_ms >= 0) {
    spec.client.flush_timeout = sim::milliseconds(o.flush_ms);
  }
  if (o.no_explicit_flush) spec.client.explicit_first_flush = false;
  if (o.max_conns > 0) spec.client.max_connections = o.max_conns;
  if (o.no_nodelay) spec.client.nodelay = false;
  spec.client.validate_with_ranges = o.ranges;
  if (o.chaos_set) harness::apply_chaos(o.chaos, spec);

  const harness::AveragedResult r =
      harness::run_averaged(spec, site_for(o), o.runs);

  if (o.format == "tsv") {
    std::printf("network\tserver\tmode\tscenario\truns\tpackets\tbytes\t"
                "seconds\toverhead_pct\tc2s\ts2c\tconns\ttrain\tcomplete\n");
    std::printf("%s\t%s\t%s\t%s\t%u\t%.1f\t%.0f\t%.3f\t%.1f\t%.1f\t%.1f\t"
                "%.1f\t%.1f\t%d\n",
                o.network.name.c_str(), o.server.server_name.c_str(),
                std::string(client::to_string(o.mode)).c_str(),
                std::string(harness::to_string(o.scenario)).c_str(), o.runs,
                r.packets, r.bytes, r.seconds, r.overhead_percent,
                r.packets_c2s, r.packets_s2c, r.connections,
                r.mean_packet_train, r.all_complete ? 1 : 0);
    return 0;
  }

  std::printf("Network:  %s\nServer:   %s\nClient:   %s\nScenario: %s "
              "(%u runs)\n\n",
              o.network.name.c_str(), o.server.server_name.c_str(),
              std::string(client::to_string(o.mode)).c_str(),
              std::string(harness::to_string(o.scenario)).c_str(), o.runs);
  std::printf("%s\n", harness::render_summary_line("result", r).c_str());
  if (!r.all_complete) {
    std::printf("WARNING: at least one run did not complete\n");
    return 1;
  }
  return 0;
}
