#include "harness/experiment.hpp"

#include <list>
#include <mutex>
#include <optional>

#include "server/static_site.hpp"

namespace hsim::harness {

namespace {
constexpr net::IpAddr kClientAddr = 1;
constexpr net::IpAddr kServerAddr = 2;
constexpr net::Port kHttpPort = 80;

/// A process-lifetime site and its server site, built on first request.
struct SharedSite {
  content::MicroscapeSite site;
  std::optional<server::StaticSite> server;
};

std::mutex g_shared_mu;

/// Every site handed out by shared_site()/shared_modern_site(), registered
/// as it is built so server_site() recognises one without building any.
std::list<SharedSite>& shared_sites() {
  static std::list<SharedSite> sites;
  return sites;
}

const content::MicroscapeSite& keep_shared(content::MicroscapeSite site) {
  std::lock_guard lock(g_shared_mu);
  return shared_sites().emplace_back(SharedSite{std::move(site), {}}).site;
}
}  // namespace

std::string_view to_string(Scenario s) {
  return s == Scenario::kFirstVisit ? "First Time Retrieval"
                                    : "Cache Validation";
}

client::ClientConfig robot_config(client::ProtocolMode mode) {
  client::ClientConfig c;
  c.mode = mode;
  switch (mode) {
    case client::ProtocolMode::kHttp10Parallel:
      c.max_connections = 4;  // Navigator's default, as the paper set it
      c.revalidation = client::RevalidationStyle::kGetPlusHead;
      // libwww 4.1D had no persistent cache; responses cost only parsing.
      c.per_response_cpu = sim::milliseconds(2);
      break;
    case client::ProtocolMode::kHttp11Persistent:
    case client::ProtocolMode::kHttp11Pipelined:
    case client::ProtocolMode::kHttp11PipelinedCompressed:
    case client::ProtocolMode::kH2:
      c.max_connections = 1;
      c.revalidation = client::RevalidationStyle::kConditionalGet;
      break;
  }
  return c;
}

client::ClientConfig netscape_client_config() {
  client::ClientConfig c;
  c.mode = client::ProtocolMode::kHttp10Parallel;
  c.max_connections = 4;
  c.profile = client::netscape_profile();
  c.revalidation = client::RevalidationStyle::kConditionalGet;
  c.use_etags = false;  // HTTP/1.0 validators are dates
  c.per_response_cpu = sim::milliseconds(4);
  return c;
}

client::ClientConfig msie_client_config(bool broken_revalidation) {
  client::ClientConfig c;
  c.mode = client::ProtocolMode::kHttp11Persistent;
  c.max_connections = 4;
  c.profile = client::msie_profile();
  c.revalidation = broken_revalidation
                       ? client::RevalidationStyle::kGetPlusHead
                       : client::RevalidationStyle::kConditionalGet;
  c.per_response_cpu = sim::milliseconds(4);
  return c;
}

RunResult run_once(const ExperimentSpec& spec,
                   const content::MicroscapeSite& site) {
  // One registry per run, installed before any instrumented component is
  // built so every Metrics::bind() resolves against it. The registry dies
  // with this frame; RunResult carries a Snapshot instead.
  obs::Registry registry;
  if (spec.conn_timelines) registry.enable_timelines();
  obs::ScopedRegistry scoped(&registry);

  sim::EventQueue queue;
  sim::Rng rng(spec.seed);

  net::ChannelConfig channel_config = spec.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel_config);
  apply_profile_overlay(spec.profile, channel_config, "access");
  net::Channel channel(queue, channel_config, rng.fork());
  tcp::Host client_host(queue, kClientAddr, "client", rng.fork());
  tcp::Host server_host(queue, kServerAddr, "server", rng.fork());
  channel.attach_a(&client_host);
  channel.attach_b(&server_host);
  client_host.attach_uplink(&channel.uplink_from_a());
  server_host.attach_uplink(&channel.uplink_from_b());
  if (spec.make_link_sizer) {
    channel.uplink_from_a().set_payload_sizer(spec.make_link_sizer());
    channel.uplink_from_b().set_payload_sizer(spec.make_link_sizer());
  }

  net::PacketTrace trace(kClientAddr);

  server::HttpServer server(server_host, server_site(site), spec.server,
                            rng.fork());
  server.start(kHttpPort);

  client::ClientConfig client_config = spec.client;
  client_config.tcp.recv_buffer = std::min(client_config.tcp.recv_buffer,
                                           spec.network.client_recv_buffer);
  client::Robot robot(client_host, kServerAddr, kHttpPort, client_config);

  const auto run_to_completion = [&] {
    // Generous horizon: even PPP first visits finish within 120 s; the
    // bound only protects against pathological stalls.
    queue.run_until(sim::seconds(600));
  };

  if (spec.scenario == Scenario::kRevalidation) {
    // Unmeasured warm-up to populate the cache.
    bool warm_done = false;
    robot.start_first_visit("/index.html", [&] { warm_done = true; });
    run_to_completion();
    if (!warm_done) {
      return RunResult{};  // warm-up stalled; surfaced as incomplete
    }
    // Let connections drain fully, then start measuring.
    queue.run_until(queue.now() + sim::seconds(120));
    client_host.reset_connection_counters();
  }

  channel.set_trace(&trace);
  bool done = false;
  if (spec.scenario == Scenario::kFirstVisit) {
    robot.start_first_visit("/index.html", [&] { done = true; });
  } else {
    robot.start_revalidation("/index.html", [&] { done = true; });
  }
  run_to_completion();
  // Allow connection teardown (FIN exchanges) to be captured.
  queue.run_until(queue.now() + sim::seconds(120));
  (void)done;
  if (spec.inspect_robot) spec.inspect_robot(robot);
  if (spec.inspect_trace) spec.inspect_trace(trace);
  if (spec.metrics_sink) spec.metrics_sink->consume(registry);

  RunResult result;
  // The summary is rebuilt from the trace.* registry counters rather than by
  // walking the records again — byte-identical by construction (both paths
  // are fed per-packet by PacketTrace::record and share fill_ratios()).
  result.trace = net::summary_from_metrics(registry);
  result.metrics = registry.snapshot();
  result.page_started = registry.gauge_value("client.page_started_ns", 0);
  result.page_finished = registry.gauge_value("client.page_finished_ns", 0);
  result.robot = robot.stats();
  result.server = server.stats();
  result.connections_used = client_host.total_connections_created();
  result.max_parallel_connections = client_host.max_simultaneous_connections();
  result.packet_trains = trace.packet_trains();
  result.mean_packet_train = trace.mean_packet_train_length();
  return result;
}

AveragedResult run_averaged(const ExperimentSpec& spec,
                            const content::MicroscapeSite& site,
                            unsigned runs) {
  AveragedResult avg;
  for (unsigned i = 0; i < runs; ++i) {
    ExperimentSpec s = spec;
    s.seed = spec.seed + i * 7919;
    const RunResult r = run_once(s, site);
    avg.packets += r.packets();
    avg.bytes += r.bytes();
    avg.seconds += r.seconds();
    avg.overhead_percent += r.overhead_percent();
    avg.packets_c2s += static_cast<double>(r.trace.packets_client_to_server);
    avg.packets_s2c += static_cast<double>(r.trace.packets_server_to_client);
    avg.connections += static_cast<double>(r.connections_used);
    avg.mean_packet_train += r.mean_packet_train;
    avg.all_complete = avg.all_complete && r.robot.complete;
  }
  const double n = static_cast<double>(runs);
  avg.packets /= n;
  avg.bytes /= n;
  avg.seconds /= n;
  avg.overhead_percent /= n;
  avg.packets_c2s /= n;
  avg.packets_s2c /= n;
  avg.connections /= n;
  avg.mean_packet_train /= n;
  return avg;
}

const content::MicroscapeSite& shared_site() {
  static const content::MicroscapeSite& site =
      keep_shared(content::build_microscape());
  return site;
}

const content::MicroscapeSite& shared_modern_site(content::ModernCodec codec) {
  static const content::MicroscapeSite& webp = keep_shared(
      content::modernize_site(shared_site(), content::ModernCodec::kWebP));
  static const content::MicroscapeSite& avif = keep_shared(
      content::modernize_site(shared_site(), content::ModernCodec::kAvif));
  return codec == content::ModernCodec::kWebP ? webp : avif;
}

server::StaticSite server_site(const content::MicroscapeSite& site) {
  {
    std::lock_guard lock(g_shared_mu);
    for (SharedSite& shared : shared_sites()) {
      if (&shared.site != &site) continue;
      if (!shared.server)
        shared.server = server::StaticSite::from_microscape(shared.site);
      return *shared.server;
    }
  }
  return server::StaticSite::from_microscape(site);
}

}  // namespace hsim::harness
