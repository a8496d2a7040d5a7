#include "harness/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/chaos.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "server/static_site.hpp"
#include "sim/flat_hash_map.hpp"
#include "sim/shard.hpp"
#include "topo/topology.hpp"

namespace hsim::harness {

namespace {

constexpr net::IpAddr kWorkloadServerAddr = 1;
net::IpAddr workload_client_addr(unsigned i) { return 1000 + i; }

/// Same aggregation points as the classic star driver (workload.cpp); the
/// sharded driver re-declares them because they are file-local there.
struct Funnel : net::PacketSink {
  net::Link* bottleneck = nullptr;
  void deliver(net::Packet packet) override {
    bottleneck->transmit(std::move(packet));
  }
};

struct Fanout : net::PacketSink {
  // Per-packet lookup table; never iterated.
  sim::FlatHashMap<net::IpAddr, net::Link*, sim::IntegerBits> routes;
  void deliver(net::Packet packet) override {
    if (net::Link* const* link = routes.find(packet.dst)) {
      (*link)->transmit(std::move(packet));
    }
  }
};

// Engine lookahead uses net::config_min_latency (found by ADL below):
// identical to net::Link::min_remote_latency(), usable before any link
// exists (the engine needs its lookahead before the queues it carries).
// Netem dynamics only ever raise the bound (minimum extra segment latency).

/// Routes a link's deliveries across the shard boundary: the sink runs on
/// `dst` at the link-computed arrival time, everything else stays put. The
/// sink pointer is captured now — callers wire sinks before hooks.
void cross_deliver(sim::ShardedEngine& engine, std::size_t dst,
                   net::Link& link) {
  net::PacketSink* sink = link.sink();
  link.set_remote_deliver(
      [&engine, dst, sink](sim::Time when, net::Packet packet) {
        engine.post(dst, when, [sink, p = std::move(packet)]() mutable {
          sink->deliver(std::move(p));
        });
      });
}

}  // namespace

unsigned threads_from_env() {
  const char* env = std::getenv("HSIM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<unsigned>(std::min(v, 1024ul));
}

sim::Time workload_lookahead(const WorkloadConfig& config) {
  net::ChannelConfig access = config.access.channel_config();
  if (config.mutate_access) config.mutate_access(access);
  apply_profile_overlay(config.profile, access);
  if (config.topology == TopologyKind::kStar) {
    // Crossing links: every client uplink (a_to_b) into the funnel, and the
    // bottleneck downlink fanning out to the client shards.
    net::LinkConfig bn;
    bn.propagation_delay = config.bottleneck_delay;
    return std::min(config_min_latency(access.a_to_b),
                    config_min_latency(bn));
  }
  // Dumbbell shapes: only the client access legs cross (uplink into the gate
  // router, gate's fan-out egress back to the client host); routers and the
  // bottleneck pair(s) are wholly shard-0.
  return std::min(config_min_latency(access.a_to_b),
                  config_min_latency(access.b_to_a));
}

sim::Time run_once_lookahead(const ExperimentSpec& spec) {
  net::ChannelConfig channel = spec.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel);
  apply_profile_overlay(spec.profile, channel, "access");
  return std::min(config_min_latency(channel.a_to_b),
                  config_min_latency(channel.b_to_a));
}

// ---------------------------------------------------------------------------
// run_workload_sharded
// ---------------------------------------------------------------------------

WorkloadResult run_workload_sharded(const WorkloadConfig& config,
                                    const content::MicroscapeSite& site,
                                    unsigned threads) {
  const unsigned n = config.num_clients;
  const bool redundant = config.topology == TopologyKind::kDumbbellRedundant;
  const bool dumbbell = config.topology != TopologyKind::kStar;
  const std::vector<std::string> bn_links =
      redundant
          ? std::vector<std::string>{"bnA.up", "bnA.down", "bnB.up", "bnB.down"}
          : std::vector<std::string>{"bn.up", "bn.down"};

  net::ChannelConfig access = config.access.channel_config();
  if (config.mutate_access) config.mutate_access(access);
  apply_profile_overlay(config.profile, access);

  // Fixed partition: shard 0 = server + shared infrastructure, clients
  // round-robin over the remaining S-1 shards. S comes from config, never
  // from the thread count, so results are thread-count invariant.
  const std::size_t S =
      config.shards != 0
          ? std::max<std::size_t>(2, config.shards)
          : 1 + std::min<std::size_t>(n, 8);
  const auto shard_of_client = [S](unsigned i) -> std::size_t {
    return 1 + (i % (S - 1));
  };

  sim::ShardedEngine engine(
      {S, threads, workload_lookahead(config)});
  engine.queue(0).reserve(64 + 16 * static_cast<std::size_t>(n) / S);

  // One registry per shard; each worker installs its shard's registry before
  // running a slice (the obs registry pointer is thread-local). `master` is
  // the merge target and the ambient registry outside slices.
  obs::Registry master;
  std::vector<std::unique_ptr<obs::Registry>> regs;
  regs.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    regs.push_back(std::make_unique<obs::Registry>());
  }
  obs::ScopedRegistry scoped(&master);
  engine.set_shard_enter(
      [&regs](std::size_t s) { obs::set_registry(regs[s].get()); });

  // ---- Shared side (shard 0), exactly the classic construction order ----
  obs::set_registry(regs[0].get());
  sim::Rng server_rng(derive_seed(config.master_seed, kServerSeedSalt));
  tcp::Host server_host(engine.queue(0), kWorkloadServerAddr, "server",
                        server_rng.fork());

  net::TraceSummarizer bottleneck_trace(kWorkloadServerAddr);
  sim::EventQueue& queue0 = engine.queue(0);
  const auto tap = [&bottleneck_trace, &queue0](const net::Packet& p) {
    bottleneck_trace.record(queue0.now(), p);
  };

  std::vector<std::unique_ptr<tcp::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<client::Robot>> robots;
  hosts.reserve(n);
  robots.reserve(n);

  client::ClientConfig client_template = config.client;
  client_template.tcp.recv_buffer = std::min(
      client_template.tcp.recv_buffer, config.access.client_recv_buffer);
  server::ServerConfig server_config = config.server;
  if (config.cc) {
    client_template.tcp.cc = *config.cc;
    server_config.tcp.cc = *config.cc;
  }
  const auto client_config_for = [&](unsigned i) {
    client::ClientConfig cc = client_template;
    if (cc.retry_jitter > 0.0 && cc.retry_jitter_seed == 0) {
      cc.retry_jitter_seed = derive_seed(config.master_seed, kRetrySeedSalt + i);
    }
    return cc;
  };

  std::unique_ptr<net::Link> bottleneck_up;
  std::unique_ptr<net::Link> bottleneck_down;
  Funnel funnel;
  Fanout fanout;
  topo::Topology topo;
  std::unique_ptr<server::HttpServer> server;

  if (!dumbbell) {
    net::LinkConfig bn_cfg;
    bn_cfg.bandwidth_bps = config.bottleneck_bandwidth_bps;
    bn_cfg.propagation_delay = config.bottleneck_delay;
    bn_cfg.queue_limit_packets = config.bottleneck_queue_packets;
    bottleneck_up =
        std::make_unique<net::Link>(queue0, bn_cfg, server_rng.fork());
    bottleneck_down =
        std::make_unique<net::Link>(queue0, bn_cfg, server_rng.fork());
    bottleneck_up->set_tap(tap);
    bottleneck_down->set_tap(tap);

    funnel.bottleneck = bottleneck_up.get();
    bottleneck_up->set_sink(&server_host);
    bottleneck_down->set_sink(&fanout);
    server_host.attach_uplink(bottleneck_down.get());

    server = std::make_unique<server::HttpServer>(
        server_host, server_site(site), server_config,
        server_rng.fork());
    server->start(80);

    links.reserve(2 * static_cast<std::size_t>(n));
    for (unsigned i = 0; i < n; ++i) {
      const std::size_t cs = shard_of_client(i);
      obs::set_registry(regs[cs].get());
      sim::EventQueue& cq = engine.queue(cs);
      sim::Rng crng(derive_seed(config.master_seed, kClientSeedSalt + i));
      auto host = std::make_unique<tcp::Host>(
          cq, workload_client_addr(i), "client" + std::to_string(i),
          crng.fork());
      auto up = std::make_unique<net::Link>(cq, access.a_to_b, crng.fork());
      auto down = std::make_unique<net::Link>(cq, access.b_to_a, crng.fork());
      up->set_sink(&funnel);
      cross_deliver(engine, 0, *up);
      down->set_sink(host.get());
      fanout.routes[workload_client_addr(i)] = down.get();
      host->attach_uplink(up.get());
      robots.push_back(std::make_unique<client::Robot>(*host,
                                                       kWorkloadServerAddr, 80,
                                                       client_config_for(i)));
      hosts.push_back(std::move(host));
      links.push_back(std::move(up));
      links.push_back(std::move(down));
    }
    // The bottleneck downlink fans out per packet: deliveries cross to the
    // destination client's shard, where Fanout's (read-only by now) route
    // table hands the packet to that client's own downlink.
    obs::set_registry(regs[0].get());
    net::Link* bn_down = bottleneck_down.get();
    bn_down->set_remote_deliver([&engine, &fanout, &shard_of_client, n](
                                    sim::Time when, net::Packet packet) {
      const bool known = packet.dst >= 1000 && packet.dst < 1000 + n;
      const std::size_t dst =
          known ? shard_of_client(static_cast<unsigned>(packet.dst - 1000))
                : 0;
      engine.post(dst, when, [&fanout, p = std::move(packet)]() mutable {
        fanout.deliver(std::move(p));
      });
    });
  } else {
    std::vector<tcp::Host*> client_hosts;
    client_hosts.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      const std::size_t cs = shard_of_client(i);
      obs::set_registry(regs[cs].get());
      sim::Rng crng(derive_seed(config.master_seed, kClientSeedSalt + i));
      hosts.push_back(std::make_unique<tcp::Host>(
          engine.queue(cs), workload_client_addr(i),
          "client" + std::to_string(i), crng.fork()));
      client_hosts.push_back(hosts.back().get());
    }
    obs::set_registry(regs[0].get());

    topo::BottleneckSpec spec;
    spec.bandwidth_bps = config.bottleneck_bandwidth_bps;
    spec.delay = config.bottleneck_delay;
    spec.queue = config.bottleneck_queue;
    spec.queue.drop_tail.limit_packets = config.bottleneck_queue_packets;
    spec.queue.red.limit_packets = config.bottleneck_queue_packets;
    spec.mutate_link = config.mutate_bottleneck;

    topo::TopologyBuilder builder(
        queue0, sim::Rng(derive_seed(config.master_seed, kTopoSeedSalt)));
    builder.set_uplink_placement(
        [&](std::size_t i) -> topo::TopologyBuilder::UplinkPlacement {
          const std::size_t cs = shard_of_client(static_cast<unsigned>(i));
          return {&engine.queue(cs), regs[cs].get()};
        });
    topo = redundant ? builder.dumbbell_redundant(client_hosts, &server_host,
                                                  access, spec, config.failover)
                     : builder.dumbbell(client_hosts, &server_host, access,
                                        spec);
    for (const std::string& name : bn_links) topo.link(name)->set_tap(tap);
    if (config.hop_trace) topo.set_hop_trace(config.hop_trace);
    if (config.on_topology) config.on_topology(topo, queue0);

    server = std::make_unique<server::HttpServer>(
        server_host, server_site(site), server_config,
        server_rng.fork());
    server->start(80);

    // Shard crossings: each uplink delivers into the gate router on shard 0;
    // each downlink (a shard-0 gate egress) delivers back to its client.
    for (unsigned i = 0; i < n; ++i) {
      const std::string base = "client" + std::to_string(i);
      cross_deliver(engine, 0, *topo.link(base + ".up"));
      cross_deliver(engine, shard_of_client(i), *topo.link(base + ".down"));
    }

    for (unsigned i = 0; i < n; ++i) {
      obs::set_registry(regs[shard_of_client(i)].get());
      robots.push_back(std::make_unique<client::Robot>(
          *hosts[i], kWorkloadServerAddr, 80, client_config_for(i)));
    }
  }
  obs::set_registry(&master);

  // ---- Arrival process (identical draws; scheduled per client shard) ----
  sim::Rng arrival_rng(derive_seed(config.master_seed, kArrivalSeedSalt));
  std::vector<sim::Time> arrivals(n, 0);
  sim::Time t = 0;
  for (unsigned i = 0; i < n; ++i) {
    if (config.arrivals == ArrivalProcess::kFixedInterval) {
      arrivals[i] = static_cast<sim::Time>(i) * config.mean_interarrival;
    } else {
      const double u = arrival_rng.uniform_real(0.0, 1.0);
      t += static_cast<sim::Time>(
          -static_cast<double>(config.mean_interarrival) * std::log1p(-u));
      arrivals[i] = t;
    }
  }

  std::vector<char> resolved(n, 0);
  for (unsigned i = 0; i < n; ++i) {
    engine.queue(shard_of_client(i)).schedule_at(arrivals[i], [&, i] {
      robots[i]->start_first_visit(config.root,
                                   [&resolved, i] { resolved[i] = 1; });
    });
  }

  if (config.epoch > 0 && config.on_epoch) {
    // Oracles fire at barriers with every worker parked, against a scratch
    // registry merged in shard order — so walking topology state is safe and
    // counter monotonicity holds epoch over epoch.
    engine.set_epochs(config.epoch, config.horizon, [&](sim::Time) {
      obs::Registry epoch_view;
      for (const auto& reg : regs) epoch_view.merge_from(*reg);
      obs::ScopedRegistry in_epoch(&epoch_view);
      config.on_epoch();
    });
  }

  std::size_t events = engine.run_until(config.horizon);
  events += engine.run_until(engine.now() + config.drain);
  obs::set_registry(&master);
  for (const auto& reg : regs) master.merge_from(*reg);

  // ---- Collect (identical to the classic driver, reading the merge) ----
  WorkloadResult result;
  result.events_executed = events;
  result.clients.resize(n);
  const obs::HistogramHandle page_ms =
      obs::histogram_handle("workload.page_ms");
  for (unsigned i = 0; i < n; ++i) {
    ClientOutcome& out = result.clients[i];
    out.id = i;
    out.arrival = arrivals[i];
    out.resolved = resolved[i] != 0;
    out.stats = robots[i]->stats();
    out.leaked_connections = hosts[i]->open_connections();
    if (out.complete()) {
      page_ms.observe(
          static_cast<std::uint64_t>(out.page_seconds() * 1000.0));
    }
    if (config.verify_cache && out.stats.complete) {
      out.byte_exact =
          cache_matches_site(robots[i]->cache(), site, config.root);
    }
  }
  result.bottleneck = net::summary_from_metrics(master);
  result.bottleneck_syns = master.counter_value("trace.syn_packets");
  result.tcp_retransmits = master.counter_value("tcp.retransmits");
  if (!dumbbell) {
    result.bottleneck_queue_drops =
        bottleneck_up->stats().packets_dropped_queue +
        bottleneck_down->stats().packets_dropped_queue;
  } else {
    result.bottleneck_queue_drops = topo.queue_drops();
    for (const std::string& name : bn_links) {
      result.bottleneck_queue_drops +=
          topo.link(name)->stats().packets_dropped_queue;
    }
    for (const topo::QueueDisc* q : topo.queues()) {
      if (q->label().rfind("bn", 0) != 0) continue;
      result.queues.push_back(
          QueueSummary{q->label(), std::string(q->kind()), q->stats()});
    }
  }
  result.server = server->stats();
  if (const tcp::ListenerStats* ls = server_host.listener_stats(80)) {
    result.listener = *ls;
  }
  result.server_connections_total = server_host.total_connections_created();
  result.server_max_open = server_host.max_simultaneous_connections();
  result.server_open_after_drain = server_host.open_connections();
  if (config.metrics_sink) config.metrics_sink->consume(master);
  result.metrics = master.snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// run_once_sharded
// ---------------------------------------------------------------------------

namespace {
constexpr net::IpAddr kOnceClientAddr = 1;
constexpr net::IpAddr kOnceServerAddr = 2;
constexpr net::Port kOnceHttpPort = 80;

/// A tap record tagged with the executing event's full key, so two shards'
/// interleaved tap streams merge back into the one canonical order the
/// single-queue driver would have produced.
struct KeyedRecord {
  sim::EventKey key;
  sim::Time time = 0;
  net::Packet packet;
};
}  // namespace

RunResult run_once_sharded(const ExperimentSpec& spec,
                           const content::MicroscapeSite& site,
                           unsigned threads) {
  // Shard 0 = client side, shard 1 = server side. The master registry is
  // the merge target; trace.* metrics are produced at replay time below.
  obs::Registry master;
  std::unique_ptr<obs::Registry> regs[2] = {
      std::make_unique<obs::Registry>(), std::make_unique<obs::Registry>()};
  if (spec.conn_timelines) {
    for (auto& r : regs) r->enable_timelines();
  }
  obs::ScopedRegistry scoped(&master);

  net::ChannelConfig channel_config = spec.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel_config);
  apply_profile_overlay(spec.profile, channel_config, "access");

  sim::ShardedEngine engine({2, threads, run_once_lookahead(spec)});
  engine.set_shard_enter(
      [&regs](std::size_t s) { obs::set_registry(regs[s].get()); });

  sim::Rng rng(spec.seed);

  // The classic driver builds a net::Channel, whose constructor forks the
  // channel rng for a_to_b then b_to_a; replicate that exact order while
  // splitting the two links across the shards of their transmitters.
  sim::Rng channel_rng = rng.fork();
  std::unique_ptr<net::Link> a_to_b;  // client -> server, client shard
  std::unique_ptr<net::Link> b_to_a;  // server -> client, server shard
  {
    obs::ScopedRegistry r0(regs[0].get());
    a_to_b = std::make_unique<net::Link>(engine.queue(0),
                                         channel_config.a_to_b,
                                         channel_rng.fork());
  }
  {
    obs::ScopedRegistry r1(regs[1].get());
    b_to_a = std::make_unique<net::Link>(engine.queue(1),
                                         channel_config.b_to_a,
                                         channel_rng.fork());
  }

  obs::set_registry(regs[0].get());
  tcp::Host client_host(engine.queue(0), kOnceClientAddr, "client",
                        rng.fork());
  obs::set_registry(regs[1].get());
  tcp::Host server_host(engine.queue(1), kOnceServerAddr, "server",
                        rng.fork());

  a_to_b->set_sink(&server_host);
  cross_deliver(engine, 1, *a_to_b);
  b_to_a->set_sink(&client_host);
  cross_deliver(engine, 0, *b_to_a);
  client_host.attach_uplink(a_to_b.get());
  server_host.attach_uplink(b_to_a.get());
  if (spec.make_link_sizer) {
    a_to_b->set_payload_sizer(spec.make_link_sizer());
    b_to_a->set_payload_sizer(spec.make_link_sizer());
  }

  // Taps record into per-shard streams (with keys) instead of a live
  // PacketTrace; the streams are merged and replayed after the run.
  bool tracing = false;
  std::vector<KeyedRecord> taps[2];
  a_to_b->set_tap([&](const net::Packet& p) {
    if (tracing) {
      taps[0].push_back({engine.queue(0).current_key(),
                         engine.queue(0).now(), p});
    }
  });
  b_to_a->set_tap([&](const net::Packet& p) {
    if (tracing) {
      taps[1].push_back({engine.queue(1).current_key(),
                         engine.queue(1).now(), p});
    }
  });

  server::HttpServer server(server_host, server_site(site), spec.server,
                            rng.fork());
  server.start(kOnceHttpPort);

  obs::set_registry(regs[0].get());
  client::ClientConfig client_config = spec.client;
  client_config.tcp.recv_buffer = std::min(client_config.tcp.recv_buffer,
                                           spec.network.client_recv_buffer);
  client::Robot robot(client_host, kOnceServerAddr, kOnceHttpPort,
                      client_config);

  const auto run_to_completion = [&] { engine.run_until(sim::seconds(600)); };
  // The classic driver calls the robot's start synchronously; here the start
  // must run *inside* a shard-0 slice (it transmits the first SYN, and the
  // uplink's cross-shard hook needs an executing event to stamp its key).
  const auto start_on_client_shard = [&](auto start) {
    engine.queue(0).schedule_at(engine.queue(0).now(), std::move(start));
  };

  if (spec.scenario == Scenario::kRevalidation) {
    bool warm_done = false;
    start_on_client_shard(
        [&] { robot.start_first_visit("/index.html", [&] { warm_done = true; }); });
    run_to_completion();
    if (!warm_done) {
      obs::set_registry(&master);
      return RunResult{};
    }
    engine.run_until(engine.now() + sim::seconds(120));
    client_host.reset_connection_counters();
  }

  tracing = true;
  bool done = false;
  if (spec.scenario == Scenario::kFirstVisit) {
    start_on_client_shard(
        [&] { robot.start_first_visit("/index.html", [&] { done = true; }); });
  } else {
    start_on_client_shard(
        [&] { robot.start_revalidation("/index.html", [&] { done = true; }); });
  }
  run_to_completion();
  engine.run_until(engine.now() + sim::seconds(120));
  (void)done;

  // ---- Merge + replay ----
  obs::set_registry(&master);
  for (const auto& reg : regs) master.merge_from(*reg);

  net::PacketTrace trace(kOnceClientAddr);  // trace.* binds the merge target
  std::vector<KeyedRecord> merged;
  merged.reserve(taps[0].size() + taps[1].size());
  std::merge(taps[0].begin(), taps[0].end(), taps[1].begin(), taps[1].end(),
             std::back_inserter(merged),
             [](const KeyedRecord& a, const KeyedRecord& b) {
               return a.key < b.key;
             });
  for (KeyedRecord& r : merged) trace.record(r.time, std::move(r.packet));

  if (spec.inspect_robot) spec.inspect_robot(robot);
  if (spec.inspect_trace) spec.inspect_trace(trace);
  if (spec.metrics_sink) spec.metrics_sink->consume(master);

  RunResult result;
  result.trace = net::summary_from_metrics(master);
  result.metrics = master.snapshot();
  result.page_started = master.gauge_value("client.page_started_ns", 0);
  result.page_finished = master.gauge_value("client.page_finished_ns", 0);
  result.robot = robot.stats();
  result.server = server.stats();
  result.connections_used = client_host.total_connections_created();
  result.max_parallel_connections = client_host.max_simultaneous_connections();
  result.packet_trains = trace.packet_trains();
  result.mean_packet_train = trace.mean_packet_train_length();
  return result;
}

}  // namespace hsim::harness
