// Thread-count determinism matrix for the host-sharded engine.
//
// run_workload's contract (harness/workload.hpp): for a fixed shard
// partition, the worker thread count is a pure performance knob — T=1 and
// T=2/4/8 runs of the same configuration are byte-identical, over every
// surface a consumer can observe: WorkloadResult fields and the full metrics
// registry dump. This suite pins that contract on both canonical topologies
// over several seeds, pins the one-shard (threads = 0) run to fixed hashes,
// and pins the sharded T=1 run against the one-shard run on the surfaces
// the two share exactly.
//
// On divergence each test writes the expected/actual dumps next to the test
// binary (parallel_<name>.expected.txt / .actual.txt) so CI uploads them as
// artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/soak.hpp"
#include "harness/workload.hpp"
#include "net/trace_io.hpp"

namespace hsim {
namespace {

const unsigned kThreadMatrix[] = {2, 4, 8};

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every field of a WorkloadResult a caller can observe, rendered to text.
/// Includes the full registry dump (counters, gauges with peaks, histogram
/// quantiles), so a single perturbed metric anywhere in the stack fails the
/// byte comparison.
std::string workload_fingerprint(const harness::WorkloadResult& r) {
  std::string out;
  out += "events=" + std::to_string(r.events_executed) + "\n";
  out += "completed=" + std::to_string(r.completed()) +
         " failed=" + std::to_string(r.failed()) +
         " resolved=" + std::to_string(r.all_resolved() ? 1 : 0) + "\n";
  out += "bn.packets=" + std::to_string(r.bottleneck.packets) +
         " bn.wire=" + std::to_string(r.bottleneck.wire_bytes) +
         " bn.payload=" + std::to_string(r.bottleneck.payload_bytes) +
         " bn.syns=" + std::to_string(r.bottleneck_syns) +
         " bn.qdrops=" + std::to_string(r.bottleneck_queue_drops) + "\n";
  out += "tcp.retransmits=" + std::to_string(r.tcp_retransmits) + "\n";
  out += "server.conns=" + std::to_string(r.server_connections_total) +
         " max_open=" + std::to_string(r.server_max_open) +
         " open_after_drain=" + std::to_string(r.server_open_after_drain) +
         "\n";
  for (const harness::ClientOutcome& c : r.clients) {
    out += "client " + std::to_string(c.id) +
           " arrival=" + std::to_string(c.arrival) +
           " resolved=" + std::to_string(c.resolved ? 1 : 0) +
           " complete=" + std::to_string(c.complete() ? 1 : 0) +
           " leaked=" + std::to_string(c.leaked_connections) +
           " page=" + hex_double(c.page_seconds()) + "\n";
  }
  for (const harness::QueueSummary& q : r.queues) {
    out += "queue " + q.label + " kind=" + q.kind +
           " enq=" + std::to_string(q.stats.enqueued_packets) +
           " deq=" + std::to_string(q.stats.dequeued_packets) +
           " drop=" + std::to_string(q.stats.dropped()) + "\n";
  }
  out += r.metrics.dump_text();
  return out;
}

void expect_identical(const std::string& expected, const std::string& actual,
                      const std::string& name) {
  if (expected != actual) {
    net::write_file("parallel_" + name + ".expected.txt", expected);
    net::write_file("parallel_" + name + ".actual.txt", actual);
  }
  EXPECT_EQ(expected, actual) << "thread-count divergence in " << name
                              << " (dumps written for CI artifact upload)";
}

harness::WorkloadConfig matrix_workload(harness::TopologyKind topology,
                                        std::uint64_t seed) {
  harness::WorkloadConfig config;
  config.topology = topology;
  config.num_clients = 8;
  config.master_seed = seed;
  config.mean_interarrival = sim::milliseconds(20);
  config.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  return config;
}

void check_workload_matrix(harness::TopologyKind topology, std::uint64_t seed,
                           const std::string& name) {
  harness::WorkloadConfig config = matrix_workload(topology, seed);
  config.threads = 1;
  const std::string base =
      workload_fingerprint(run_workload(config, harness::shared_site()));
  for (unsigned t : kThreadMatrix) {
    config.threads = t;
    const std::string run =
        workload_fingerprint(run_workload(config, harness::shared_site()));
    expect_identical(base, run,
                     name + "_seed" + std::to_string(seed) + "_T" +
                         std::to_string(t));
  }
}

TEST(ParallelDeterminism, StarThreadMatrixByteIdentical) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    check_workload_matrix(harness::TopologyKind::kStar, seed, "star");
  }
}

TEST(ParallelDeterminism, DumbbellThreadMatrixByteIdentical) {
  for (std::uint64_t seed : {1ull, 1337ull}) {
    check_workload_matrix(harness::TopologyKind::kDumbbell, seed, "dumbbell");
  }
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The one-shard partition (threads = 0) reproduces the single-queue driver
// byte for byte: the whole fingerprint, registry dump included, hashes to
// the values that driver produced for these three configurations.
TEST(ParallelDeterminism, OneShardFingerprintsArePinned) {
  struct Pinned {
    const char* name;
    harness::WorkloadConfig config;
    std::uint64_t hash;
  };
  harness::WorkloadConfig h2 =
      matrix_workload(harness::TopologyKind::kStar, 5);
  h2.client = harness::robot_config(client::ProtocolMode::kH2);
  const Pinned pinned[] = {
      {"star", matrix_workload(harness::TopologyKind::kStar, 5),
       0xd998cb9151c37838ULL},
      {"dumbbell", matrix_workload(harness::TopologyKind::kDumbbell, 5),
       0x466f15c01944d690ULL},
      {"star_h2", h2, 0xf68aea0c4658975aULL},
  };
  for (const Pinned& p : pinned) {
    ASSERT_EQ(p.config.threads, 0u);
    const std::string fp =
        workload_fingerprint(run_workload(p.config, harness::shared_site()));
    if (fnv1a64(fp) != p.hash) {
      net::write_file(std::string("parallel_pinned_") + p.name + ".actual.txt",
                      fp);
    }
    EXPECT_EQ(fnv1a64(fp), p.hash) << p.name << " fingerprint changed";
  }
}

// The one-shard run and the sharded T=1 run agree on every shared surface.
// Two gauge families legitimately differ (DESIGN.md §14): peaks (taken per
// shard before the merge) and the client.* sample gauges, where set() means
// "last writer wins" in one registry but the shard merge sums one
// last-write per client shard. So the comparison is everything
// except the registry dump, plus counter-for-counter equality and the
// additive (inc/dec-style) gauges.
TEST(ParallelDeterminism, ShardedMatchesClassicDriver) {
  for (auto topology :
       {harness::TopologyKind::kStar, harness::TopologyKind::kDumbbell}) {
    harness::WorkloadConfig config = matrix_workload(topology, 5);
    config.threads = 0;
    const harness::WorkloadResult classic =
        run_workload(config, harness::shared_site());
    config.threads = 1;
    const harness::WorkloadResult sharded =
        run_workload(config, harness::shared_site());

    std::string a = workload_fingerprint(classic);
    std::string b = workload_fingerprint(sharded);
    a.resize(a.size() - classic.metrics.dump_text().size());
    b.resize(b.size() - sharded.metrics.dump_text().size());
    expect_identical(a, b, "classic_vs_sharded");
    EXPECT_EQ(classic.metrics.counters, sharded.metrics.counters);
    auto additive = [](const std::map<std::string, std::int64_t>& gauges) {
      std::map<std::string, std::int64_t> out;
      for (const auto& [name, value] : gauges) {
        if (name.rfind("client.", 0) != 0) out.emplace(name, value);
      }
      return out;
    };
    EXPECT_EQ(additive(classic.metrics.gauges),
              additive(sharded.metrics.gauges));
  }
}

// The soak harness's conservation/monotonicity oracles run at engine
// barriers against a merged registry view; they must stay green at T>1 and
// reach the same verdict and counters as the T=1 run.
TEST(ParallelDeterminism, SoakOraclesGreenAcrossThreads) {
  harness::SoakConfig config;
  config.num_clients = 20;
  config.master_seed = 11;
  config.horizon = sim::seconds(30);
  config.drain = sim::seconds(30);
  config.epoch = sim::seconds(2);
  config.timeline = harness::default_soak_timeline();
  config.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);

  config.threads = 1;
  const harness::SoakResult base =
      run_soak(config, harness::shared_site());
  EXPECT_TRUE(base.ok()) << (base.violations.empty()
                                 ? "unresolved client or leak"
                                 : base.violations.front());
  for (unsigned t : {2u, 4u}) {
    config.threads = t;
    const harness::SoakResult run =
        run_soak(config, harness::shared_site());
    EXPECT_TRUE(run.ok()) << "soak oracle violation at T=" << t << ": "
                          << (run.violations.empty()
                                  ? "unresolved client or leak"
                                  : run.violations.front());
    EXPECT_EQ(run.epochs_checked, base.epochs_checked);
    expect_identical(workload_fingerprint(base.workload),
                     workload_fingerprint(run.workload),
                     "soak_T" + std::to_string(t));
  }
}

}  // namespace
}  // namespace hsim
