// Machine-readable perf trajectory seed (ROADMAP "hot-path speed pass").
//
// Runs the N = 1000 dumbbell contention workload once (the configuration the
// event-queue rewrite and the zero-copy pipeline were judged on) and emits
// BENCH_tcp.json: wall seconds, simulated packets/sec, events/sec and a few
// identifying dimensions. The JSON is written both to stdout and, when a
// path is given, to the file named by argv[1] — CI checks a result in per PR
// so perf claims stop living only in commit messages.
//
// The *simulation outputs* (packets, events, simulated seconds) are
// deterministic for the fixed seed; only the wall-clock figures vary run to
// run, which is exactly what a trajectory wants: stable work, measured time.
#include <chrono>
#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace {
using namespace hsim;

harness::WorkloadConfig config() {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 1000;
  cfg.topology = harness::TopologyKind::kDumbbell;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 10'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 256;
  cfg.master_seed = 42;
  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 512;
  cfg.server.max_concurrent_connections = 256;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;
  cfg.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  cfg.client.page_deadline = sim::seconds(420);
  return cfg;
}

// The h2 smoke: the same N = 1000 fleet on the legacy star topology, every
// client a multiplexed session with server push. The star keeps the framing
// layer itself (frame encode/decode, scheduler, flow control) the hot path
// rather than router queueing. Emits BENCH_h2.json.
harness::WorkloadConfig h2_config() {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 1000;
  cfg.topology = harness::TopologyKind::kStar;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 10'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 256;
  cfg.master_seed = 42;
  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 512;
  cfg.server.max_concurrent_connections = 256;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;
  cfg.client = harness::robot_config(client::ProtocolMode::kH2);
  cfg.client.page_deadline = sim::seconds(420);
  return cfg;
}

// The netem smoke: a pipelined star fleet with the 3g-drive mobile profile
// on every access link. Half the fleet of the tcp smoke — the time-varying
// 300k–3.5M down link stretches each page load an order of magnitude, and
// 500 clients already give a multi-minute simulated horizon. Emits
// BENCH_netem.json.
harness::WorkloadConfig netem_config() {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 500;
  cfg.topology = harness::TopologyKind::kStar;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::mobile_profile();
  cfg.profile = "3g-drive";
  cfg.bottleneck_bandwidth_bps = 10'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 256;
  cfg.master_seed = 42;
  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 512;
  cfg.server.max_concurrent_connections = 256;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;
  cfg.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  cfg.client.page_deadline = sim::seconds(420);
  return cfg;
}

std::uint64_t total_h2_frames(const obs::Snapshot& m) {
  static const char* kSent[] = {
      "h2.frames_sent.data",          "h2.frames_sent.headers",
      "h2.frames_sent.rst_stream",    "h2.frames_sent.settings",
      "h2.frames_sent.push_promise",  "h2.frames_sent.goaway",
      "h2.frames_sent.window_update",
  };
  std::uint64_t total = 0;
  for (const char* name : kSent) total += m.counter(name);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // Synthesize the site (GIF/PNG encoding, deflate) before any clock starts:
  // the wall times below cover simulation only.
  const content::MicroscapeSite& site = harness::shared_site();
  const auto t0 = std::chrono::steady_clock::now();
  const harness::WorkloadResult r = harness::run_workload(config(), site);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The bottleneck tap alone would undercount the access legs;
  // net.link.packets_sent is the unlabelled aggregate every link feeds,
  // the honest "packets simulated".
  const std::uint64_t packets = r.metrics.counter(
      "net.link.packets_sent", r.bottleneck.packets);
  const std::uint64_t events = r.events_executed;
  const double sim_seconds = r.bottleneck.elapsed_seconds();

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\n"
      "  \"bench\": \"perf_smoke\",\n"
      "  \"area\": \"tcp\",\n"
      "  \"workload\": \"dumbbell pipelined N=1000, 10 Mbit/s, seed 42\",\n"
      "  \"clients\": 1000,\n"
      "  \"completed\": %u,\n"
      "  \"bottleneck_packets\": %llu,\n"
      "  \"packets_delivered\": %llu,\n"
      "  \"events_executed\": %llu,\n"
      "  \"sim_seconds\": %.3f,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"packets_per_sec\": %.0f,\n"
      "  \"events_per_sec\": %.0f\n"
      "}\n",
      r.completed(), static_cast<unsigned long long>(r.bottleneck.packets),
      static_cast<unsigned long long>(packets),
      static_cast<unsigned long long>(events), sim_seconds, wall_seconds,
      static_cast<double>(packets) / wall_seconds,
      static_cast<double>(events) / wall_seconds);
  std::fputs(json, stdout);

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", argv[1]);
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }

  // ---- h2 smoke ----------------------------------------------------------
  const auto t1 = std::chrono::steady_clock::now();
  const harness::WorkloadResult h2r = harness::run_workload(h2_config(), site);
  const double h2_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  // Frame counters aggregate the client sessions AND the server's (both
  // bind the same registry names), i.e. every frame any session emitted.
  const std::uint64_t frames = total_h2_frames(h2r.metrics);
  const std::uint64_t stalls = h2r.metrics.counter("h2.flow_stalls");
  const std::uint64_t pushes = h2r.metrics.counter("h2.pushes_accepted");
  const std::uint64_t h2_events = h2r.events_executed;

  char h2json[1024];
  std::snprintf(
      h2json, sizeof h2json,
      "{\n"
      "  \"bench\": \"perf_smoke\",\n"
      "  \"area\": \"h2\",\n"
      "  \"workload\": \"star h2 multiplexed N=1000, 10 Mbit/s, seed 42\",\n"
      "  \"clients\": 1000,\n"
      "  \"completed\": %u,\n"
      "  \"h2_frames\": %llu,\n"
      "  \"flow_control_stalls\": %llu,\n"
      "  \"pushes_accepted\": %llu,\n"
      "  \"events_executed\": %llu,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"frames_per_sec\": %.0f,\n"
      "  \"events_per_sec\": %.0f\n"
      "}\n",
      h2r.completed(), static_cast<unsigned long long>(frames),
      static_cast<unsigned long long>(stalls),
      static_cast<unsigned long long>(pushes),
      static_cast<unsigned long long>(h2_events), h2_wall,
      static_cast<double>(frames) / h2_wall,
      static_cast<double>(h2_events) / h2_wall);
  std::fputs(h2json, stdout);

  if (argc > 2) {
    std::FILE* f = std::fopen(argv[2], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", argv[2]);
      return 1;
    }
    std::fputs(h2json, f);
    std::fclose(f);
  }

  // ---- netem smoke -------------------------------------------------------
  // The pipelined star fleet again, but with the 3g-drive profile overlaid
  // on every access link: time-indexed serialisation, radio wakeups and the
  // per-transmit profile lookup all sit on the hot path, so this row is the
  // perf trajectory for the netem subsystem. Emits BENCH_netem.json.
  const auto t2 = std::chrono::steady_clock::now();
  const harness::WorkloadResult nr = harness::run_workload(netem_config(), site);
  const double netem_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2)
          .count();

  const std::uint64_t netem_packets = nr.metrics.counter(
      "net.link.packets_sent", nr.bottleneck.packets);
  const std::uint64_t wakeups = nr.metrics.counter("netem.radio_wakeups");
  const std::uint64_t netem_events = nr.events_executed;

  char njson[1024];
  std::snprintf(
      njson, sizeof njson,
      "{\n"
      "  \"bench\": \"perf_smoke\",\n"
      "  \"area\": \"netem\",\n"
      "  \"workload\": \"star pipelined N=500, 3g-drive profile, seed 42\",\n"
      "  \"clients\": 500,\n"
      "  \"completed\": %u,\n"
      "  \"packets_delivered\": %llu,\n"
      "  \"radio_wakeups\": %llu,\n"
      "  \"events_executed\": %llu,\n"
      "  \"sim_seconds\": %.3f,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"packets_per_sec\": %.0f,\n"
      "  \"events_per_sec\": %.0f\n"
      "}\n",
      nr.completed(), static_cast<unsigned long long>(netem_packets),
      static_cast<unsigned long long>(wakeups),
      static_cast<unsigned long long>(netem_events),
      nr.bottleneck.elapsed_seconds(), netem_wall,
      static_cast<double>(netem_packets) / netem_wall,
      static_cast<double>(netem_events) / netem_wall);
  std::fputs(njson, stdout);

  if (argc > 3) {
    std::FILE* f = std::fopen(argv[3], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", argv[3]);
      return 1;
    }
    std::fputs(njson, f);
    std::fclose(f);
  }
  return 0;
}
