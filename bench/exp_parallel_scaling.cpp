// Parallel-engine scaling matrix (ROADMAP "host-sharded parallel engine").
//
// Runs the contended dumbbell workload over N x T = {1000, 10000} x
// {1, 2, 4, 8} and emits BENCH_parallel.json: wall seconds, simulated
// packets/sec and events/sec per cell, plus std::thread::hardware_concurrency
// so a reader can judge the speedup against the cores that were actually
// available — a single-core container honestly reports ~1x at every T
// rather than a fabricated scaling curve. The simulation outputs per cell
// (packets, events, completed clients) are deterministic and asserted
// identical across the whole thread matrix, so the JSON doubles as a
// determinism check on exactly the configurations the perf claims cite.
//
// The bottleneck bandwidth scales with the fleet (10 Mbit/s per 1000
// clients) and the arrival window shrinks, keeping per-client contention —
// and therefore wall time per client — roughly constant across N.
//
//   exp_parallel_scaling [out.json] [--large]
//
// --large appends the N=100k completion cell (one run, T=4): the
// configuration the sharded engine exists for, included on demand because it
// simulates two orders of magnitude more traffic than the default matrix.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace {
using namespace hsim;

struct Cell {
  unsigned clients;
  unsigned threads;
  unsigned completed;
  std::uint64_t packets;
  std::uint64_t events;
  double sim_seconds;
  double wall_seconds;
};

harness::WorkloadConfig config(unsigned clients) {
  harness::WorkloadConfig cfg;
  cfg.num_clients = clients;
  cfg.topology = harness::TopologyKind::kDumbbell;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  // Same offered load per client at every N: the fleet arrives over ~10 s
  // and shares a pipe sized 10 Mbit/s per 1000 clients.
  cfg.mean_interarrival = sim::seconds(10) / clients;
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 10'000'000LL * (clients / 1000);
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

Cell run_cell(unsigned clients, unsigned threads) {
  harness::WorkloadConfig cfg = config(clients);
  cfg.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const harness::WorkloadResult r =
      harness::run_workload(cfg, harness::shared_site());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  Cell cell;
  cell.clients = clients;
  cell.threads = threads;
  cell.completed = r.completed();
  cell.packets = r.metrics.counter("net.link.packets_sent",
                                   r.bottleneck.packets);
  cell.events = r.events_executed;
  cell.sim_seconds = r.bottleneck.elapsed_seconds();
  cell.wall_seconds = wall;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_parallel.json";
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else {
      out_path = argv[i];
    }
  }

  // Synthesise the shared site before any cell's clock starts, so the first
  // cell times only its simulation.
  (void)harness::shared_site();

  std::vector<Cell> cells;
  bool identical = true;
  if (large) {
    // The completion cell alone: two orders of magnitude more traffic than
    // a matrix cell, so it replaces the matrix rather than extending it.
    cells.push_back(run_cell(100'000, 4));
  } else {
    for (unsigned clients : {1000u, 10000u}) {
      Cell base{};
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const Cell cell = run_cell(clients, threads);
        cells.push_back(cell);
        std::fprintf(stderr,
                     "N=%u T=%u: %llu events, %.1fs wall (%.0f events/s)\n",
                     clients, threads,
                     static_cast<unsigned long long>(cell.events),
                     cell.wall_seconds, cell.events / cell.wall_seconds);
        if (threads == 1) {
          base = cell;
        } else if (cell.packets != base.packets ||
                   cell.events != base.events ||
                   cell.completed != base.completed) {
          identical = false;
          std::fprintf(stderr, "DETERMINISM VIOLATION at N=%u T=%u vs T=1\n",
                       clients, threads);
        }
      }
    }
  }

  std::string json = "{\n  \"bench\": \"exp_parallel_scaling\",\n";
  json += "  \"area\": \"parallel\",\n";
  json += "  \"workload\": \"dumbbell pipelined, 10 Mbit/s per 1000 clients, "
          "seed 42\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += std::string("  \"thread_matrix_identical\": ") +
          (identical ? "true" : "false") + ",\n";
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"clients\": %u, \"threads\": %u, \"completed\": %u, "
                  "\"packets_delivered\": %llu, \"events_executed\": %llu, "
                  "\"sim_seconds\": %.3f, \"wall_seconds\": %.3f, "
                  "\"packets_per_sec\": %.0f, \"events_per_sec\": %.0f}%s\n",
                  c.clients, c.threads, c.completed,
                  static_cast<unsigned long long>(c.packets),
                  static_cast<unsigned long long>(c.events), c.sim_seconds,
                  c.wall_seconds, c.packets / c.wall_seconds,
                  c.events / c.wall_seconds,
                  i + 1 < cells.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  std::fputs(json.c_str(), stdout);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_parallel_scaling: cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return identical ? 0 : 2;
}
