// The benchmark's named workloads: how each is configured from a seed, how
// one repetition runs, and the output checks every repetition must pass.
//
// Every workload drives the simulator only through its public harness
// entry points (run_workload / run_once / cache_matches_site) and reads the
// run's obs::Snapshot; nothing here reaches into a module's internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "content/microscape.hpp"
#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace perfbench {

inline constexpr const char* kFleetH11 = "fleet-h11-dumbbell";
inline constexpr const char* kFleetH2 = "fleet-h2-star";
inline constexpr const char* kFleetH11T2 = "fleet-h11-dumbbell-t2";
inline constexpr const char* kPaperGrid = "paper-grid";

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
bool is_fleet(const std::string& workload);
/// Does this workload's traffic include the protocol (used to decide which
/// layer replays are meaningful for it)?
bool uses_http11(const std::string& workload);
bool uses_h2(const std::string& workload);
bool uses_deflate(const std::string& workload);

/// Host seconds budgeted for one repetition of the workload. A run measures
/// max(2, floor(--seconds / budget)) repetitions, a count fixed by the
/// workload and --seconds alone, never by how fast the code under test
/// runs, so wall_s is a floor over the same number of samples on every
/// commit.
double rep_budget_seconds(const std::string& workload);

/// Fleet overrides for the determinism tests; zero/negative = the
/// workload's own value.
struct FleetOverrides {
  unsigned clients = 0;
  int threads = -1;
};

inline constexpr unsigned kFleetClients = 1000;
/// fleet-h11-dumbbell-t2's fixed partition (shard 0 = server + bottleneck).
inline constexpr std::size_t kT2Shards = 4;

hsim::harness::WorkloadConfig fleet_config(const std::string& workload,
                                           std::uint64_t seed,
                                           const FleetOverrides& over = {});

/// Output checks, tallied over every simulated page visit of a run.
struct Verdict {
  std::uint64_t attempted = 0;  // page visits (fleet clients, grid cells)
  std::uint64_t failed = 0;     // visits not complete and byte-exact
  std::vector<std::string> problems;  // first few failures, for the log

  bool ok() const { return failed == 0 && problems.empty(); }
  void fail(std::string why);
};

/// Counts a fleet run's failed visits and run-level leaks into `v`.
void check_fleet(const hsim::harness::WorkloadResult& r, Verdict& v);

// ---- paper-grid ------------------------------------------------------------

struct GridCell {
  hsim::harness::ExperimentSpec spec;
  std::string tag;  // e.g. "wan/apache/pipelined/reval/s2"
};

/// One (network, server, protocol, scenario) combination; the grid runs it
/// at kGridSeeds seeds and averages, as the paper's tables do.
struct GridGroup {
  std::string tag;
  bool has_paper = false;
  double paper_pa = 0, paper_bytes = 0, paper_sec = 0;
};

inline constexpr unsigned kGridSeeds = 5;

const std::vector<GridGroup>& grid_groups();
/// The 300 cells in a fixed order; cell k belongs to grid_groups()[k /
/// kGridSeeds]. Seeds follow harness::run_averaged (seed + i * 7919), so
/// --seed 1 reproduces the checked-in table benches.
std::vector<GridCell> grid_cells(std::uint64_t seed);

/// Measured outcome of one grid cell, as the paper tables report it.
struct CellOutcome {
  double pa = 0, bytes = 0, sec = 0;
};

/// Median absolute percentage error of the seed-averaged Pa, Bytes and Sec
/// against the paper's published cells (groups without paper numbers, the
/// h2 rows and HTTP/1.0 on PPP, are skipped). `outcomes` is in grid_cells()
/// order.
double paper_error_pct(const std::vector<CellOutcome>& outcomes);

}  // namespace perfbench
