// perfbench: one named workload at one seed, timed and checked.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--rev <id>]
//             [--spans <file>] [--counts] [--clients N --threads T]
//
// Phases, each timed on its own:
//   set-up   site synthesis (content, deflate, GIF) and workload config,
//            repeated kSetupReps times; setup_s is the median
//   measure  a fixed number of repetitions of the workload, sized from
//            --seconds and the workload's rep_budget_seconds (at least two).
//            wall_s sums, over fixed segments of simulated work, each
//            segment's fastest time across all repetitions, the first
//            included. The first repetition in a process runs colder than
//            the rest; its excess over the whole-repetition median of the
//            others is first_run_excess_pct, and that median is
//            wall_median_s.
//   replay   (traced binary only) per-layer codec timings on the same page
//
// Every repetition's outputs are checked: unresolved or incomplete visits,
// caches that differ from the site, leaked connections and deterministic
// counts that change between repetitions of one seed all fail the run.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric measured, each {"value", "unit"}. run.py keeps the metrics
// BENCHMARK.json names. --counts instead runs one repetition and prints only
// the deterministic counts (the determinism tests compare those).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "harness/chaos.hpp"
#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace hsim;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
constexpr double kReplaySeconds = 0.2;
constexpr hsim::sim::Time kEpoch = hsim::sim::seconds(1);

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct CpuTimes {
  double user = 0, sys = 0;
};
CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](timeval t) { return t.tv_sec + t.tv_usec / 1e6; };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- spans -----------------------------------------------------------------

/// In-memory span log (name, tag, start, end, parent), written out at exit.
/// Only the traced binary records; elsewhere open/close are no-ops.
class Tracer {
 public:
  int open(const char* name, std::string tag, int parent = -1) {
    if (!alloc_counting()) return -1;
    spans_.push_back({name, std::move(tag), since(origin_), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = since(origin_);
  }
  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": %s, \"tag\": %s, "
                   "\"start_s\": %s, \"end_s\": %s, \"parent\": %d}%s\n",
                   i, quoted(s.name).c_str(), quoted(s.tag).c_str(),
                   number(s.start).c_str(), number(s.end).c_str(), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name, tag;
    double start, end;
    int parent;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- one repetition --------------------------------------------------------

/// Deterministic per-layer counts of one repetition. Every repetition of
/// one seed must produce the same map.
using Counts = std::map<std::string, double>;

struct Rep {
  double wall_s = 0;
  /// Host seconds of each fixed segment of the repetition: the grid's cells,
  /// or a fleet's epochs of simulated time. Segment j is the same simulated
  /// work in every repetition of one seed.
  std::vector<double> segments_s;
  CpuTimes cpu;
  AllocTally alloc;
  std::vector<double> cell_ms_first, cell_ms_reval;  // paper-grid only
};

std::uint64_t total_h2_frames(const obs::Snapshot& m) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("h2.frames_sent.", 0) == 0) total += value;
  }
  return total;
}

/// Counters every workload reports, read from one run's snapshot.
void add_snapshot_counts(const obs::Snapshot& m, Counts& c) {
  for (const char* name :
       {"net.link.packets_sent", "net.link.wire_bytes",
        "net.link.dropped_queue", "tcp.segments_sent", "tcp.retransmits",
        "tcp.rto_fires", "tcp.connections_opened", "topo.router.forwarded",
        "h2.flow_stalls", "h2.pushes_accepted", "client.requests_sent",
        "server.requests_served"}) {
    c[name] += static_cast<double>(m.counter(name));
  }
  c["h2.frames"] += static_cast<double>(total_h2_frames(m));
}

/// `epoch_stamps` is filled by the stamp events main installs in `cfg`.
Rep run_fleet_rep(const harness::WorkloadConfig& cfg,
                  const content::MicroscapeSite& site, const std::string& tag,
                  std::vector<Clock::time_point>& epoch_stamps, Tracer& tracer,
                  Verdict& verdict, Counts& counts) {
  Rep rep;
  epoch_stamps.clear();
  const int span = tracer.open("harness.run", tag);
  const AllocTally a0 = alloc_tally();
  const CpuTimes c0 = cpu_now();
  const auto t0 = Clock::now();
  const harness::WorkloadResult r = harness::run_workload(cfg, site);
  const auto t1 = Clock::now();
  const CpuTimes c1 = cpu_now();
  rep.alloc = alloc_tally() - a0;
  tracer.close(span);
  rep.wall_s = std::chrono::duration<double>(t1 - t0).count();
  rep.cpu = {c1.user - c0.user, c1.sys - c0.sys};
  // Both engines count the stamp events in events_executed.
  const std::size_t epochs = epoch_stamps.size();
  auto from = t0;
  epoch_stamps.push_back(t1);
  for (const auto& stamp : epoch_stamps) {
    rep.segments_s.push_back(std::chrono::duration<double>(stamp - from).count());
    from = stamp;
  }

  check_fleet(r, verdict);
  counts["sim.events"] = static_cast<double>(r.events_executed - epochs);
  add_snapshot_counts(r.metrics, counts);
  counts["topo.queue.bn.up.drops"] = 0;  // star runs have no queues
  counts["topo.queue.bn.down.drops"] = 0;
  for (const harness::QueueSummary& q : r.queues) {
    counts["topo.queue." + q.label + ".drops"] =
        static_cast<double>(q.stats.dropped());
  }
  counts["server.responses_304"] = static_cast<double>(r.server.responses_304);
  counts["server.deflated_responses"] =
      static_cast<double>(r.server.deflated_responses);
  counts["client.page_p50_sim_s"] = r.median_page_seconds();
  counts["client.page_p95_sim_s"] = r.p95_page_seconds();
  counts["visits"] = static_cast<double>(r.clients.size());
  return rep;
}

struct GridRun {
  std::vector<GridCell> cells;
  bool cell_exact = false;  // set by each cell's inspect_robot
};

Rep run_grid_pass(GridRun& grid, const content::MicroscapeSite& site,
                  const std::string& pass_tag, Tracer& tracer, Verdict& verdict,
                  Counts& counts) {
  Rep rep;
  std::vector<CellOutcome> outcomes;
  std::vector<double> page_sim_s;
  outcomes.reserve(grid.cells.size());
  const AllocTally a0 = alloc_tally();
  const CpuTimes c0 = cpu_now();
  std::uint64_t responses_304 = 0, deflated = 0;
  const int pass_span = tracer.open("harness.grid_pass", pass_tag);
  for (const GridCell& cell : grid.cells) {
    grid.cell_exact = false;
    const int span = tracer.open("harness.run", cell.tag, pass_span);
    const auto t0 = Clock::now();
    const harness::RunResult r = harness::run_once(cell.spec, site);
    const double ms = since(t0) * 1e3;
    tracer.close(span);
    rep.wall_s += ms / 1e3;
    rep.segments_s.push_back(ms / 1e3);
    (cell.spec.scenario == harness::Scenario::kFirstVisit ? rep.cell_ms_first
                                                          : rep.cell_ms_reval)
        .push_back(ms);

    ++verdict.attempted;
    if (!r.robot.complete || !grid.cell_exact) {
      ++verdict.failed;
      verdict.fail(cell.tag + (r.robot.complete ? ": cache differs from site"
                                                : ": incomplete"));
    }
    outcomes.push_back({r.packets(), r.bytes(), r.seconds()});
    page_sim_s.push_back(r.seconds());
    add_snapshot_counts(r.metrics, counts);
    responses_304 += r.server.responses_304;
    deflated += r.server.deflated_responses;
  }
  const CpuTimes c1 = cpu_now();
  rep.alloc = alloc_tally() - a0;
  tracer.close(pass_span);
  rep.cpu = {c1.user - c0.user, c1.sys - c0.sys};

  // run_once exposes no event count; sim.events stays 0 on this workload.
  counts["sim.events"] = 0;
  counts["topo.queue.bn.up.drops"] = 0;
  counts["topo.queue.bn.down.drops"] = 0;
  counts["server.responses_304"] = static_cast<double>(responses_304);
  counts["server.deflated_responses"] = static_cast<double>(deflated);
  counts["client.page_p50_sim_s"] = quantile(page_sim_s, 0.50);
  counts["client.page_p95_sim_s"] = quantile(page_sim_s, 0.95);
  counts["paper_err_pct"] = paper_error_pct(outcomes);
  counts["visits"] = static_cast<double>(grid.cells.size());
  return rep;
}

/// The end-to-end time of one repetition on a quiet machine: each segment's
/// fastest time over all repetitions, summed. Neighbouring load on a shared
/// host slows stretches of a few seconds; a segment is short enough that
/// some repetition usually runs it undisturbed, so the sum repeats across
/// runs where a whole-repetition median does not. The colder first
/// repetition is included: a minimum cannot be inflated by it, and its
/// excess is reported on its own.
double segment_floor_s(const std::vector<Rep>& reps, Verdict& verdict) {
  std::vector<double> floor = reps[0].segments_s;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].segments_s.size() != floor.size()) {
      verdict.fail("timing segment count changed between repetitions");
      return 0;
    }
    for (std::size_t j = 0; j < floor.size(); ++j) {
      floor[j] = std::min(floor[j], reps[i].segments_s[j]);
    }
  }
  double total = 0;
  for (double seg : floor) total += seg;
  return total;
}

// ---- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string rev = "unknown";
  std::string spans_path;
  bool counts_only = false;
  FleetOverrides over;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "[--rev <id>] [--spans <file>] [--counts] [--clients N] "
               "[--threads T]\nworkloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  std::uint64_t v = 0;
  const char* end = s + std::char_traits<char>::length(s);
  const auto res = std::from_chars(s, end, v);
  if (res.ec != std::errc() || res.ptr != end) usage("bad integer argument");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--counts") {
      a.counts_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v));
    } else if (flag == "--rev") {
      a.rev = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--clients") {
      a.over.clients = static_cast<unsigned>(parse_u64(v));
    } else if (flag == "--threads") {
      a.over.threads = static_cast<int>(parse_u64(v));
    } else {
      usage("unknown flag");
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  return a;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

void print_provenance(const Args& a) {
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "# provenance {\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"release\": %s, \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"rev\": %s}\n",
      quoted(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      alloc_counting() ? "true" : "false", quoted(compiler).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), release ? "true" : "false",
      online_cpus(), std::thread::hardware_concurrency(),
      quoted(a.rev).c_str());
  if (!release) {
    std::printf("# WARNING: %s build; timings are not comparable to Release\n",
                PERFBENCH_BUILD_TYPE);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  print_provenance(args);
  const bool fleet = is_fleet(args.workload);
  Tracer tracer;

  // ---- set-up --------------------------------------------------------------
  // The first pass builds the shared site every run uses; later passes
  // rebuild it from scratch only to time set-up again.
  std::vector<double> setup_s;
  harness::WorkloadConfig fleet_cfg;
  GridRun grid;
  for (int k = 0; k < kSetupReps; ++k) {
    const int span = tracer.open("content.site_build", "pass" + std::to_string(k));
    const auto t0 = Clock::now();
    if (k == 0) {
      (void)harness::shared_site();
    } else {
      const content::MicroscapeSite fresh = content::build_microscape();
      (void)fresh;
    }
    if (fleet) {
      fleet_cfg = fleet_config(args.workload, args.seed, args.over);
    } else {
      grid.cells = grid_cells(args.seed);
    }
    setup_s.push_back(since(t0));
    tracer.close(span);
  }
  const content::MicroscapeSite& site = harness::shared_site();
  // Fleet timing segments: a host-clock stamp every kEpoch of simulated
  // time, taken by no-op events that only record the clock. Capacity is
  // reserved up front so recording allocates nothing inside the timed
  // region. The classic engine gets them through the on_epoch hook. The
  // sharded engine merges every shard's registry at each on_epoch, which
  // multiplies its run time, so there the stamps are plain events on shard
  // 0's queue (server and bottleneck), scheduled from on_topology.
  std::vector<Clock::time_point> epoch_stamps;
  if (fleet) {
    const auto stamp = [&epoch_stamps] { epoch_stamps.push_back(Clock::now()); };
    if (fleet_cfg.threads == 0) {
      fleet_cfg.epoch = kEpoch;
      fleet_cfg.on_epoch = stamp;
    } else {
      fleet_cfg.on_topology = [stamp, horizon = fleet_cfg.horizon](
                                  topo::Topology&, sim::EventQueue& queue0) {
        for (sim::Time t = kEpoch; t <= horizon; t += kEpoch) {
          queue0.schedule_at(t, stamp);
        }
      };
    }
    epoch_stamps.reserve(
        static_cast<std::size_t>(fleet_cfg.horizon / kEpoch) + 2);
  }
  for (GridCell& cell : grid.cells) {
    cell.spec.inspect_robot = [&grid, &site](client::Robot& robot) {
      grid.cell_exact = harness::cache_matches_site(robot.cache(), site);
    };
  }

  // ---- measure -------------------------------------------------------------
  Verdict verdict;
  Counts counts;
  std::vector<Rep> reps;
  const auto measure_start = Clock::now();
  const std::size_t rep_count =
      args.counts_only
          ? 1
          : std::max<std::size_t>(2, static_cast<std::size_t>(
                                         args.seconds /
                                         rep_budget_seconds(args.workload)));
  while (reps.size() < rep_count) {
    const std::string tag = args.workload + "/rep" + std::to_string(reps.size());
    Counts c;
    reps.push_back(fleet ? run_fleet_rep(fleet_cfg, site, tag, epoch_stamps,
                                         tracer, verdict, c)
                         : run_grid_pass(grid, site, tag, tracer, verdict, c));
    if (reps.size() == 1) {
      counts = c;
    } else if (c != counts) {
      verdict.fail("deterministic counts changed between repetitions");
    }
  }
  const double measure_s = since(measure_start);

  if (args.counts_only) {
    std::string out = "{";
    for (const auto& [name, value] : counts) {
      out += (out.size() > 1 ? ", " : "") + quoted(name) + ": " + number(value);
    }
    if (alloc_counting()) {
      out += ", \"alloc.count\": " + number(static_cast<double>(reps[0].alloc.count));
      out += ", \"alloc.bytes\": " + number(static_cast<double>(reps[0].alloc.bytes));
    }
    std::printf("%s}\n", out.c_str());
    for (const std::string& p : verdict.problems) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
    }
    return verdict.ok() ? 0 : 1;
  }

  // ---- replays (traced binary) ---------------------------------------------
  ReplayResult http_replay, h2_replay, inflate_replay;
  if (alloc_counting()) {
    const auto replay = [&](bool used, const char* name, auto fn,
                            ReplayResult& out) {
      if (!used) return;
      const int span = tracer.open(name, args.workload);
      out = fn(site, kReplaySeconds);
      tracer.close(span);
      if (!out.error.empty()) verdict.fail(out.error);
    };
    replay(uses_http11(args.workload), "http.parse_replay", replay_http_parse,
           http_replay);
    replay(uses_h2(args.workload), "h2.codec_replay", replay_h2_codec,
           h2_replay);
    replay(uses_deflate(args.workload), "deflate.inflate_replay",
           replay_inflate, inflate_replay);
  }

  // ---- metrics ---------------------------------------------------------------
  std::vector<double> walls, cpu_user, cpu_sys, cpu_per_wall, allocs,
      alloc_bytes;
  std::vector<double> cells_first, cells_reval;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    walls.push_back(r.wall_s);
    cpu_user.push_back(r.cpu.user);
    cpu_sys.push_back(r.cpu.sys);
    cpu_per_wall.push_back((r.cpu.user + r.cpu.sys) / r.wall_s);
    allocs.push_back(static_cast<double>(r.alloc.count));
    alloc_bytes.push_back(static_cast<double>(r.alloc.bytes));
    cells_first.insert(cells_first.end(), r.cell_ms_first.begin(),
                       r.cell_ms_first.end());
    cells_reval.insert(cells_reval.end(), r.cell_ms_reval.begin(),
                       r.cell_ms_reval.end());
  }
  std::vector<double> cells_all = cells_first;
  cells_all.insert(cells_all.end(), cells_reval.begin(), cells_reval.end());

  const double wall = segment_floor_s(reps, verdict);
  const double visits = counts["visits"];
  const double events = counts["sim.events"];
  const double alloc_med = median(allocs);
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  const auto emit = [&metrics](const std::string& name, double value,
                               const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  emit("setup_s", median(setup_s), "s");
  emit("wall_s", wall, "s");
  emit("peak_rss_mb", peak_rss_mb(), "MB");
  emit("failed_frac", per(static_cast<double>(verdict.failed),
                          static_cast<double>(verdict.attempted)), "ratio");
  emit("wall_median_s", median(walls), "s");
  emit("first_run_excess_pct", (reps[0].wall_s / median(walls) - 1.0) * 100.0,
       "%");
  emit("cell_p50_ms", cells_all.empty() ? 0 : quantile(cells_all, 0.50), "ms");
  emit("cell_p95_ms", cells_all.empty() ? 0 : quantile(cells_all, 0.95), "ms");
  emit("paper_err_pct", counts["paper_err_pct"], "%");
  emit("measured_reps", static_cast<double>(walls.size()), "count");

  emit("content.site_build_s", median(setup_s), "s");
  emit("harness.run_s", wall, "s");
  emit("harness.cell_ms.first", cells_first.empty() ? 0 : median(cells_first), "ms");
  emit("harness.cell_ms.reval", cells_reval.empty() ? 0 : median(cells_reval), "ms");
  emit("sim.events", events, "count");
  emit("sim.events_per_s", per(events, wall), "1/s");
  emit("shard.cpu_s", median(cpu_user), "s");
  emit("shard.sys_s", median(cpu_sys), "s");
  emit("shard.cpu_per_wall", median(cpu_per_wall), "ratio");
  for (const char* name :
       {"net.link.packets_sent", "net.link.wire_bytes", "net.link.dropped_queue",
        "tcp.segments_sent", "tcp.retransmits", "tcp.rto_fires",
        "tcp.connections_opened", "topo.router.forwarded",
        "topo.queue.bn.up.drops", "topo.queue.bn.down.drops", "h2.frames",
        "h2.flow_stalls", "h2.pushes_accepted", "client.requests_sent",
        "server.requests_served", "server.responses_304",
        "server.deflated_responses"}) {
    emit(name, counts[name], "count");
  }
  emit("net.packets_per_s", per(counts["net.link.packets_sent"], wall), "1/s");
  emit("h2.frames_per_s", per(counts["h2.frames"], wall), "1/s");
  emit("client.page_p50_sim_s", counts["client.page_p50_sim_s"], "s");
  emit("client.page_p95_sim_s", counts["client.page_p95_sim_s"], "s");
  emit("http.parse_us_per_page", http_replay.us_per_page, "us");
  emit("h2.codec_us_per_page", h2_replay.us_per_page, "us");
  emit("deflate.inflate_us_per_page", inflate_replay.us_per_page, "us");
  if (alloc_counting()) {
    emit("sim.allocs_per_event", per(alloc_med, events), "ratio");
    emit("alloc.per_page", fleet ? per(alloc_med, visits) : 0, "count");
    emit("alloc.bytes_per_page", fleet ? per(median(alloc_bytes), visits) : 0, "B");
    emit("harness.allocs_per_cell", fleet ? 0 : per(alloc_med, visits), "count");
  }

  std::printf("# %s seed %llu: %zu repetitions in %.3f s (first excluded "
              "from medians), %llu visits checked\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), measure_s,
              static_cast<unsigned long long>(verdict.attempted));
  std::string rep_walls;
  for (const Rep& r : reps) rep_walls += " " + number(r.wall_s);
  std::printf("# repetition wall_s:%s\n", rep_walls.c_str());
  for (const auto& [name, v] : metrics) {
    std::printf("# %-28s %s %s\n", name.c_str(), number(v.first).c_str(),
                v.second);
  }
  for (const std::string& p : verdict.problems) {
    std::printf("# FAILED %s\n", p.c_str());
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
  if (!args.spans_path.empty() && alloc_counting()) {
    if (tracer.write(args.spans_path)) {
      std::printf("# %zu spans written to %s\n", tracer.size(),
                  args.spans_path.c_str());
    } else {
      verdict.fail("cannot write spans to " + args.spans_path);
    }
  }

  std::string out = "{\"correct\": ";
  out += verdict.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(verdict.attempted);
  out += ", \"failed\": " + std::to_string(verdict.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quoted(metrics[i].first) + ": {\"value\": " +
           number(metrics[i].second.first) +
           ", \"unit\": " + quoted(metrics[i].second.second) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  return verdict.ok() ? 0 : 1;
}
