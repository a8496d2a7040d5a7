#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace hsim;
using client::ProtocolMode;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kFleetH11, kFleetH2,
                                                 kPaperGrid, kFleetH11T2};
  return names;
}

bool is_fleet(const std::string& w) { return w != kPaperGrid; }
bool uses_http11(const std::string& w) { return w != kFleetH2; }
bool uses_h2(const std::string& w) { return w == kFleetH2 || w == kPaperGrid; }
bool uses_deflate(const std::string& w) { return w == kPaperGrid; }

// About 15% above a Release repetition on a shared 4-vCPU 2.0 GHz Xeon
// virtual machine (fleet-h11 4.2-4.3 s, fleet-h2 4.5-4.6 s, paper-grid
// 1.7 s, fleet-h11-t2 4.9-5.4 s), which runs 20-35% slower at times, so a
// run at --seconds 25 measures 5, 5, 12 and 4 repetitions in about 25 s.
double rep_budget_seconds(const std::string& w) {
  if (w == kPaperGrid) return 2.0;
  if (w == kFleetH11T2) return 6.0;
  return 5.0;
}

harness::WorkloadConfig fleet_config(const std::string& workload,
                                     std::uint64_t seed,
                                     const FleetOverrides& over) {
  const bool h2 = workload == kFleetH2;
  harness::WorkloadConfig cfg;
  cfg.num_clients = over.clients != 0 ? over.clients : kFleetClients;
  cfg.topology =
      h2 ? harness::TopologyKind::kStar : harness::TopologyKind::kDumbbell;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 10'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 256;
  cfg.master_seed = seed;
  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 512;
  cfg.server.max_concurrent_connections = 256;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;
  cfg.client = harness::robot_config(h2 ? ProtocolMode::kH2
                                        : ProtocolMode::kHttp11Pipelined);
  cfg.client.page_deadline = sim::seconds(420);
  cfg.verify_cache = true;
  if (workload == kFleetH11T2) {
    cfg.threads = 2;
    cfg.shards = kT2Shards;
  }
  if (over.threads >= 0) cfg.threads = static_cast<unsigned>(over.threads);
  return cfg;
}

void Verdict::fail(std::string why) {
  if (problems.size() < 8) problems.push_back(std::move(why));
}

void check_fleet(const harness::WorkloadResult& r, Verdict& v) {
  for (const harness::ClientOutcome& c : r.clients) {
    ++v.attempted;
    const char* why = !c.resolved              ? "unresolved"
                      : !c.complete()          ? "incomplete"
                      : !c.byte_exact          ? "cache differs from site"
                      : c.leaked_connections ? "leaked connections"
                                               : nullptr;
    if (why != nullptr) {
      ++v.failed;
      v.fail("client " + std::to_string(c.id) + ": " + why);
    }
  }
  if (r.server_open_after_drain != 0) {
    v.fail("server holds " + std::to_string(r.server_open_after_drain) +
           " connections after drain");
  }
}

// ---- paper-grid ------------------------------------------------------------

namespace {

struct Net {
  const char* name;
  harness::NetworkProfile (*profile)();
};
const Net kNets[] = {{"lan", harness::lan_profile},
                     {"wan", harness::wan_profile},
                     {"ppp", harness::ppp_profile}};

struct Srv {
  const char* name;
  server::ServerConfig (*config)();
};
const Srv kServers[] = {{"jigsaw", server::jigsaw_config},
                        {"apache", server::apache_config}};

struct Proto {
  const char* name;
  ProtocolMode mode;
};
const Proto kProtos[] = {{"http10", ProtocolMode::kHttp10Parallel},
                         {"persistent", ProtocolMode::kHttp11Persistent},
                         {"pipelined", ProtocolMode::kHttp11Pipelined},
                         {"pipelined-deflate",
                          ProtocolMode::kHttp11PipelinedCompressed},
                         {"h2", ProtocolMode::kH2}};

const harness::Scenario kScenarios[] = {harness::Scenario::kFirstVisit,
                                        harness::Scenario::kRevalidation};
const char* scenario_name(harness::Scenario s) {
  return s == harness::Scenario::kFirstVisit ? "first" : "reval";
}

// The paper's published Pa / Bytes / Sec, Tables 4-9, indexed
// [net][server][protocol][scenario]. The paper has no HTTP/1.0 row on PPP
// and predates h2; those entries stay zero and are skipped.
struct Ref {
  double pa, bytes, sec;
};
using ProtoRefs = Ref[5][2];
const ProtoRefs kPaper[3][2] = {
    // LAN: Table 4 (Jigsaw), Table 5 (Apache)
    {{{{510.2, 216289, 0.97}, {374.8, 61117, 0.78}},
      {{281.0, 191843, 1.25}, {133.4, 17694, 0.89}},
      {{181.8, 191551, 0.68}, {32.8, 17694, 0.54}},
      {{148.8, 159654, 0.71}, {32.6, 17687, 0.54}},
      {}},
     {{{489.4, 215536, 0.72}, {365.4, 60605, 0.41}},
      {{244.2, 189023, 0.81}, {98.4, 14009, 0.40}},
      {{175.8, 189607, 0.49}, {29.2, 14009, 0.23}},
      {{139.8, 156834, 0.41}, {28.4, 14002, 0.23}},
      {}}},
    // WAN: Table 6 (Jigsaw), Table 7 (Apache)
    {{{{565.8, 251913, 4.17}, {389.2, 62348, 2.96}},
      {{304.0, 193595, 6.64}, {137.0, 18065.6, 4.95}},
      {{214.2, 193887, 2.33}, {34.8, 18233.2, 1.10}},
      {{183.2, 161698, 2.09}, {35.4, 19102.2, 1.15}},
      {}},
     {{{559.6, 248655.2, 4.09}, {370.0, 61887, 2.64}},
      {{309.4, 191436.0, 6.14}, {104.2, 14255, 4.43}},
      {{221.4, 191180.6, 2.23}, {29.8, 15352, 0.86}},
      {{182.0, 159170.0, 2.11}, {29.0, 15088, 0.83}},
      {}}},
    // PPP: Table 8 (Jigsaw), Table 9 (Apache)
    {{{},
      {{309.6, 190687, 63.8}, {89.2, 17528, 12.9}},
      {{284.4, 190735, 53.3}, {31.0, 17598, 5.4}},
      {{234.2, 159449, 47.4}, {31.0, 17591, 5.4}},
      {}},
     {{},
      {{308.6, 187869, 65.6}, {89.0, 13843, 11.1}},
      {{281.4, 187918, 53.4}, {26.0, 13912, 3.4}},
      {{233.0, 157214, 47.2}, {26.0, 13905, 3.4}},
      {}}},
};

}  // namespace

const std::vector<GridGroup>& grid_groups() {
  static const std::vector<GridGroup> groups = [] {
    std::vector<GridGroup> out;
    for (std::size_t n = 0; n < 3; ++n) {
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t p = 0; p < 5; ++p) {
          for (std::size_t c = 0; c < 2; ++c) {
            const Ref& ref = kPaper[n][s][p][c];
            GridGroup g;
            g.tag = std::string(kNets[n].name) + "/" + kServers[s].name + "/" +
                    kProtos[p].name + "/" + scenario_name(kScenarios[c]);
            g.has_paper = ref.pa != 0;
            g.paper_pa = ref.pa;
            g.paper_bytes = ref.bytes;
            g.paper_sec = ref.sec;
            out.push_back(std::move(g));
          }
        }
      }
    }
    return out;
  }();
  return groups;
}

std::vector<GridCell> grid_cells(std::uint64_t seed) {
  std::vector<GridCell> cells;
  std::size_t group = 0;
  for (const Net& net : kNets) {
    for (const Srv& srv : kServers) {
      for (const Proto& proto : kProtos) {
        for (harness::Scenario scenario : kScenarios) {
          for (unsigned i = 0; i < kGridSeeds; ++i) {
            GridCell cell;
            cell.spec.network = net.profile();
            cell.spec.server = srv.config();
            cell.spec.client = harness::robot_config(proto.mode);
            cell.spec.scenario = scenario;
            cell.spec.seed = seed + i * 7919;
            cell.tag = grid_groups()[group].tag + "/s" + std::to_string(i);
            cells.push_back(std::move(cell));
          }
          ++group;
        }
      }
    }
  }
  return cells;
}

double paper_error_pct(const std::vector<CellOutcome>& outcomes) {
  const std::vector<GridGroup>& groups = grid_groups();
  std::vector<CellOutcome> mean(groups.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    CellOutcome& m = mean[i / kGridSeeds];
    m.pa += outcomes[i].pa / kGridSeeds;
    m.bytes += outcomes[i].bytes / kGridSeeds;
    m.sec += outcomes[i].sec / kGridSeeds;
  }
  std::vector<double> errors;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!groups[g].has_paper) continue;
    const auto err = [](double sim, double paper) {
      return std::fabs(sim - paper) / paper * 100.0;
    };
    errors.push_back(err(mean[g].pa, groups[g].paper_pa));
    errors.push_back(err(mean[g].bytes, groups[g].paper_bytes));
    errors.push_back(err(mean[g].sec, groups[g].paper_sec));
  }
  if (errors.empty()) return 0.0;
  const std::size_t mid = errors.size() / 2;
  std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
  if (errors.size() % 2 == 1) return errors[mid];
  const double hi = errors[mid];
  return (*std::max_element(errors.begin(), errors.begin() + mid) + hi) / 2;
}

}  // namespace perfbench
