#include "topo/router.hpp"

#include <utility>

namespace hsim::topo {

Router::Metrics Router::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  m.forwarded = obs::counter_handle("topo.router.forwarded");
  m.dropped_queue = obs::counter_handle("topo.router.dropped_queue");
  m.dropped_no_route = obs::counter_handle("topo.router.dropped_no_route");
  m.dropped_crashed = obs::counter_handle("topo.router.dropped_crashed");
  m.crash_flushed = obs::counter_handle("topo.router.crash_flushed");
  m.failovers = obs::counter_handle("topo.router.failovers");
  m.failbacks = obs::counter_handle("topo.router.failbacks");
  return m;
}

Router::Router(sim::EventQueue& queue, std::int32_t id, std::string name)
    : queue_(queue), id_(id), name_(std::move(name)) {}

std::size_t Router::add_egress(net::Link* link,
                               std::unique_ptr<QueueDisc> disc) {
  const std::size_t index = egresses_.size();
  egresses_.push_back({link, std::move(disc)});
  // Back-pressure: when the transmitter drains, clock out the next packet.
  link->set_on_idle([this, index] { pump(index); });
  return index;
}

void Router::add_route(net::IpAddr dst, std::size_t egress) {
  routes_[dst] = egress;
}

std::size_t Router::route_for(net::IpAddr dst) const {
  if (const std::size_t* egress = routes_.find(dst)) return *egress;
  return default_route_;
}

void Router::crash() {
  if (crashed_) return;
  crashed_ = true;
  for (std::size_t i = 0; i < egresses_.size(); ++i) {
    const std::size_t flushed = egresses_[i].disc->flush_all();
    stats_.crash_flushed += flushed;
    metrics_.crash_flushed.inc(flushed);
  }
}

void Router::restart() {
  if (!crashed_) return;
  crashed_ = false;
  for (std::size_t i = 0; i < egresses_.size(); ++i) pump(i);
}

void Router::schedule_crash(sim::Time down_at, sim::Time up_at) {
  queue_.schedule_at(down_at, [this] { crash(); });
  queue_.schedule_at(up_at, [this] { restart(); });
}

void Router::set_egress_wedged(std::size_t egress, bool wedged) {
  Egress& e = egresses_[egress];
  if (e.wedged == wedged) return;
  e.wedged = wedged;
  if (!wedged) pump(egress);
}

void Router::set_failover(std::size_t primary, std::size_t backup,
                          sim::Time detection_delay) {
  Failover f;
  f.primary = primary;
  f.backup = backup;
  f.detection_delay = detection_delay;
  failovers_.push_back(f);
}

std::size_t Router::resolve_failover(std::size_t egress) {
  for (Failover& f : failovers_) {
    if (f.primary != egress) continue;
    const sim::Time now = queue_.now();
    const bool primary_down = egresses_[f.primary].link->is_down(now);
    if (!f.using_backup) {
      if (primary_down) {
        if (!f.down_observed) {
          f.down_observed = true;
          f.down_since = now;
        }
        if (now - f.down_since >= f.detection_delay) {
          f.using_backup = true;
          f.up_observed = false;
          ++stats_.failovers;
          metrics_.failovers.inc();
          return f.backup;
        }
      } else {
        f.down_observed = false;
      }
      return f.primary;
    }
    // Using the backup: watch the primary for sustained recovery.
    if (!primary_down) {
      if (!f.up_observed) {
        f.up_observed = true;
        f.up_since = now;
      }
      if (now - f.up_since >= f.detection_delay) {
        f.using_backup = false;
        f.down_observed = false;
        ++stats_.failbacks;
        metrics_.failbacks.inc();
        return f.primary;
      }
    } else {
      f.up_observed = false;
    }
    return f.backup;
  }
  return egress;
}

void Router::deliver(net::Packet packet) {
  if (crashed_) {
    ++stats_.dropped_crashed;
    metrics_.dropped_crashed.inc();
    return;
  }
  std::size_t index = route_for(packet.dst);
  if (index == kNoRoute) {
    ++stats_.dropped_no_route;
    metrics_.dropped_no_route.inc();
    return;
  }
  index = resolve_failover(index);
  Egress& egress = egresses_[index];
  const std::uint32_t depth_at_enqueue =
      static_cast<std::uint32_t>(egress.disc->depth_packets());
  net::Packet snapshot;
  if (hop_trace_ != nullptr) snapshot = packet;  // cheap: payload is refcounted
  const DropReason reason =
      egress.disc->enqueue(std::move(packet), queue_.now());
  if (reason != DropReason::kAccepted) {
    ++stats_.dropped_queue;
    metrics_.dropped_queue.inc();
    return;
  }
  ++stats_.forwarded;
  metrics_.forwarded.inc();
  if (hop_trace_ != nullptr) {
    hop_trace_->record_hop(queue_.now(), snapshot, id_, depth_at_enqueue);
  }
  pump(index);
}

void Router::pump(std::size_t index) {
  Egress& egress = egresses_[index];
  if (egress.wedged || crashed_) return;
  // transmit() may decline to start a transmission (fault-injection loss),
  // leaving the link idle — keep feeding until it is actually busy or the
  // discipline runs dry.
  while (!egress.disc->empty() && !egress.link->transmitting()) {
    egress.link->transmit(egress.disc->dequeue(queue_.now()));
  }
}

}  // namespace hsim::topo
