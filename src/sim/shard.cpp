#include "sim/shard.hpp"

#include <algorithm>
#include <utility>

namespace hsim::sim {

namespace {
thread_local std::size_t tls_current_shard = ShardedEngine::kNoShard;

/// Spins briefly, then yields: rounds are microseconds apart when traffic is
/// flowing, so the fast path should not pay a futex sleep, but an idle or
/// unbalanced phase must not burn a core either.
template <typename Pred>
void spin_wait(Pred&& ready) {
  for (int i = 0; i < 4096; ++i) {
    if (ready()) return;
  }
  while (!ready()) std::this_thread::yield();
}
}  // namespace

ShardedEngine::ShardedEngine(Config config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.lookahead < 1) config_.lookahead = 1;
  const unsigned workers = std::max(
      1u, std::min(config_.threads,
                   static_cast<unsigned>(config_.shards)));
  config_.threads = workers;

  queues_.reserve(config_.shards);
  shards_ = std::vector<ShardState>(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    queues_.push_back(std::make_unique<EventQueue>());
    queues_.back()->set_shard(static_cast<std::uint32_t>(s));
  }

  // Static shard->worker map. Worker 0 (the coordinating thread itself) gets
  // shard 0 alone when it can: shard 0 carries the server plus the shared
  // bottleneck in the harness layouts, so it is the heaviest slice.
  assignment_.assign(workers, {});
  if (workers == 1) {
    for (std::size_t s = 0; s < config_.shards; ++s)
      assignment_[0].push_back(s);
  } else {
    assignment_[0].push_back(0);
    for (std::size_t s = 1; s < config_.shards; ++s)
      assignment_[1 + (s - 1) % (workers - 1)].push_back(s);
  }

  threads_.reserve(workers > 0 ? workers - 1 : 0);
  for (unsigned w = 1; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (std::thread& t : threads_) t.join();
}

std::size_t ShardedEngine::current_shard() { return tls_current_shard; }

void ShardedEngine::post(std::size_t dst, Time when,
                         EventQueue::Callback cb) {
  const std::size_t src = tls_current_shard;
  ShardState& state = shards_[src];
  EventKey key;
  key.when = when;
  key.sched = queues_[src]->now();
  key.src = static_cast<std::uint32_t>(src);
  key.seq = state.msg_seq++;
  state.outbox.push_back(Message{dst, key, std::move(cb)});
}

void ShardedEngine::set_epochs(Time interval, Time last,
                               std::function<void(Time)> fn) {
  epoch_interval_ = interval;
  epoch_last_ = last;
  next_epoch_ = interval;
  on_epoch_ = std::move(fn);
}

void ShardedEngine::inject_pending() {
  // Shard order then post order — canonical regardless of which worker ran
  // which shard. The destination queue orders events by the carried key
  // anyway; this only fixes which callback slots (and so which TimerIds) the
  // injected events get, which nothing observes, but determinism is cheaper
  // to guarantee than to argue about.
  for (ShardState& state : shards_) {
    for (Message& msg : state.outbox) {
      if (msg.key.when < last_round_end_) ++violations_;
      queues_[msg.dst]->schedule_cross(msg.key, std::move(msg.fn));
    }
    state.outbox.clear();
  }
}

void ShardedEngine::run_slice(unsigned worker) {
  for (std::size_t s : assignment_[worker]) {
    tls_current_shard = s;
    if (enter_) enter_(s);
    shards_[s].executed += queues_[s]->run_until(round_end_ - 1);
    tls_current_shard = kNoShard;
  }
}

void ShardedEngine::worker_main(unsigned worker) {
  std::uint64_t seen = 0;
  while (true) {
    spin_wait([&] {
      return generation_.load(std::memory_order_acquire) != seen;
    });
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    run_slice(worker);
    done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::size_t ShardedEngine::run_until(Time deadline) {
  std::size_t before = epoch_events_;
  for (const ShardState& s : shards_) before += s.executed;

  const unsigned workers = config_.threads;
  while (true) {
    inject_pending();

    Time t_min = EventQueue::kNoEvent;
    for (auto& q : queues_) t_min = std::min(t_min, q->next_event_time());

    // Epochs fire at barriers where the whole simulation has crossed the
    // epoch time: everything before it has executed, nothing at or after it
    // has. The round bound below never runs past a pending epoch, so the
    // first t_min >= next_epoch_ is exactly that instant.
    if (on_epoch_ && next_epoch_ <= epoch_last_ &&
        t_min >= next_epoch_ && next_epoch_ <= deadline) {
      const Time at = next_epoch_;
      next_epoch_ += epoch_interval_;
      ++epoch_events_;
      now_ = at;
      on_epoch_(at);
      continue;  // the oracle may have scheduled events; recompute
    }

    if (t_min == EventQueue::kNoEvent || t_min > deadline) break;

    // A lone shard can receive no cross-shard message, so it needs no
    // lookahead window: it runs to the next epoch or the deadline in one
    // slice.
    round_end_ = queues_.size() == 1 ? deadline + 1 : t_min + config_.lookahead;
    if (on_epoch_ && next_epoch_ <= epoch_last_ && next_epoch_ < round_end_) {
      round_end_ = next_epoch_;
    }
    if (round_end_ > deadline) round_end_ = deadline + 1;

    if (workers == 1) {
      run_slice(0);
    } else {
      done_.store(0, std::memory_order_release);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      run_slice(0);
      spin_wait([&] {
        return done_.load(std::memory_order_acquire) == workers - 1;
      });
    }
    last_round_end_ = round_end_;
  }

  // Mirror EventQueue::run_until's trailing clock semantics, per shard and
  // for the engine clock.
  bool any_pending = false;
  Time last_executed = 0;
  for (auto& q : queues_) {
    if (q->next_event_time() != EventQueue::kNoEvent) {
      q->advance_to(deadline);
      any_pending = true;
    }
    last_executed = std::max(last_executed, q->now());
  }
  now_ = any_pending ? std::max(now_, deadline) : std::max(now_, last_executed);

  std::size_t after = epoch_events_;
  for (const ShardState& s : shards_) after += s.executed;
  return after - before;
}

}  // namespace hsim::sim
