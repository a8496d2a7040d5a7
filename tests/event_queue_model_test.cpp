// Seeded differential test of sim::EventQueue against a reference model.
//
// The model is an ordered std::map keyed by EventKey (the pending set) plus
// the clock. Every operation is applied to both; each executed callback pops
// the model's smallest key and checks it is the event that actually ran, at
// that time, with the exact pending count. The operation mix covers
// schedule_at (including past times, which clamp), schedule_in,
// schedule_cross with foreign source shards, cancel of live, fired and
// cancelled ids, Timer re-arm and destruction, scheduling from inside
// callbacks, step, run_until and next_event_time.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/random.hpp"

namespace hsim::sim {
namespace {

constexpr std::uint32_t kShard = 2;  // foreign sources sort on both sides

/// The reference order, written out independently of EventKey::operator<.
struct ModelOrder {
  bool operator()(const EventKey& a, const EventKey& b) const {
    return std::tie(a.when, a.sched, a.src, a.seq) <
           std::tie(b.when, b.sched, b.src, b.seq);
  }
};

class ModelHarness {
 public:
  explicit ModelHarness(std::uint64_t seed) : rng_(seed) {
    q_.set_shard(kShard);
    for (auto& t : timers_) t.emplace(q_);
  }

  /// Applies one random operation to queue and model, then checks them.
  void random_op() {
    const std::int64_t pick = rng_.uniform(0, 99);
    if (pick < 22) {
      // Past times are legal and clamp to now().
      schedule_local(q_.now() + rng_.uniform(-5, 40), /*absolute=*/true);
    } else if (pick < 38) {
      schedule_local(rng_.uniform(0, 40), /*absolute=*/false);
    } else if (pick < 46) {
      schedule_foreign();
    } else if (pick < 60) {
      cancel_some();
    } else if (pick < 72) {
      arm_timer(static_cast<std::size_t>(rng_.uniform(0, kTimers - 1)));
    } else if (pick < 75) {
      destroy_timer(static_cast<std::size_t>(rng_.uniform(0, kTimers - 1)));
    } else if (pick < 88) {
      step();
    } else if (pick < 97) {
      run_until(q_.now() + rng_.uniform(0, 30));
    } else {
      const Time expected =
          model_.empty() ? EventQueue::kNoEvent : model_.begin()->first.when;
      ASSERT_EQ(q_.next_event_time(), expected);
    }
    check();
  }

  /// Re-arms timers with far deadlines while the clock crawls, so cancelled
  /// entries pile up in the heap faster than time reaches them.
  void churn_op() {
    const std::int64_t pick = rng_.uniform(0, 99);
    if (pick < 85) {
      arm_timer(static_cast<std::size_t>(rng_.uniform(0, kTimers - 1)),
                /*far=*/true);
    } else if (pick < 95) {
      schedule_local(rng_.uniform(0, 3), /*absolute=*/false);
    } else {
      step();
    }
    check();
  }

  void drain() {
    fired_in_call_ = 0;
    ASSERT_EQ(q_.run(), fired_in_call_);
    check();
    ASSERT_TRUE(q_.empty());
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancels_accepted() const { return cancels_accepted_; }
  /// Pending timer fires replaced by a re-arm (each leaves a dead entry).
  std::uint64_t rearm_cancels() const { return rearm_cancels_; }

 private:
  static constexpr std::size_t kTimers = 16;

  struct Info {
    std::uint64_t label;
    int timer = -1;  // timer index for Timer thunks
  };
  struct Issued {
    TimerId id;
    EventKey key;
  };

  /// The callback body every event runs: the model's earliest key must be
  /// this event, at this time.
  void on_fire(std::uint64_t label) {
    ++fired_;
    ++fired_in_call_;
    ASSERT_FALSE(model_.empty()) << "event " << label << " ran unexpectedly";
    const auto it = model_.begin();
    ASSERT_EQ(it->second.label, label) << "out of order at " << q_.now();
    ASSERT_EQ(q_.now(), it->first.when);
    if (it->second.timer >= 0) {
      ASSERT_FALSE(timers_[it->second.timer]->armed());
      timer_key_[it->second.timer].reset();
    }
    model_.erase(it);
    model_now_ = q_.now();
    // The running event is no longer pending.
    ASSERT_EQ(q_.pending(), model_.size());
    // Nested scheduling from inside a callback.
    if (rng_.chance(0.3)) schedule_local(rng_.uniform(0, 20), false);
    if (rng_.chance(0.1)) cancel_some();
  }

  Callback make_callback(std::uint64_t label) {
    // Alternate capture shapes: trivially copyable, owning (relocated by
    // move), and larger than the inline buffer (heap fallback).
    switch (label % 3) {
      case 0:
        return [this, label] { on_fire(label); };
      case 1:
        return [this, label, owned = std::make_shared<std::string>("x")] {
          ASSERT_EQ(*owned, "x");
          on_fire(label);
        };
      default: {
        std::array<std::uint64_t, 16> big{};
        big[15] = label;
        return [this, big] { on_fire(big[15]); };
      }
    }
  }

  void schedule_local(Time t, bool absolute) {
    const std::uint64_t label = next_label_++;
    const Time when = absolute ? std::max(t, model_now_) : model_now_ + t;
    const EventKey key{when, model_now_, kShard, next_seq_++};
    const TimerId id = absolute ? q_.schedule_at(t, make_callback(label))
                                : q_.schedule_in(t, make_callback(label));
    ASSERT_TRUE(id);
    model_.emplace(key, Info{label});
    issued_.push_back(Issued{id, key});
  }

  void schedule_foreign() {
    // A cross-shard delivery: never in the past, schedule time at or before
    // the fire time, its own source's sequence.
    static constexpr std::array<std::uint32_t, 3> kSources = {0, 1, 5};
    const std::uint32_t src = kSources[rng_.uniform(0, 2)];
    EventKey key;
    key.when = model_now_ + rng_.uniform(0, 25);
    key.sched = std::max<Time>(0, key.when - rng_.uniform(0, 40));
    key.src = src;
    key.seq = ++foreign_seq_[src];
    const std::uint64_t label = next_label_++;
    const TimerId id = q_.schedule_cross(key, make_callback(label));
    model_.emplace(key, Info{label});
    issued_.push_back(Issued{id, key});
  }

  void cancel_some() {
    if (issued_.empty()) return;
    // Bias toward recent ids (mostly live), but reach back to fired and
    // already-cancelled ones too.
    const auto n = static_cast<std::int64_t>(issued_.size());
    const std::int64_t lo = rng_.chance(0.7) ? std::max<std::int64_t>(0, n - 8)
                                              : 0;
    const Issued& pick = issued_[rng_.uniform(lo, n - 1)];
    const bool live = model_.count(pick.key) != 0;
    ASSERT_EQ(q_.cancel(pick.id), live);
    if (live) {
      model_.erase(pick.key);
      ++cancels_accepted_;
    }
    ASSERT_FALSE(q_.cancel(pick.id));  // never twice
  }

  void arm_timer(std::size_t t, bool far = false) {
    if (!timers_[t]) timers_[t].emplace(q_);
    if (timer_key_[t]) {
      model_.erase(*timer_key_[t]);  // re-arm cancels
      ++rearm_cancels_;
    }
    const Time delay = far ? rng_.uniform(100000, 200000) : rng_.uniform(0, 40);
    const std::uint64_t label = next_label_++;
    const EventKey key{model_now_ + delay, model_now_, kShard, next_seq_++};
    timers_[t]->arm(delay, [this, label] { on_fire(label); });
    ASSERT_TRUE(timers_[t]->armed());
    model_.emplace(key, Info{label, static_cast<int>(t)});
    timer_key_[t] = key;
  }

  void destroy_timer(std::size_t t) {
    if (timer_key_[t]) model_.erase(*timer_key_[t]);
    timer_key_[t].reset();
    timers_[t].reset();
  }

  void step() {
    const bool any = !model_.empty();
    fired_in_call_ = 0;
    ASSERT_EQ(q_.step(), any);
    ASSERT_EQ(fired_in_call_, any ? 1u : 0u);
  }

  void run_until(Time deadline) {
    fired_in_call_ = 0;
    const std::size_t n = q_.run_until(deadline);
    ASSERT_EQ(n, fired_in_call_);
    if (!model_.empty()) {
      ASSERT_GT(model_.begin()->first.when, deadline);
      model_now_ = std::max(model_now_, deadline);
    }
  }

  void check() {
    ASSERT_EQ(q_.now(), model_now_);
    ASSERT_EQ(q_.pending(), model_.size());
    ASSERT_EQ(q_.empty(), model_.empty());
    for (std::size_t t = 0; t < kTimers; ++t) {
      ASSERT_EQ(timers_[t] && timers_[t]->armed(), timer_key_[t].has_value());
    }
  }

  Rng rng_;
  EventQueue q_;
  std::array<std::optional<Timer>, kTimers> timers_;
  std::array<std::optional<EventKey>, kTimers> timer_key_;
  std::map<EventKey, Info, ModelOrder> model_;  // the reference pending set
  std::vector<Issued> issued_;
  std::map<std::uint32_t, std::uint64_t> foreign_seq_;
  Time model_now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_label_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t fired_in_call_ = 0;
  std::uint64_t cancels_accepted_ = 0;
  std::uint64_t rearm_cancels_ = 0;
};

TEST(EventQueueModelTest, RandomOperationsMatchReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    ModelHarness h(seed);
    for (int i = 0; i < 25000; ++i) {
      h.random_op();
      if (::testing::Test::HasFatalFailure()) return;
    }
    h.drain();
    EXPECT_GT(h.fired(), 10000u);
    EXPECT_GT(h.cancels_accepted(), 1000u);
  }
}

TEST(EventQueueModelTest, TimerChurnPastCompactionThreshold) {
  // 20000 far re-arms of 16 timers each cancel the previous arm, whose
  // entry lies ~1e5 ns ahead while the clock crawls a few ns per step: the
  // heap passes EventQueue::kCompactMinDead dead entries, all of them more
  // than half the heap, many times over. Order and counts must survive
  // every rebuild.
  ModelHarness h(99);
  for (int i = 0; i < 20000; ++i) {
    h.churn_op();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(h.rearm_cancels(), 4 * EventQueue::kCompactMinDead);
  h.drain();
}

}  // namespace
}  // namespace hsim::sim
