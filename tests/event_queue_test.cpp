#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace hsim::sim {
namespace {

TEST(EventQueueTest, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  q.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  q.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), milliseconds(30));
}

TEST(EventQueueTest, SameTimeEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Time fired_at = -1;
  q.schedule_at(milliseconds(10), [&] {
    q.schedule_in(milliseconds(5), [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, milliseconds(15));
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  Time fired_at = -1;
  q.schedule_at(milliseconds(10), [&] {
    q.schedule_at(milliseconds(2), [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, milliseconds(10));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  TimerId id = q.schedule_at(milliseconds(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelReturnsFalseForUnknownOrAlreadyRun) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(TimerId{}));
  EXPECT_FALSE(q.cancel(TimerId{999}));
  TimerId id = q.schedule_at(0, [] {});
  q.run();
  EXPECT_FALSE(q.cancel(id));  // already ran
  TimerId id2 = q.schedule_at(milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(id2));
  EXPECT_FALSE(q.cancel(id2));
}

TEST(EventQueueTest, CancellingFiredIdKeepsPendingExact) {
  EventQueue q;
  TimerId fired = q.schedule_at(milliseconds(1), [] {});
  q.schedule_at(milliseconds(5), [] {});
  q.run_until(milliseconds(2));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  // The fired event's slot is reused; its old id must not reach the new
  // occupant.
  bool ran = false;
  q.schedule_at(milliseconds(6), [&] { ran = true; });
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelDuringOwnCallbackIsRejected) {
  EventQueue q;
  TimerId self;
  bool result = true;
  self = q.schedule_at(milliseconds(1), [&] {
    result = q.cancel(self);
    EXPECT_EQ(q.pending(), 0u);
  });
  q.run();
  EXPECT_FALSE(result);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelReleasesCapturesImmediately) {
  EventQueue q;
  auto owned = std::make_shared<int>(7);
  TimerId id = q.schedule_at(milliseconds(1), [owned] { (void)owned; });
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(owned.use_count(), 1);
}

TEST(EventQueueTest, CaptureDestructorMayCancelOnSameQueue) {
  // cancel() destroys the captures at once; a capture that owns a component
  // whose teardown cancels another event on this queue must see exact
  // counts.
  EventQueue q;
  const TimerId other = q.schedule_at(milliseconds(2), [] {});
  std::size_t pending_in_teardown = 99;
  std::shared_ptr<void> owner(nullptr, [&](void*) {
    EXPECT_TRUE(q.cancel(other));
    pending_in_teardown = q.pending();
  });
  const TimerId id = q.schedule_at(milliseconds(1), [owner] { (void)owner; });
  owner.reset();
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(pending_in_teardown, 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueTest, LargeCapturesRunAndRelease) {
  EventQueue q;
  auto owned = std::make_shared<int>(0);
  std::array<char, 2 * Callback::kInlineBytes> big{};
  big.back() = 42;
  int seen = 0;
  q.schedule_at(milliseconds(1), [owned, big, &seen] { seen = big.back(); });
  TimerId dropped = q.schedule_at(milliseconds(2), [owned, big] {});
  EXPECT_EQ(owned.use_count(), 3);
  EXPECT_TRUE(q.cancel(dropped));
  q.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(owned.use_count(), 1);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.schedule_at(milliseconds(10), [&] { ++count; });
  q.schedule_at(milliseconds(20), [&] { ++count; });
  q.schedule_at(milliseconds(30), [&] { ++count; });
  EXPECT_EQ(q.run_until(milliseconds(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), milliseconds(20));
  q.run();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, RunUntilAdvancesClockToDeadlineWhenEventsRemain) {
  EventQueue q;
  q.schedule_at(milliseconds(100), [] {});
  q.run_until(milliseconds(50));
  EXPECT_EQ(q.now(), milliseconds(50));
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) q.schedule_in(milliseconds(1), recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), milliseconds(99));
}

TEST(EventQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  TimerId a = q.schedule_at(milliseconds(1), [] {});
  q.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(TimerTest, ArmAndFire) {
  EventQueue q;
  Timer t(q);
  bool fired = false;
  t.arm(milliseconds(10), [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RearmReplacesPrevious) {
  EventQueue q;
  Timer t(q);
  int which = 0;
  t.arm(milliseconds(10), [&] { which = 1; });
  t.arm(milliseconds(20), [&] { which = 2; });
  q.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(q.now(), milliseconds(20));
}

TEST(TimerTest, CancelStopsFire) {
  EventQueue q;
  Timer t(q);
  bool fired = false;
  t.arm(milliseconds(10), [&] { fired = true; });
  t.cancel();
  q.run();
  EXPECT_FALSE(fired);
}

TEST(TimerTest, RearmFromOwnCallback) {
  EventQueue q;
  Timer t(q);
  int fires = 0;
  std::function<void()> again = [&] {
    if (++fires < 3) t.arm(milliseconds(10), again);
  };
  t.arm(milliseconds(10), again);
  q.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(q.now(), milliseconds(30));
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, DestructionCancels) {
  EventQueue q;
  bool fired = false;
  {
    Timer t(q);
    t.arm(milliseconds(10), [&] { fired = true; });
  }
  q.run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace hsim::sim
