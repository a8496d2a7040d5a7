// Discrete-event scheduler.
//
// The EventQueue is the heart of the simulator: every component (links, TCP
// timers, application timeouts) schedules callbacks at absolute simulated
// times, and the queue executes them in (time, insertion-order) order.
// Execution is fully deterministic: two events scheduled for the same instant
// run in the order they were scheduled.
//
// The full ordering key is (fire time, schedule time, source shard,
// sequence). For a single queue the extra fields are invisible: schedule
// times are non-decreasing in sequence order (time only moves forward), and
// every local event carries the same source shard, so the order collapses to
// the classic (time, insertion-order). They exist for the sharded engine
// (sim/shard.hpp), where events injected from another shard's queue must
// interleave with local events in a canonical, thread-count-independent
// order.
//
// Layout (DESIGN.md section 8): the binary heap holds 40-byte POD entries
// {key, slot, generation}; callbacks live out of line in a slot table that
// recycles slots through a free list. A TimerId names (slot, generation), so
// cancel() is an O(1) generation bump that also destroys the captures at
// once; the cancelled entry stays in the heap and is skipped when popped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace hsim::sim {

/// Identifies a scheduled event so it can be cancelled: the event's slot in
/// the queue's callback table (low 32 bits) and that slot's generation when
/// the event was scheduled (high 32 bits, never 0).
struct TimerId {
  std::uint64_t value = 0;

  friend bool operator==(TimerId a, TimerId b) { return a.value == b.value; }
  explicit operator bool() const { return value != 0; }
};

/// The canonical total order on events: fire time, then schedule time, then
/// source shard, then per-source sequence. Cross-shard deliveries carry the
/// sender's key so they land in the same position they would have held in a
/// single global queue (see sim/shard.hpp for the determinism argument).
struct EventKey {
  Time when = 0;
  Time sched = 0;           // queue time at the instant it was scheduled
  std::uint32_t src = 0;    // shard that scheduled it
  std::uint64_t seq = 0;    // per-source insertion order

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.sched != b.sched) return a.sched < b.sched;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

/// A move-only `void()` callable. Captures of up to kInlineBytes live in the
/// object itself; larger or over-aligned ones fall back to one heap
/// allocation.
template <std::size_t InlineBytes>
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  InlineCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineCallback> &&
             std::is_invocable_r_v<void, D&>)
  InlineCallback(F&& f) : ops_(&kOps<D>) {
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroys the held callable (and its captures), leaving this empty.
  void reset() noexcept {
    if (const Ops* ops = ops_) {
      ops_ = nullptr;  // empty before the captures' destructors run
      ops->destroy(storage_);
    }
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable into `dst` and destroys the one at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr bool kInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D& target(void* self) {
    if constexpr (kInline<D>) {
      return *std::launder(static_cast<D*>(self));
    } else {
      return **std::launder(static_cast<D**>(self));
    }
  }

  template <typename D>
  static void relocate(void* dst, void* src) noexcept {
    if constexpr (!kInline<D> || std::is_trivially_copyable_v<D>) {
      std::memcpy(dst, src, kInline<D> ? sizeof(D) : sizeof(D*));
    } else {
      D& from = target<D>(src);
      ::new (dst) D(std::move(from));
      from.~D();
    }
  }

  template <typename D>
  static void destroy(void* self) noexcept {
    if constexpr (kInline<D>) {
      target<D>(self).~D();
    } else {
      delete &target<D>(self);
    }
  }

  template <typename D>
  static constexpr Ops kOps = {
      [](void* self) { target<D>(self)(); },
      &relocate<D>,
      &destroy<D>,
  };

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Event callbacks: 80 inline bytes hold net::Link's `[this, Packet]`
/// delivery lambda (72 B) and the server's `[this, weak_ptr]` CPU lambda.
using Callback = InlineCallback<80>;

class EventQueue {
 public:
  using Callback = sim::Callback;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances only as events are executed.
  Time now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when`. Times in the past are
  /// clamped to `now()` (the event still runs, immediately after the current
  /// event finishes).
  TimerId schedule_at(Time when, Callback cb);

  /// Schedules `cb` to run `delay` nanoseconds from now.
  TimerId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event and destroys its callback. Returns true only if
  /// the event had not yet run (or started running) and was not already
  /// cancelled.
  bool cancel(TimerId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `deadline`; afterwards now() == deadline if any
  /// later events remain pending, or the time of the last executed event.
  std::size_t run_until(Time deadline);

  /// Runs events for `duration` from the current time.
  std::size_t run_for(Time duration) { return run_until(now_ + duration); }

  /// Number of pending (scheduled, not yet run, not cancelled) events.
  std::size_t pending() const { return live_; }

  bool empty() const { return live_ == 0; }

  /// Pre-sizes the heap (a 1000-client workload holds tens of thousands of
  /// timers at once). The slot table grows on demand in fixed chunks.
  void reserve(std::size_t n) { heap_.reserve(n); }

  // ---- Sharded-engine surface (sim/shard.hpp) -----------------------------
  // A standalone queue never needs any of this; the defaults leave behaviour
  // identical to the classic single-queue scheduler.

  /// This queue's shard id, stamped as EventKey::src on local events.
  void set_shard(std::uint32_t shard) { shard_ = shard; }
  std::uint32_t shard() const { return shard_; }

  /// Injects an event scheduled by another shard, carrying the sender's key
  /// so it sorts canonically against local events. Times in the past are NOT
  /// clamped — the engine's lookahead guarantees `key.when` is in this
  /// queue's future, and a violation must surface, not be papered over.
  TimerId schedule_cross(const EventKey& key, Callback cb);

  /// Fire time of the earliest pending event, or `kNoEvent` when empty.
  /// Drops cancelled entries from the top of the heap as a side effect.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  Time next_event_time();

  /// Moves the clock forward to `t` without executing anything (the barrier
  /// scheduler's equivalent of run_until's trailing `now_ = deadline`).
  void advance_to(Time t) {
    if (now_ < t) now_ = t;
  }

  /// A cancel that leaves at least this many cancelled entries in the heap,
  /// making up at least half of it, rebuilds the heap without them.
  static constexpr std::size_t kCompactMinDead = 1024;

 private:
  /// Heap entry: the event's key, its slot, and the slot generation it was
  /// scheduled under. The entry is live while the slot still carries that
  /// generation.
  struct Entry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(Entry) == 40);
  // Comparator for a std::*_heap max-heap whose "largest" element is the
  // earliest event: a orders after b when a fires later.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };

  /// One callback holder. The generation moves on whenever the slot's event
  /// fires or is cancelled, which retires every TimerId and heap entry that
  /// named the old one; free slots are chained through `next_free`.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next_free = 0;
  };
  // Slots live in fixed chunks so their addresses are stable: a callback
  // runs in place even while it schedules events that grow the table.
  static constexpr std::uint32_t kChunkShift = 7;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  bool live(const Entry& e) { return slot(e.slot).gen == e.gen; }
  static void retire(Slot& s) {
    if (++s.gen == 0) s.gen = 1;  // generation 0 would make a null TimerId
  }

  TimerId push(const EventKey& key, Callback&& cb);
  Entry pop_entry();
  /// Runs a popped live entry's callback in place, then frees its slot.
  void fire(const Entry& e);
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint32_t shard_ = 0;
  std::vector<Entry> heap_;  // binary heap maintained via std::push/pop_heap
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;  // slots ever handed out
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
};

/// RAII helper owning a single restartable timer on an EventQueue.
///
/// TCP and HTTP components hold several of these (retransmit, delayed-ACK,
/// flush). Destroying the Timer cancels any pending callback, so a component
/// can never be called back after destruction. The callback is held here;
/// the queue only holds a `[this]` thunk.
class Timer {
 public:
  /// Timer callbacks are `[this]` lambdas; 16 inline bytes keep the three
  /// timers of every TCP connection small.
  using Callback = InlineCallback<16>;

  explicit Timer(EventQueue& queue) : queue_(&queue) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire `delay` from now, replacing any pending fire.
  void arm(Time delay, Callback cb) {
    cancel();
    cb_ = std::move(cb);
    id_ = queue_->schedule_in(delay, [this] { fire(); });
  }

  /// True if the timer is armed and has not fired.
  bool armed() const { return static_cast<bool>(id_); }

  void cancel() {
    if (id_) {
      queue_->cancel(id_);
      id_ = TimerId{};
    }
  }

 private:
  void fire() {
    id_ = TimerId{};
    // Run from a local: the callback may re-arm (replacing cb_) or destroy
    // this timer.
    Callback cb = std::move(cb_);
    cb();
  }

  EventQueue* queue_;
  TimerId id_;
  Callback cb_;
};

}  // namespace hsim::sim
