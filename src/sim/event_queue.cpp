#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace hsim::sim {

EventQueue::~EventQueue() {
  // Pending callbacks' captures may own objects whose Timers cancel on this
  // queue as they die; release them while the slot table is still whole.
  for (std::uint32_t i = 0; i < slots_used_; ++i) slot(i).cb.reset();
}

TimerId EventQueue::schedule_at(Time when, Callback cb) {
  if (when < now_) when = now_;
  return push(EventKey{when, now_, shard_, next_seq_++}, std::move(cb));
}

TimerId EventQueue::schedule_cross(const EventKey& key, Callback cb) {
  return push(key, std::move(cb));
}

TimerId EventQueue::push(const EventKey& key, Callback&& cb) {
  std::uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slot(index).next_free;
  } else {
    index = slots_used_++;
    if ((index & (kChunkSlots - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
  }
  Slot& s = slot(index);
  s.cb = std::move(cb);
  ++live_;
  heap_.push_back(Entry{key, index, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return TimerId{(std::uint64_t{s.gen} << 32) | index};
}

bool EventQueue::cancel(TimerId id) {
  const auto index = static_cast<std::uint32_t>(id.value);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  // Generation 0 is never issued, so the null id fails the match below.
  if (index >= slots_used_) return false;
  Slot& s = slot(index);
  // A fired, already-cancelled or running event's slot has moved on.
  if (s.gen != gen) return false;
  // Count it gone before the captures die: their destructors may cancel
  // other events on this queue.
  retire(s);
  --live_;
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = index;
  maybe_compact();
  return true;
}

EventQueue::Entry EventQueue::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

void EventQueue::fire(const Entry& e) {
  Slot& s = slot(e.slot);
  // Retire first: the running event is no longer pending or cancellable.
  retire(s);
  --live_;
  now_ = e.key.when;
  s.cb();
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = e.slot;
}

void EventQueue::maybe_compact() {
  // Heavy timer churn (delayed-ACK and RTO re-arms across thousands of
  // connections) leaves cancelled entries in the heap until their time comes.
  // Their captures are already gone, but rebuild once they outnumber the
  // live ones so the heap stays proportional to the pending set.
  const std::size_t dead = heap_.size() - live_;
  if (dead < kCompactMinDead || dead * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

Time EventQueue::next_event_time() {
  while (!heap_.empty()) {
    if (live(heap_.front())) return heap_.front().key.when;
    pop_entry();
  }
  return kNoEvent;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry e = pop_entry();
    if (!live(e)) continue;
    fire(e);
    return true;
  }
  return false;
}

std::size_t EventQueue::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time deadline) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    if (!live(heap_.front())) {
      pop_entry();
      continue;
    }
    if (heap_.front().key.when > deadline) break;
    fire(pop_entry());
    ++n;
  }
  if (now_ < deadline && !heap_.empty()) now_ = deadline;
  return n;
}

}  // namespace hsim::sim
