// Zero-allocation gate for buf::Chain. This binary replaces the global
// operator new with a counting one and asserts that an empty Chain costs no
// allocation to construct, move, return or destroy, and that moving a
// non-empty one allocates nothing either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "buf/bytes.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hsim::buf {
namespace {

// Out-of-line helpers, so the compiler cannot fold the chains away.
[[gnu::noinline]] Chain make_empty() { return Chain(); }
[[gnu::noinline]] Chain pass_through(Chain c) { return c; }
[[gnu::noinline]] void sink(Chain& c) {
  asm volatile("" : : "r"(&c) : "memory");
}

// Allocations made by `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(ChainAllocTest, EmptyChainLifecycleAllocatesNothing) {
  EXPECT_EQ(allocations_in([] {
              Chain a;
              sink(a);
              Chain b(std::move(a));
              sink(b);
              Chain c;
              c = std::move(b);
              sink(c);
              Chain d = pass_through(make_empty());
              sink(d);
              Chain e(d);  // a copy of an empty chain
              sink(e);
              e = c;
              e.append(std::move(d));
              e.append(static_cast<const Chain&>(c));
              Chain f = e.split_front(10);
              sink(f);
              e.pop_front(10);
              e.clear();
            }),
            0u);
}

TEST(ChainAllocTest, MovingAFullChainAllocatesNothing) {
  Chain full;
  full.append(Bytes(std::string_view("payload")));
  full.append_copy(std::string_view("more"));
  EXPECT_EQ(allocations_in([&] {
              Chain moved = pass_through(std::move(full));
              sink(moved);
              Chain target;
              target.append(std::move(moved));  // empty target: takes it whole
              sink(target);
              full = std::move(target);
            }),
            0u);
  EXPECT_EQ(full.to_string(), "payloadmore");
}

TEST(ChainAllocTest, CounterSeesAllocations) {
  // The gate is live: a chain with a node does allocate its node array.
  EXPECT_GT(allocations_in([] {
              Chain c(Bytes(std::string_view("x")));
              sink(c);
            }),
            0u);
}

}  // namespace
}  // namespace hsim::buf
