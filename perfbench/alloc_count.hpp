// Heap allocation tally for the traced benchmark binary.
//
// perfbench_traced links count_alloc.cpp, which replaces the global
// operator new; the untraced perfbench binary links nothing and
// alloc_counting() is false there, so its timings see the stock allocator.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;  // operator new calls
  std::uint64_t bytes = 0;  // bytes requested
};

#ifdef PERFBENCH_TRACED
AllocTally alloc_tally();
inline constexpr bool alloc_counting() { return true; }
#else
inline AllocTally alloc_tally() { return {}; }
inline constexpr bool alloc_counting() { return false; }
#endif

inline AllocTally operator-(AllocTally a, AllocTally b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench
