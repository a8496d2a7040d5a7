#include "sim/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>

#include "sim/random.hpp"

namespace hsim::sim {
namespace {

// Folds every key onto four home buckets: long probe runs that wrap past the
// end of the array, the hard case for backward-shift deletion.
struct CollidingBits {
  std::uint64_t operator()(std::uint32_t k) const { return k % 4; }
};

template <typename Bits>
void run_against_std_map(std::uint64_t seed) {
  FlatHashMap<std::uint32_t, std::uint64_t, Bits> flat;
  std::map<std::uint32_t, std::uint64_t> ref;
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform(0, 200));
    switch (rng.uniform(0, 2)) {
      case 0: {
        const std::uint64_t v = rng.next_u64();
        flat[key] = v;
        ref[key] = v;
        break;
      }
      case 1:
        ASSERT_EQ(flat.erase(key), ref.erase(key) == 1) << key;
        break;
      default:
        break;
    }
    ASSERT_EQ(flat.size(), ref.size());
    // Every key, present or not, must look up exactly as in the reference.
    for (std::uint32_t k = 0; k <= 200; k += 7) {
      const auto it = ref.find(k);
      const std::uint64_t* got = flat.find(k);
      if (it == ref.end()) {
        ASSERT_EQ(got, nullptr) << k;
      } else {
        ASSERT_NE(got, nullptr) << k;
        ASSERT_EQ(*got, it->second) << k;
      }
    }
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(flat.find(k), nullptr);
    EXPECT_EQ(*flat.find(k), v);
  }
}

TEST(FlatHashMapTest, MatchesStdMapUnderRandomOperations) {
  run_against_std_map<IntegerBits>(1);
}

TEST(FlatHashMapTest, MatchesStdMapWithWrappingCollisionRuns) {
  run_against_std_map<CollidingBits>(2);
}

TEST(FlatHashMapTest, EraseReleasesValue) {
  FlatHashMap<std::uint32_t, std::shared_ptr<int>, IntegerBits> flat;
  auto owned = std::make_shared<int>(1);
  flat[5] = owned;
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_TRUE(flat.erase(5));
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_FALSE(flat.erase(5));
  EXPECT_EQ(flat.size(), 0u);
}

}  // namespace
}  // namespace hsim::sim
