// Model test for buf::Chain: seeded random operation sequences run against
// a std::string reference, with contents, size() and node structure checked
// after every step. Small slices keep many nodes live, so pop_front and
// split_front cross the node array's compaction threshold many times.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "buf/bytes.hpp"
#include "sim/random.hpp"

namespace hsim::buf {
namespace {

std::string to_std(std::span<const std::uint8_t> s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

// Checks a chain against its reference: bytes, size, and that node_count()
// matches the non-empty runs for_each visits.
void expect_matches(const Chain& c, const std::string& ref) {
  ASSERT_EQ(c.size(), ref.size());
  ASSERT_EQ(c.empty(), ref.empty());
  ASSERT_EQ(c.to_string(), ref);
  ASSERT_TRUE(c.equals(ref));
  std::size_t runs = 0;
  std::string walked;
  c.for_each([&](std::span<const std::uint8_t> run) {
    EXPECT_FALSE(run.empty());
    walked += to_std(run);
    ++runs;
  });
  ASSERT_EQ(walked, ref);
  ASSERT_EQ(c.node_count(), runs);
  ASSERT_LE(c.node_count(), c.size());
}

class ChainModel {
 public:
  explicit ChainModel(std::uint64_t seed) : rng_(seed) {
    for (auto& block : blocks_) {
      std::vector<std::uint8_t> bytes(kBlockSize);
      for (auto& b : bytes) b = static_cast<std::uint8_t>('a' + upto(25));
      block = Bytes(std::move(bytes));
    }
  }

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::size_t i = pick();
      one_op(i, pick());
      for (std::size_t k = 0; k < kChains; ++k) {
        SCOPED_TRACE("step " + std::to_string(step) + " chain " +
                     std::to_string(k));
        expect_matches(chains_[k], refs_[k]);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

 private:
  static constexpr std::size_t kChains = 4;
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kMaxSize = 3000;

  std::size_t pick() { return upto(kChains - 1); }
  std::size_t upto(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(n)));
  }

  // A slice of a pool block; half the time it continues the previous slice
  // of the same block, which append() merges into the back node.
  Bytes next_slice() {
    if (last_end_ < kBlockSize && rng_.chance(0.5)) {
      const std::size_t n = 1 + upto(kBlockSize - last_end_ - 1);
      Bytes out = blocks_[last_block_].slice(last_end_, n);
      last_end_ += n;
      return out;
    }
    last_block_ = upto(blocks_.size() - 1);
    const std::size_t pos = upto(kBlockSize - 1);
    const std::size_t n =
        1 + upto(std::min<std::size_t>(8, kBlockSize - pos - 1));
    last_end_ = pos + n;
    return blocks_[last_block_].slice(pos, n);
  }

  void one_op(std::size_t i, std::size_t j) {
    Chain& c = chains_[i];
    std::string& ref = refs_[i];
    if (ref.size() > kMaxSize) {
      const std::size_t n = upto(ref.size());
      c.pop_front(n);
      ref.erase(0, n);
      return;
    }
    switch (rng_.uniform(0, 17)) {
      case 0:
      case 1:
      case 2: {  // append(Bytes)
        const Bytes b = next_slice();
        c.append(b);
        ref += to_std(b.span());
        break;
      }
      case 3: {  // append(const Chain&), self-append included
        const std::string add = refs_[j];
        c.append(static_cast<const Chain&>(chains_[j]));
        ref += add;
        break;
      }
      case 4: {  // append(Chain&&); the source ends empty unless it is c
        const std::string add = refs_[j];
        c.append(std::move(chains_[j]));
        ref += add;
        if (j != i) refs_[j].clear();
        break;
      }
      case 5:
      case 6: {  // append_copy
        std::string text(upto(40), '\0');
        for (char& ch : text) ch = static_cast<char>('A' + upto(25));
        c.append_copy(text);
        ref += text;
        break;
      }
      case 7:
      case 8: {  // pop_front, sometimes past the end
        const std::size_t n = upto(ref.size() / 4 + 3);
        c.pop_front(n);
        ref.erase(0, std::min(n, ref.size()));
        break;
      }
      case 9: {  // split_front, the front part appended to another chain
        const std::size_t n = upto(ref.size() / 3 + 2);
        Chain front = c.split_front(n);
        const std::string expect = ref.substr(0, std::min(n, ref.size()));
        ref.erase(0, expect.size());
        expect_matches(front, expect);
        if (j != i) {
          chains_[j].append(std::move(front));
          refs_[j] += expect;
          EXPECT_TRUE(front.empty());
          EXPECT_EQ(front.node_count(), 0u);
        }
        break;
      }
      case 10: {  // slice and slice_bytes
        const std::size_t pos = upto(ref.size() + 2);
        const std::size_t n = upto(ref.size() + 2);
        const std::string expect =
            pos <= ref.size() ? ref.substr(pos, n) : "";
        expect_matches(c.slice(pos, n), expect);
        if (pos <= ref.size()) {
          const std::size_t m = std::min(n, ref.size() - pos);
          EXPECT_EQ(c.slice_bytes(pos, m).view(), ref.substr(pos, m));
        }
        if (!ref.empty()) {
          const std::size_t k = upto(ref.size() - 1);
          EXPECT_EQ(c[k], static_cast<std::uint8_t>(ref[k]));
        }
        break;
      }
      case 11: {  // find: a needle from the contents, or an arbitrary one
        std::string needle;
        if (!ref.empty() && rng_.chance(0.7)) {
          const std::size_t pos = upto(ref.size() - 1);
          needle = ref.substr(pos, 1 + upto(6));
        } else {
          needle =
              std::string(1 + upto(3), static_cast<char>('a' + upto(25)));
        }
        const std::size_t from = upto(ref.size() + 1);
        EXPECT_EQ(c.find(needle, from), ref.find(needle, from)) << needle;
        break;
      }
      case 12: {  // equals / operator== across chains
        EXPECT_EQ(c == chains_[j], ref == refs_[j]);
        EXPECT_EQ(chains_[j] == c, ref == refs_[j]);
        break;
      }
      case 13: {  // copy construction and copy assignment
        Chain copy(c);
        expect_matches(copy, ref);
        chains_[j] = copy;
        refs_[j] = ref;
        break;
      }
      case 14: {  // move construction and move assignment; reuse after move
        Chain moved(std::move(c));
        expect_matches(moved, ref);
        EXPECT_TRUE(c.empty());
        EXPECT_EQ(c.node_count(), 0u);
        const Bytes b = next_slice();
        c.append(b);  // a moved-from chain is an empty chain
        if (j != i) {
          chains_[j] = std::move(moved);
          refs_[j] = ref;
        }
        ref = to_std(b.span());
        break;
      }
      case 15: {  // clear
        c.clear();
        ref.clear();
        break;
      }
      case 16: {  // to_bytes / copy_to
        EXPECT_EQ(c.to_bytes().view(), ref);
        if (!ref.empty()) {
          const std::size_t pos = upto(ref.size() - 1);
          std::vector<std::uint8_t> out(upto(ref.size() - pos));
          c.copy_to(pos, out);
          EXPECT_EQ(to_std(out), ref.substr(pos, out.size()));
        }
        break;
      }
      default: {  // a burst of small separate nodes, to grow the node array
        for (int k = 0, n = static_cast<int>(upto(40)); k < n; ++k) {
          last_end_ = kBlockSize;  // force non-mergeable slices
          const Bytes b = next_slice();
          c.append(b);
          ref += to_std(b.span());
        }
        break;
      }
    }
  }

  sim::Rng rng_;
  std::array<Bytes, 8> blocks_;
  std::array<Chain, kChains> chains_;
  std::array<std::string, kChains> refs_;
  std::size_t last_block_ = 0;
  std::size_t last_end_ = kBlockSize;
};

TEST(ChainModelTest, RandomOperationsMatchStringReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChainModel model(seed);
    model.run(25'000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ChainModelTest, QueueChurnCompactsWithoutLosingBytes) {
  // FIFO use: separate one-byte nodes in, one node out, 20-100 live. The
  // consumed-front slots reach the compaction threshold over and over.
  std::vector<std::uint8_t> raw(256);
  std::iota(raw.begin(), raw.end(), std::uint8_t{0});
  const Bytes block{std::vector<std::uint8_t>(raw)};
  Chain c;
  std::string ref;
  sim::Rng rng(7);
  std::size_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    const bool push = c.node_count() < 20 ||
                      (c.node_count() < 100 && rng.chance(0.5));
    if (push) {
      // Every other byte, so consecutive slices never merge.
      c.append(block.slice(next, 1));
      ref.push_back(static_cast<char>(raw[next]));
      next = (next + 2) % raw.size();
    } else if (rng.chance(0.5)) {
      c.pop_front(1);
      ref.erase(0, 1);
    } else {
      const Chain front = c.split_front(1);
      ASSERT_EQ(front.to_string(), ref.substr(0, 1));
      ref.erase(0, 1);
    }
    ASSERT_EQ(c.node_count(), ref.size());
    ASSERT_EQ(c.to_string(), ref) << step;
  }
}

TEST(ChainModelTest, SelfAppendDoublesContents) {
  const Bytes block{std::string_view("0123456789abcdefghij")};
  // The first node continues the back node in the same block, so the
  // self-append's first slice merges into the original back node.
  Chain c;
  c.append(block.slice(10, 5));
  c.append(block.slice(0, 10));
  ASSERT_EQ(c.node_count(), 2u);
  c.append(c);
  EXPECT_EQ(c.to_string(), "abcde0123456789abcde0123456789");
  EXPECT_EQ(c.size(), 30u);

  // Consumed front slots and a full node array: the self-append compacts
  // the array while it walks it.
  Chain d;
  for (std::size_t k = 0; k < 4; ++k) d.append(block.slice(4 * k + 1, 2));
  d.pop_front(4);
  ASSERT_EQ(d.to_string(), "9ade");
  d.append(d);
  EXPECT_EQ(d.to_string(), "9ade9ade");
  d.append(std::move(d));
  EXPECT_EQ(d.to_string(), "9ade9ade9ade9ade");
  expect_matches(d, "9ade9ade9ade9ade");
}

}  // namespace
}  // namespace hsim::buf
