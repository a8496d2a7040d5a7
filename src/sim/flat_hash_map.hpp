// Open-addressing hash map for hot per-packet lookups.
//
// Linear probing over one power-of-two array of buckets, at most 3/4 full,
// with backward-shift deletion (no tombstones). The interface is the small
// subset the demux tables need: find, insert-or-access, erase, size. There
// is deliberately no iteration: bucket order depends on the hash, so a table
// whose contents were walked could leak that order into event order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hsim::sim {

/// Finalizer of MurmurHash3: spreads any 64-bit key over all bits, so the
/// low bits used as the bucket index depend on every input bit.
inline std::uint64_t mix_hash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// KeyBits for integer keys (addresses, ports): the value itself.
struct IntegerBits {
  template <typename T>
  std::uint64_t operator()(T v) const {
    return static_cast<std::uint64_t>(v);
  }
};

/// `KeyBits` maps a key to 64 bits that identify it (equal keys, equal bits);
/// the map mixes them itself.
template <typename K, typename V, typename KeyBits>
class FlatHashMap {
 public:
  std::size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr.
  V* find(const K& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Bucket& b = buckets_[i];
      if (!b.used) return nullptr;
      if (b.key == key) return &b.value;
    }
  }
  const V* find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  /// The value under `key`, value-initialized on first access.
  V& operator[](const K& key) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Bucket& b = buckets_[i];
      if (!b.used) {
        b.used = true;
        b.key = key;
        ++size_;
        return b.value;
      }
      if (b.key == key) return b.value;
    }
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const K& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    while (true) {
      if (!buckets_[hole].used) return false;
      if (buckets_[hole].key == key) break;
      hole = (hole + 1) & mask();
    }
    // Backward shift: pull later members of the probe run into the hole
    // unless that would move one before its home bucket.
    for (std::size_t j = (hole + 1) & mask(); buckets_[j].used;
         j = (j + 1) & mask()) {
      const std::size_t h = home(buckets_[j].key);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      buckets_[hole].key = buckets_[j].key;
      buckets_[hole].value = std::move(buckets_[j].value);
      hole = j;
    }
    buckets_[hole].used = false;
    buckets_[hole].value = V();
    --size_;
    return true;
  }

 private:
  struct Bucket {
    K key{};
    V value{};
    bool used = false;
  };

  std::size_t mask() const { return buckets_.size() - 1; }
  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(mix_hash(KeyBits{}(key))) & mask();
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_ = std::vector<Bucket>(old.empty() ? 4 : old.size() * 2);
    size_ = 0;
    for (Bucket& b : old) {
      if (b.used) (*this)[b.key] = std::move(b.value);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace hsim::sim
