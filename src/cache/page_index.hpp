// PIOEval cache: page identity and the flat structures the cache core is
// built from.
//
// PageIndex is an open-addressing hash table from PageKey to a 32-bit slot
// number (linear probing, backward-shift deletion, power-of-two buckets, at
// most 3/4 full). A bucket holds only the slot and the key's 32-bit hash,
// 8 bytes; the keys stay where their owner keeps them and are read back
// through a `key_of(slot)` callable when a hash matches. It never
// allocates on a probe, only on the insert that grows it. It has no
// iteration interface at all: callers that need an order keep one beside
// it, so nothing in the cache ever iterates an unordered container
// (piolint D2). PageSet is the same table over its own key storage.
//
// IndexList is a doubly linked list threaded through slab slots by index:
// the nodes live in their owner's slab and carry an IndexLinks each; the
// list only keeps the two ends and the length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pio::cache {

/// Identity of one cached page.
struct PageKey {
  std::uint64_t file = 0;  ///< interned file id (integration-specific)
  std::uint64_t page = 0;  ///< page index = offset / page_size

  friend auto operator<=>(const PageKey&, const PageKey&) = default;
};

/// "No slot": the absent result of PageIndex::find and the null list link.
inline constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

class PageIndex {
 public:
  /// Slot stored for `key`, or kNoSlot when absent.
  template <class KeyOf>
  [[nodiscard]] std::uint32_t find(PageKey key, const KeyOf& key_of) const {
    if (size_ == 0) return kNoSlot;
    const std::uint32_t h = hash(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNoSlot) return kNoSlot;
      if (b.hash == h && key_of(b.slot) == key) return b.slot;
    }
  }

  /// Maps `key` to `slot` (which must not be kNoSlot); `key` must be absent.
  void insert(PageKey key, std::uint32_t slot) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) grow();
    place(Bucket{slot, hash(key)});
    ++size_;
  }

  /// Removes `key`; returns its slot, or kNoSlot when it was absent.
  template <class KeyOf>
  std::uint32_t erase(PageKey key, const KeyOf& key_of) {
    if (size_ == 0) return kNoSlot;
    const std::uint32_t h = hash(key);
    std::size_t hole = h & mask_;
    for (;; hole = (hole + 1) & mask_) {
      const Bucket& b = buckets_[hole];
      if (b.slot == kNoSlot) return kNoSlot;
      if (b.hash == h && key_of(b.slot) == key) break;
    }
    const std::uint32_t erased = buckets_[hole].slot;
    // Backward shift: pull each later member of the probe run into the hole
    // unless its home lies cyclically after the hole, so no tombstones.
    for (std::size_t j = (hole + 1) & mask_; buckets_[j].slot != kNoSlot; j = (j + 1) & mask_) {
      const std::size_t from_home = (j - buckets_[j].hash) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].slot = kNoSlot;
    --size_;
    return erased;
  }

  /// Empties the table, keeping its buckets.
  void clear() {
    for (Bucket& b : buckets_) b.slot = kNoSlot;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Bucket {
    std::uint32_t slot = kNoSlot;
    std::uint32_t hash = 0;  ///< the key's hash; its low bits are the home bucket
  };

  [[nodiscard]] static std::uint32_t hash(PageKey key) {
    // splitmix64 finalizer over both fields: consecutive pages of one file
    // spread across the table.
    std::uint64_t z = key.file * 0x9e3779b97f4a7c15ULL + key.page;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint32_t>(z ^ (z >> 31));
  }

  void place(Bucket bucket) {
    std::size_t i = bucket.hash & mask_;
    while (buckets_[i].slot != kNoSlot) i = (i + 1) & mask_;
    buckets_[i] = bucket;
  }

  void grow() {
    std::vector<Bucket> old(buckets_.empty() ? 16 : buckets_.size() * 2);
    old.swap(buckets_);
    mask_ = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.slot != kNoSlot) place(b);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// A set of PageKeys: a PageIndex over its own key storage.
class PageSet {
  // Declared first: the members below deduce their key reader's type.
  [[nodiscard]] auto key_of() const {
    return [this](std::uint32_t slot) -> const PageKey& { return keys_[slot]; };
  }

 public:
  [[nodiscard]] bool contains(PageKey key) const { return index_.find(key, key_of()) != kNoSlot; }

  /// Adds `key`; false when it was already present.
  bool insert(PageKey key) {
    if (contains(key)) return false;
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
    } else {
      slot = free_.back();
      free_.pop_back();
      keys_[slot] = key;
    }
    index_.insert(key, slot);
    return true;
  }

  void erase(PageKey key) {
    const std::uint32_t slot = index_.erase(key, key_of());
    if (slot != kNoSlot) free_.push_back(slot);
  }

  /// Empties the set, keeping its storage.
  void clear() {
    index_.clear();
    keys_.clear();
    free_.clear();
  }

 private:
  PageIndex index_;
  std::vector<PageKey> keys_;
  std::vector<std::uint32_t> free_;  ///< released key slots
};

/// A node's position in one IndexList.
struct IndexLinks {
  std::uint32_t prev = kNoSlot;
  std::uint32_t next = kNoSlot;
};

/// Doubly linked list over slab slot numbers (front = newest). Every
/// operation takes `links`, a callable mapping a slot to its IndexLinks for
/// this list, so one node can sit on several lists at once.
class IndexList {
 public:
  [[nodiscard]] std::uint32_t front() const { return front_; }
  [[nodiscard]] std::uint32_t back() const { return back_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  template <class LinksOf>
  void push_front(std::uint32_t slot, LinksOf&& links) {
    links(slot) = IndexLinks{kNoSlot, front_};
    if (front_ != kNoSlot) {
      links(front_).prev = slot;
    } else {
      back_ = slot;
    }
    front_ = slot;
    ++size_;
  }

  template <class LinksOf>
  void push_back(std::uint32_t slot, LinksOf&& links) {
    links(slot) = IndexLinks{back_, kNoSlot};
    if (back_ != kNoSlot) {
      links(back_).next = slot;
    } else {
      front_ = slot;
    }
    back_ = slot;
    ++size_;
  }

  template <class LinksOf>
  void unlink(std::uint32_t slot, LinksOf&& links) {
    const IndexLinks at = links(slot);
    if (at.prev != kNoSlot) {
      links(at.prev).next = at.next;
    } else {
      front_ = at.next;
    }
    if (at.next != kNoSlot) {
      links(at.next).prev = at.prev;
    } else {
      back_ = at.prev;
    }
    links(slot) = IndexLinks{};
    --size_;
  }

 private:
  std::uint32_t front_ = kNoSlot;
  std::uint32_t back_ = kNoSlot;
  std::size_t size_ = 0;
};

}  // namespace pio::cache
