// The std::map / std::list PageCache, kept as a test-only reference.
//
// This is the page cache as it stood before the slab rewrite: entries in an
// ordered map, recency queues, the dirty FIFO and the 2Q ghost list as
// std::list, the ghost index as a second map. It is deliberately simple and
// deliberately slow. tests/test_cache.cpp drives it and cache::PageCache with
// the same seeded operation sequences and requires identical results,
// counters, eviction victims and dirty order after every step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <stdexcept>
#include <vector>

#include "cache/cache.hpp"
#include "cache/page_cache.hpp"
#include "common/types.hpp"

namespace pio::cache::reference {

class PageCache {
 public:
  explicit PageCache(const CacheConfig& config);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Look up a page for an access: counts a hit (promoting per policy, and
  /// resolving prefetched -> used) or a miss. Returns nullptr when absent.
  [[nodiscard]] Page* lookup(PageKey key, SimTime now);

  /// Presence probe: no promotion, no counter movement.
  [[nodiscard]] bool contains(PageKey key) const;

  /// Internal access for write/write-back paths: returns the resident page
  /// without touching hit/miss counters or recency (those measure the read
  /// path only). nullptr when absent.
  [[nodiscard]] Page* peek(PageKey key);
  [[nodiscard]] const Page* peek(PageKey key) const;

  /// Insert (or reset) a page, evicting clean victims as needed. Throws
  /// std::logic_error if every resident page is dirty — callers must bound
  /// dirty pages below capacity (CacheConfig::validate enforces the config
  /// side). Returns the resident page for the caller to fill in.
  Page& insert(PageKey key, SimTime now);

  /// Mark an existing page dirty (appends to the dirty FIFO on transition).
  void mark_dirty(PageKey key);

  /// Mark a page clean after a successful write-back.
  void mark_clean(PageKey key);

  /// Up to `max` dirty pages, oldest-dirtied first (deterministic write-back
  /// order). Pages remain dirty until mark_clean.
  [[nodiscard]] std::vector<PageKey> oldest_dirty(std::size_t max) const;

  /// Drop one page (any state — the caller is responsible for having
  /// flushed it) or every page of one file (e.g. unlink/truncate).
  void erase(PageKey key);
  void erase_file(std::uint64_t file);

  /// Fold remaining never-hit prefetched pages into prefetch_wasted (end of
  /// run: speculation that never paid off must be reported, not forgotten).
  void finalize_prefetch_waste();

  [[nodiscard]] std::uint64_t size() const { return static_cast<std::uint64_t>(pages_.size()); }
  [[nodiscard]] std::uint64_t dirty_count() const { return dirty_count_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// Counter block, writable so integrations can fold in byte-level and
  /// write-back accounting next to the page-level counters kept here.
  [[nodiscard]] CacheStats& stats_mut() { return stats_; }

  /// Observer called with each evicted page before removal (always clean).
  void set_eviction_observer(std::function<void(const Page&)> observer) {
    eviction_observer_ = std::move(observer);
  }

 private:
  /// Which recency list a resident page lives on.
  enum class Queue : std::uint8_t { kMain, kA1In };

  struct Entry {
    Page page;
    Queue queue = Queue::kMain;
    std::list<PageKey>::iterator recency;  ///< position in its queue
    std::list<PageKey>::iterator dirty_pos;  ///< position in dirty_order_ (if dirty)
  };

  void evict_one();
  /// Pop the oldest *clean* page off `queue` (back = coldest); false if the
  /// queue holds no clean page.
  bool evict_clean_from(std::list<PageKey>& queue);
  void remove_entry(std::map<PageKey, Entry>::iterator it);
  [[nodiscard]] std::uint64_t a1in_target() const;

  CacheConfig config_;
  CacheStats stats_;
  std::map<PageKey, Entry> pages_;
  std::list<PageKey> main_;   ///< LRU list (front = most recent); 2Q's Am
  std::list<PageKey> a1in_;   ///< 2Q admission FIFO (front = newest)
  std::list<PageKey> ghost_;  ///< 2Q ghost keys (front = newest)
  std::map<PageKey, std::list<PageKey>::iterator> ghost_index_;
  std::list<PageKey> dirty_order_;  ///< FIFO of dirty pages (front = oldest)
  std::uint64_t dirty_count_ = 0;
  std::function<void(const Page&)> eviction_observer_;
};


inline PageCache::PageCache(const CacheConfig& config) : config_(config) {
  config_.validate();
}

inline std::uint64_t PageCache::a1in_target() const {
  // Classic 2Q sizing: the admission FIFO holds ~25% of capacity, the main
  // LRU the rest. At tiny capacities keep at least one admission slot.
  return std::max<std::uint64_t>(1, config_.capacity_pages / 4);
}

inline Page* PageCache::lookup(PageKey key, SimTime now) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  Entry& entry = it->second;
  entry.page.last_access = now;
  if (entry.page.prefetched) {
    entry.page.prefetched = false;
    ++stats_.prefetch_used;
  }
  if (config_.policy == EvictionPolicy::kLru) {
    main_.splice(main_.begin(), main_, entry.recency);
  } else if (entry.queue == Queue::kMain) {
    // 2Q: hits in Am promote; hits in A1in deliberately do not — a page must
    // prove reuse *after* leaving the admission window to earn Am residency.
    main_.splice(main_.begin(), main_, entry.recency);
  }
  return &entry.page;
}

inline bool PageCache::contains(PageKey key) const { return pages_.contains(key); }

inline Page* PageCache::peek(PageKey key) {
  const auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.page;
}

inline const Page* PageCache::peek(PageKey key) const {
  const auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.page;
}

inline Page& PageCache::insert(PageKey key, SimTime now) {
  if (auto it = pages_.find(key); it != pages_.end()) {
    it->second.page.last_access = now;
    return it->second.page;
  }
  while (pages_.size() >= config_.capacity_pages) evict_one();

  Entry entry;
  entry.page.key = key;
  entry.page.last_access = now;
  const bool ghost_hit = ghost_index_.contains(key);
  if (config_.policy == EvictionPolicy::kTwoQ && !ghost_hit) {
    a1in_.push_front(key);
    entry.queue = Queue::kA1In;
    entry.recency = a1in_.begin();
  } else {
    // LRU always; 2Q when the ghost list remembers the key (proven reuse).
    main_.push_front(key);
    entry.queue = Queue::kMain;
    entry.recency = main_.begin();
  }
  if (ghost_hit) {
    ghost_.erase(ghost_index_.at(key));
    ghost_index_.erase(key);
  }
  auto [it, inserted] = pages_.emplace(key, std::move(entry));
  (void)inserted;
  return it->second.page;
}

inline bool PageCache::evict_clean_from(std::list<PageKey>& queue) {
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    const auto found = pages_.find(*it);
    if (found == pages_.end()) continue;  // cannot happen; defensive
    if (found->second.page.dirty) continue;  // C1: never evict dirty pages
    if (found->second.page.prefetched) ++stats_.prefetch_wasted;
    ++stats_.evictions;
    if (eviction_observer_) eviction_observer_(found->second.page);
    if (config_.policy == EvictionPolicy::kTwoQ && found->second.queue == Queue::kA1In) {
      // Remember evicted admission-queue keys: a re-miss within the ghost
      // window is the 2Q signal of real reuse.
      ghost_.push_front(found->first);
      ghost_index_.emplace(found->first, ghost_.begin());
      while (ghost_.size() > config_.capacity_pages / 2 + 1) {
        ghost_index_.erase(ghost_.back());
        ghost_.pop_back();
      }
    }
    remove_entry(found);
    return true;
  }
  return false;
}

inline void PageCache::evict_one() {
  if (config_.policy == EvictionPolicy::kLru) {
    if (evict_clean_from(main_)) return;
  } else {
    // 2Q: shrink the admission FIFO when over target, else the main LRU;
    // fall back to whichever holds a clean page.
    if (a1in_.size() > a1in_target()) {
      if (evict_clean_from(a1in_)) return;
      if (evict_clean_from(main_)) return;
    } else {
      if (evict_clean_from(main_)) return;
      if (evict_clean_from(a1in_)) return;
    }
  }
  throw std::logic_error(
      "PageCache: every resident page is dirty — write-back pressure bound "
      "violated (invariant C1 forbids dropping dirty pages)");
}

inline void PageCache::remove_entry(std::map<PageKey, Entry>::iterator it) {
  Entry& entry = it->second;
  if (entry.page.dirty) {
    dirty_order_.erase(entry.dirty_pos);
    --dirty_count_;
  }
  if (entry.queue == Queue::kA1In) {
    a1in_.erase(entry.recency);
  } else {
    main_.erase(entry.recency);
  }
  pages_.erase(it);
}

inline void PageCache::mark_dirty(PageKey key) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) throw std::logic_error("PageCache::mark_dirty: page not resident");
  Entry& entry = it->second;
  if (entry.page.dirty) return;
  entry.page.dirty = true;
  dirty_order_.push_back(key);
  entry.dirty_pos = std::prev(dirty_order_.end());
  ++dirty_count_;
}

inline void PageCache::mark_clean(PageKey key) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) return;
  Entry& entry = it->second;
  if (!entry.page.dirty) return;
  entry.page.dirty = false;
  dirty_order_.erase(entry.dirty_pos);
  --dirty_count_;
}

inline std::vector<PageKey> PageCache::oldest_dirty(std::size_t max) const {
  std::vector<PageKey> out;
  out.reserve(std::min<std::size_t>(max, dirty_order_.size()));
  for (const PageKey& key : dirty_order_) {
    if (out.size() >= max) break;
    out.push_back(key);
  }
  return out;
}

inline void PageCache::erase(PageKey key) {
  const auto it = pages_.find(key);
  if (it != pages_.end()) remove_entry(it);
  if (const auto ghost = ghost_index_.find(key); ghost != ghost_index_.end()) {
    ghost_.erase(ghost->second);
    ghost_index_.erase(ghost);
  }
}

inline void PageCache::erase_file(std::uint64_t file) {
  // Keys are ordered (file, page): the file's pages form one contiguous map
  // range, so this walk is deterministic and touches nothing else.
  auto it = pages_.lower_bound(PageKey{file, 0});
  while (it != pages_.end() && it->first.file == file) {
    const auto next = std::next(it);
    remove_entry(it);
    it = next;
  }
  auto ghost = ghost_index_.lower_bound(PageKey{file, 0});
  while (ghost != ghost_index_.end() && ghost->first.file == file) {
    ghost_.erase(ghost->second);
    ghost = ghost_index_.erase(ghost);
  }
}

inline void PageCache::finalize_prefetch_waste() {
  for (auto& [key, entry] : pages_) {
    (void)key;
    if (entry.page.prefetched) {
      entry.page.prefetched = false;
      ++stats_.prefetch_wasted;
    }
  }
}

}  // namespace pio::cache::reference
