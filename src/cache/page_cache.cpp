#include "cache/page_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace pio::cache {

PageCache::PageCache(const CacheConfig& config) : config_(config) {
  config_.validate();
}

std::uint64_t PageCache::a1in_target() const {
  // Classic 2Q sizing: the admission FIFO holds ~25% of capacity, the main
  // LRU the rest. At tiny capacities keep at least one admission slot.
  return std::max<std::uint64_t>(1, config_.capacity_pages / 4);
}

// ------------------------------------------------------------------ slab

const PageCache::Entry& PageCache::entry(std::uint32_t slot) const {
  const auto chunk = static_cast<std::uint32_t>(std::bit_width(slot >> kFirstChunkBits));
  const std::uint32_t base = chunk == 0 ? 0 : (1U << (kFirstChunkBits + chunk - 1));
  return chunks_[chunk][slot - base];
}

PageCache::Entry& PageCache::entry(std::uint32_t slot) {
  return const_cast<Entry&>(std::as_const(*this).entry(slot));
}

std::uint32_t PageCache::acquire_slot() {
  if (free_ != kNoSlot) {
    const std::uint32_t slot = free_;
    free_ = entry(slot).dirty.next;
    entry(slot).dirty = IndexLinks{};
    return slot;
  }
  if (slots_made_ == kNoSlot) throw std::length_error("PageCache: slab slots exhausted");
  const std::uint32_t slot = slots_made_++;
  if (static_cast<std::size_t>(std::bit_width(slot >> kFirstChunkBits)) == chunks_.size()) {
    // First slot of a new chunk: chunk 0 and chunk 1 hold 16 slots, every
    // later one as many as all before it.
    const std::uint32_t slots = chunks_.empty() ? (1U << kFirstChunkBits) : slot;
    chunks_.push_back(std::make_unique<Entry[]>(slots));
  }
  return slot;
}

void PageCache::release_slot(std::uint32_t slot) {
  Entry& e = entry(slot);
  e.page = Page{};  // drop the page's bytes now, not when the slot is reused
  e.dirty = IndexLinks{kNoSlot, free_};
  free_ = slot;
}

// ------------------------------------------------------------ recency queues

void PageCache::set_clean(RecencyQueue& queue, std::uint32_t stamp, bool clean) {
  const std::size_t word = stamp / 64;
  const std::uint64_t bit = std::uint64_t{1} << (stamp % 64);
  if (clean) {
    queue.clean[word] |= bit;
    queue.summary[word / 64] |= std::uint64_t{1} << (word % 64);
    queue.low = std::min(queue.low, word / 64);
  } else {
    queue.clean[word] &= ~bit;
    if (queue.clean[word] == 0) queue.summary[word / 64] &= ~(std::uint64_t{1} << (word % 64));
  }
}

void PageCache::restamp(RecencyQueue& queue) {
  std::uint32_t live = 0;
  for (std::uint32_t stamp = 0; stamp < queue.next; ++stamp) {
    const std::uint32_t slot = queue.at[stamp];
    if (slot == kNoSlot) continue;
    entry(slot).stamp = live;
    queue.at[live++] = slot;
  }
  // At least as many free stamps as live ones: the next restamp is n
  // inserts or promotions away, which pays for this O(n) pass.
  const std::size_t wanted = (2 * std::size_t{live} + 64 + 63) / 64 * 64;
  const std::size_t window = std::max(queue.at.size(), wanted);
  queue.at.resize(window);
  std::fill(queue.at.begin() + live, queue.at.end(), kNoSlot);
  queue.clean.assign(window / 64, 0);
  queue.summary.assign((window / 64 + 63) / 64, 0);
  queue.low = 0;
  queue.next = live;
  for (std::uint32_t stamp = 0; stamp < live; ++stamp) {
    if (!entry(queue.at[stamp]).page.dirty) set_clean(queue, stamp, true);
  }
}

void PageCache::push_front(RecencyQueue& queue, std::uint32_t slot) {
  if (queue.next == queue.at.size()) restamp(queue);
  Entry& e = entry(slot);
  e.stamp = queue.next++;
  queue.at[e.stamp] = slot;
  ++queue.size;
  if (!e.page.dirty) set_clean(queue, e.stamp, true);
}

void PageCache::unstamp(RecencyQueue& queue, std::uint32_t slot) {
  const std::uint32_t stamp = entry(slot).stamp;
  queue.at[stamp] = kNoSlot;
  set_clean(queue, stamp, false);
  --queue.size;
}

// ------------------------------------------------------------------ ghosts

void PageCache::push_ghost(PageKey key) {
  std::uint32_t ghost = free_ghost_;
  if (ghost != kNoSlot) {
    free_ghost_ = ghosts_[ghost].link.next;
    ghosts_[ghost].key = key;
  } else {
    ghost = static_cast<std::uint32_t>(ghosts_.size());
    ghosts_.push_back(Ghost{key, IndexLinks{}});
  }
  ghost_.push_front(ghost, ghost_links());
  ghost_index_.insert(key, ghost);
}

void PageCache::drop_ghost(std::uint32_t ghost) {
  ghost_index_.erase(ghosts_[ghost].key, ghost_key_of());
  ghost_.unlink(ghost, ghost_links());
  ghosts_[ghost].link.next = free_ghost_;
  free_ghost_ = ghost;
}

// ------------------------------------------------------------------ API

Page* PageCache::lookup(PageKey key, SimTime now) {
  const std::uint32_t slot = index_.find(key, page_key_of());
  if (slot == kNoSlot) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  Entry& e = entry(slot);
  e.page.last_access = now;
  if (e.page.prefetched) {
    e.page.prefetched = false;
    ++stats_.prefetch_used;
  }
  // LRU promotes every hit; 2Q promotes hits in Am only — a page must prove
  // reuse *after* leaving the admission window to earn Am residency.
  if ((config_.policy == EvictionPolicy::kLru || e.queue == Queue::kMain) &&
      e.stamp + 1 != main_.next) {
    unstamp(main_, slot);
    push_front(main_, slot);
  }
  return &e.page;
}

bool PageCache::contains(PageKey key) const {
  return index_.find(key, page_key_of()) != kNoSlot;
}

Page* PageCache::peek(PageKey key) {
  const std::uint32_t slot = index_.find(key, page_key_of());
  return slot == kNoSlot ? nullptr : &entry(slot).page;
}

const Page* PageCache::peek(PageKey key) const {
  const std::uint32_t slot = index_.find(key, page_key_of());
  return slot == kNoSlot ? nullptr : &entry(slot).page;
}

Page& PageCache::insert(PageKey key, SimTime now) {
  if (const std::uint32_t slot = index_.find(key, page_key_of()); slot != kNoSlot) {
    entry(slot).page.last_access = now;
    return entry(slot).page;
  }
  while (index_.size() >= config_.capacity_pages) evict_one();

  const std::uint32_t slot = acquire_slot();
  Entry& e = entry(slot);
  e.page.key = key;
  e.page.last_access = now;
  const std::uint32_t ghost = ghost_index_.find(key, ghost_key_of());
  // LRU always admits to main; 2Q only when the ghost list remembers the
  // key (proven reuse), else to the admission FIFO.
  e.queue = config_.policy == EvictionPolicy::kTwoQ && ghost == kNoSlot ? Queue::kA1In
                                                                         : Queue::kMain;
  push_front(queue_of(e), slot);
  if (ghost != kNoSlot) drop_ghost(ghost);
  index_.insert(key, slot);
  return e.page;
}

bool PageCache::evict_clean_from(RecencyQueue& queue) {
  // The coldest clean page holds the lowest set bit (C1: dirty pages have
  // none, so they are never chosen and never stepped over).
  std::size_t sw = queue.low;
  while (sw < queue.summary.size() && queue.summary[sw] == 0) ++sw;
  queue.low = sw;
  if (sw == queue.summary.size()) return false;
  const std::size_t word = sw * 64 + static_cast<std::size_t>(std::countr_zero(queue.summary[sw]));
  const std::size_t stamp =
      word * 64 + static_cast<std::size_t>(std::countr_zero(queue.clean[word]));
  const std::uint32_t slot = queue.at[stamp];

  const Entry& e = entry(slot);
  if (e.page.prefetched) ++stats_.prefetch_wasted;
  ++stats_.evictions;
  if (eviction_observer_) eviction_observer_(e.page);
  if (config_.policy == EvictionPolicy::kTwoQ && e.queue == Queue::kA1In) {
    // Remember evicted admission-queue keys: a re-miss within the ghost
    // window is the 2Q signal of real reuse.
    push_ghost(e.page.key);
    while (ghost_.size() > config_.capacity_pages / 2 + 1) drop_ghost(ghost_.back());
  }
  remove_entry(slot);
  return true;
}

void PageCache::evict_one() {
  if (config_.policy == EvictionPolicy::kLru) {
    if (evict_clean_from(main_)) return;
  } else {
    // 2Q: shrink the admission FIFO when over target, else the main LRU;
    // fall back to whichever holds a clean page.
    if (a1in_.size > a1in_target()) {
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

void PageCache::remove_entry(std::uint32_t slot) {
  Entry& e = entry(slot);
  if (e.page.dirty) dirty_order_.unlink(slot, dirty_links());
  unstamp(queue_of(e), slot);
  index_.erase(e.page.key, page_key_of());
  release_slot(slot);
}

void PageCache::mark_dirty(PageKey key) {
  const std::uint32_t slot = index_.find(key, page_key_of());
  if (slot == kNoSlot) throw std::logic_error("PageCache::mark_dirty: page not resident");
  Entry& e = entry(slot);
  if (e.page.dirty) return;
  e.page.dirty = true;
  set_clean(queue_of(e), e.stamp, false);
  dirty_order_.push_back(slot, dirty_links());
}

void PageCache::mark_clean(PageKey key) {
  const std::uint32_t slot = index_.find(key, page_key_of());
  if (slot == kNoSlot) return;
  Entry& e = entry(slot);
  if (!e.page.dirty) return;
  e.page.dirty = false;
  dirty_order_.unlink(slot, dirty_links());
  set_clean(queue_of(e), e.stamp, true);
}

std::vector<PageKey> PageCache::oldest_dirty(std::size_t max) const {
  std::vector<PageKey> out;
  out.reserve(std::min<std::size_t>(max, dirty_order_.size()));
  for (std::uint32_t slot = dirty_order_.front(); slot != kNoSlot && out.size() < max;
       slot = entry(slot).dirty.next) {
    out.push_back(entry(slot).page.key);
  }
  return out;
}

void PageCache::erase(PageKey key) {
  if (const std::uint32_t slot = index_.find(key, page_key_of()); slot != kNoSlot) {
    remove_entry(slot);
  }
  if (const std::uint32_t ghost = ghost_index_.find(key, ghost_key_of()); ghost != kNoSlot) {
    drop_ghost(ghost);
  }
}

void PageCache::erase_file(std::uint64_t file) {
  // Walk the queues in stamp order and the ghost list, never the hash
  // indexes, so the walk is deterministic (piolint D2).
  for (RecencyQueue* queue : {&main_, &a1in_}) {
    for (std::uint32_t stamp = 0; stamp < queue->next; ++stamp) {
      const std::uint32_t slot = queue->at[stamp];
      if (slot != kNoSlot && entry(slot).page.key.file == file) remove_entry(slot);
    }
  }
  for (std::uint32_t ghost = ghost_.front(); ghost != kNoSlot;) {
    const std::uint32_t next = ghosts_[ghost].link.next;
    if (ghosts_[ghost].key.file == file) drop_ghost(ghost);
    ghost = next;
  }
}

void PageCache::finalize_prefetch_waste() {
  for (const RecencyQueue* queue : {&main_, &a1in_}) {
    for (std::uint32_t stamp = 0; stamp < queue->next; ++stamp) {
      if (queue->at[stamp] == kNoSlot) continue;
      Page& page = entry(queue->at[stamp]).page;
      if (page.prefetched) {
        page.prefetched = false;
        ++stats_.prefetch_wasted;
      }
    }
  }
}

}  // namespace pio::cache
