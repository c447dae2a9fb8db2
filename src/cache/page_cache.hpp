// PIOEval cache: the deterministic page-cache core.
//
// Both integrations — the functional vfs::Backend decorator and the
// DES-timed client tier — share this structure: a bounded set of fixed-size
// pages keyed by (file, page index), with pluggable replacement (LRU and a
// 2Q/ARC-lite policy that resists scan pollution), dirty tracking for
// write-back, and prefetch bookkeeping (issued/used/wasted).
//
// Layout (DESIGN.md §10): entries live in a chunked slab and never move, so
// a Page& stays valid until its page leaves the cache. A PageIndex hash
// finds a page's slot. Each recency queue (LRU/Am, 2Q's A1in) orders its
// pages by stamp, with a bitset of the clean ones, so eviction finds the
// coldest clean page without stepping over dirty ones. The dirty FIFO and
// the 2Q ghost list are IndexLists threaded through the slots, and ghost
// keys have their own PageIndex. Lookup, insert (with its eviction), dirty
// marking and erase cost O(1) amortized and allocate nothing beyond slab,
// index and stamp-window growth.
//
// Determinism rules (piolint D1/D2): recency is logical — stamp order updated
// on access — never wall-clock; `last_access` carries the *simulated* or
// caller-supplied time for observability only. The hash indexes are only
// probed; every walk (dirty pages for write-back, a file's pages, prefetch
// waste) follows a list or stamp order, so iteration order is reproducible.
//
// Invariant C1 (enforced here structurally): eviction only ever selects
// CLEAN pages. A dirty page — bytes acknowledged to the application but not
// yet written through — can leave the cache only via mark_clean (after a
// successful write-back) or erase by an owner that already flushed it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/page_index.hpp"
#include "common/types.hpp"

namespace pio::cache {

/// One resident page. `data` holds real bytes on the functional path and
/// stays empty on the simulated (time-only) path; `valid_bytes` is how much
/// of the page is backed by file content (short at EOF).
struct Page {
  PageKey key;
  bool dirty = false;
  bool prefetched = false;  ///< speculatively fetched, not yet hit
  std::int32_t owner = 0;   ///< client/rank to charge write-back traffic to
  std::uint64_t valid_bytes = 0;
  /// Bumped by owners on every write into the page. An async write-back that
  /// started at version v may only mark the page clean if it is still at v —
  /// otherwise newer acknowledged bytes would be silently dropped (C1).
  std::uint64_t version = 0;
  SimTime last_access = SimTime::zero();
  std::vector<std::byte> data;
};

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

  [[nodiscard]] std::uint64_t size() const { return static_cast<std::uint64_t>(index_.size()); }
  [[nodiscard]] std::uint64_t dirty_count() const {
    return static_cast<std::uint64_t>(dirty_order_.size());
  }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// Counter block, writable so integrations can fold in byte-level and
  /// write-back accounting next to the page-level counters kept here.
  [[nodiscard]] CacheStats& stats_mut() { return stats_; }

  /// Observer called with each evicted page before removal (always clean).
  void set_eviction_observer(std::function<void(const Page&)> observer) {
    eviction_observer_ = std::move(observer);
  }

 private:
  /// Which recency queue a resident page lives on.
  enum class Queue : std::uint8_t { kMain, kA1In };

  struct Entry {
    Page page;
    IndexLinks dirty;  ///< position in dirty_order_ (if dirty); the free chain while unused
    std::uint32_t stamp = 0;  ///< position in its queue (larger = newer)
    Queue queue = Queue::kMain;
  };

  /// One recency queue, kept as stamps: a page gets the next stamp when it
  /// enters or is promoted to the front, so queue order is stamp order.
  /// `at` maps live stamps to slots and `clean` has a bit per stamp whose
  /// page is clean, so the eviction victim — the coldest clean page — is
  /// the lowest set bit, whatever dirty pages sit behind it. When stamps
  /// run out the live ones are renumbered 0..n-1 and the window grows to at
  /// least 2n + 64: O(n) once per n or more stamps handed out.
  struct RecencyQueue {
    std::vector<std::uint32_t> at;       ///< stamp -> slot, kNoSlot if not live
    std::vector<std::uint64_t> clean;    ///< bit per stamp: its page is clean
    std::vector<std::uint64_t> summary;  ///< bit per `clean` word: the word is non-zero
    std::size_t low = 0;                 ///< no summary word below this is non-zero
    std::uint32_t next = 0;              ///< next stamp to hand out
    std::uint64_t size = 0;              ///< live pages
  };

  struct Ghost {
    PageKey key;
    IndexLinks link;  ///< position in ghost_; the free chain while unused
  };

  /// Slab chunk c holds slots [16·2^(c-1), 16·2^c) (chunk 0: [0, 16)), so
  /// the slab doubles as it grows and never moves an entry.
  static constexpr std::uint32_t kFirstChunkBits = 4;

  [[nodiscard]] Entry& entry(std::uint32_t slot);
  [[nodiscard]] const Entry& entry(std::uint32_t slot) const;
  /// IndexList accessors: which IndexLinks each list threads.
  [[nodiscard]] auto dirty_links() {
    return [this](std::uint32_t slot) -> IndexLinks& { return entry(slot).dirty; };
  }
  [[nodiscard]] auto ghost_links() {
    return [this](std::uint32_t ghost) -> IndexLinks& { return ghosts_[ghost].link; };
  }
  /// PageIndex key readers: where each index's keys live.
  [[nodiscard]] auto page_key_of() const {
    return [this](std::uint32_t slot) -> const PageKey& { return entry(slot).page.key; };
  }
  [[nodiscard]] auto ghost_key_of() const {
    return [this](std::uint32_t ghost) -> const PageKey& { return ghosts_[ghost].key; };
  }
  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_ghost(PageKey key);
  void drop_ghost(std::uint32_t ghost);

  [[nodiscard]] RecencyQueue& queue_of(const Entry& e) {
    return e.queue == Queue::kA1In ? a1in_ : main_;
  }
  /// Queue bookkeeping: enter at the front, leave, mark clean or dirty.
  void push_front(RecencyQueue& queue, std::uint32_t slot);
  void unstamp(RecencyQueue& queue, std::uint32_t slot);
  static void set_clean(RecencyQueue& queue, std::uint32_t stamp, bool clean);
  /// Renumbers the live stamps of `queue` 0..n-1, in order.
  void restamp(RecencyQueue& queue);

  void evict_one();
  /// Evict the coldest *clean* page of `queue`; false if it holds none.
  bool evict_clean_from(RecencyQueue& queue);
  void remove_entry(std::uint32_t slot);
  [[nodiscard]] std::uint64_t a1in_target() const;

  CacheConfig config_;
  CacheStats stats_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t slots_made_ = 0;     ///< slots handed out of the chunks so far
  std::uint32_t free_ = kNoSlot;     ///< head of the released-slot chain
  PageIndex index_;                  ///< resident key -> slot
  RecencyQueue main_;                ///< LRU queue; 2Q's Am
  RecencyQueue a1in_;                ///< 2Q admission FIFO
  IndexList dirty_order_;            ///< FIFO of dirty pages (front = oldest)
  std::vector<Ghost> ghosts_;        ///< ghost slab (indexes, not references, are held)
  std::uint32_t free_ghost_ = kNoSlot;
  PageIndex ghost_index_;            ///< ghost key -> ghost slot
  IndexList ghost_;                  ///< 2Q ghost keys (front = newest)
  std::function<void(const Page&)> eviction_observer_;
};

}  // namespace pio::cache
