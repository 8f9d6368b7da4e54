// Ghost-cache-based chunk classifier — the zone group selector's brain
// (§4.2, Fig. 7).
//
// Three attribute-only ("ghost") caches track write locality:
//
//   LRU cache  -- admission filter: chunks with poor temporal locality fall
//                 off the tail and stay "trivial".
//   HR cache   -- high-revenue: chunks whose predicted reaccess count passed
//                 the promotion threshold. Priority queue evicting the
//                 MINIMUM reaccess count back to the LRU cache.
//   HP cache   -- high-profit: high-revenue chunks whose predicted reuse
//                 distance is short enough to fit ZRWA. Priority queue
//                 evicting the MAXIMUM reuse distance back to the HR cache.
//
// Predictions (paper's choices): accumulated reaccess count, and a weighted
// moving average of recent reuse distances. Reuse distance is measured in
// blocks written between two consecutive writes of the same key.
//
// A chunk whose promotion would make it the minimum of a full HR cache is
// never inserted there (it would evict itself straight back): it moves on
// to HP if its reuse distance qualifies, and otherwise stays in the LRU
// cache until a later write lifts its count above the HR minimum.
//
// Layout: every write is O(1) expected (O(log n) when it reorders a
// priority queue) and allocation-free once the caches are full.
//   * Nodes live in one slab (`nodes_`, 48 B each) recycled through a free
//     list; an open-addressing SparseTable maps key -> node index (16 B
//     per slot at <= 7/8 load).
//   * The LRU cache is a doubly-linked list threaded through the slab by
//     node index.
//   * HR and HP are indexed binary heaps of (priority, key, node) entries
//     (24 B each); a node records its heap position so a re-prioritised or
//     promoted member is repaired or removed in place. (priority, key)
//     pairs are unique, so each heap's root is the entry an ordered set
//     would evict: eviction order is exact.
// So a tracked chunk costs ~70-90 B resident (~100 B in HR/HP) — a few MB
// at the default 84k entries.
#ifndef BIZA_SRC_BIZA_GHOST_CACHE_H_
#define BIZA_SRC_BIZA_GHOST_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/sparse_array.h"

namespace biza {

enum class ChunkTier : uint8_t {
  kTrivial = 0,      // unknown / poor locality -> trivial zone group
  kHighRevenue = 1,  // many reaccesses, long reuse -> GC-aware zone group
  kHighProfit = 2,   // many reaccesses, short reuse -> ZRWA-aware zone group
};

struct GhostCacheConfig {
  uint64_t lru_entries = 65536;
  uint64_t hr_entries = 16384;
  uint64_t hp_entries = 2048;
  uint32_t promote_reaccess = 3;        // LRU -> HR threshold (paper: 3)
  uint64_t hp_reuse_threshold = 28672;  // blocks; set to 2 x total ZRWA
  double reuse_ewma_alpha = 0.5;
};

struct GhostCacheStats {
  uint64_t lookups = 0;
  uint64_t lru_hits = 0;
  uint64_t hr_promotions = 0;
  uint64_t hp_promotions = 0;
  uint64_t hr_demotions = 0;   // HP -> HR evictions
  uint64_t lru_demotions = 0;  // HR -> LRU evictions
};

class GhostCache {
 public:
  explicit GhostCache(const GhostCacheConfig& config) : config_(config) {}

  // Records a write of `key` (one block) and returns the tier the chunk
  // should be placed in. Advances the reuse-distance clock by one block.
  ChunkTier OnWrite(uint64_t key);

  // Current tier without side effects (kTrivial if untracked or LRU-only).
  ChunkTier TierOf(uint64_t key) const;

  const GhostCacheStats& stats() const { return stats_; }
  uint64_t tracked_entries() const { return index_.size(); }
  uint64_t clock() const { return clock_; }

 private:
  enum class Residence : uint8_t { kLru, kHr, kHp };
  static constexpr uint32_t kNil = ~0u;

  struct Node {
    uint64_t key = 0;
    uint64_t last_clock = 0;
    double reuse_ewma = 0.0;
    uint32_t reaccess = 0;
    uint32_t prev = kNil;      // LRU neighbour toward the head (kLru only)
    uint32_t next = kNil;      // LRU neighbour toward the tail; free list
    uint32_t heap_pos = kNil;  // position in hr_/hp_ (kHr/kHp only)
    Residence where = Residence::kLru;
    bool has_reuse = false;
  };

  struct HeapEntry {
    uint64_t prio;
    uint64_t key;
    uint32_t node;
  };

  // Binary heap over (prio, key); the root is the minimum, or the maximum
  // when kMaxFirst. Every move writes the entry's position back into its
  // node so members can be re-prioritised or removed in place.
  template <bool kMaxFirst>
  class TierHeap {
   public:
    size_t size() const { return items_.size(); }
    const HeapEntry& top() const { return items_.front(); }
    // True when `e` would become the root if pushed.
    bool WouldLead(const HeapEntry& e) const {
      return items_.empty() || Before(e, items_.front());
    }
    void Push(const HeapEntry& e, std::vector<Node>& nodes);
    void Remove(uint32_t pos, std::vector<Node>& nodes);
    void SetPrio(uint32_t pos, uint64_t prio, std::vector<Node>& nodes);

   private:
    static bool Before(const HeapEntry& a, const HeapEntry& b) {
      if (a.prio != b.prio) {
        return kMaxFirst ? a.prio > b.prio : a.prio < b.prio;
      }
      return kMaxFirst ? a.key > b.key : a.key < b.key;
    }
    void SiftUp(size_t pos, HeapEntry e, std::vector<Node>& nodes);
    void SiftDown(size_t pos, HeapEntry e, std::vector<Node>& nodes);

    std::vector<HeapEntry> items_;
  };

  // Reuse distance quantized for heap ordering (ties broken by key).
  static uint64_t Quantize(double reuse) {
    return reuse < 0.0 ? 0 : static_cast<uint64_t>(reuse);
  }

  uint32_t NewNode(uint64_t key);
  void FreeNode(uint32_t id);
  void LruPushFront(uint32_t id);
  void LruUnlink(uint32_t id);

  void UpdateAttrs(Node& node);
  void InsertLru(uint32_t id);
  void PromoteToHr(uint32_t id);
  void PromoteToHp(uint32_t id);
  void EvictHrIfFull();
  void EvictHpIfFull();

  GhostCacheConfig config_;
  std::vector<Node> nodes_;      // slab; freed nodes chain through `next`
  uint32_t free_ = kNil;
  SparseTable<uint32_t> index_;  // key -> node
  uint32_t lru_head_ = kNil;     // most recently used
  uint32_t lru_tail_ = kNil;
  uint64_t lru_size_ = 0;
  TierHeap<false> hr_;  // (reaccess, key), min-evict
  TierHeap<true> hp_;   // (quantized reuse, key), max-evict
  uint64_t clock_ = 0;
  GhostCacheStats stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_GHOST_CACHE_H_
