#include "src/biza/ghost_cache.h"

#include <cassert>

namespace biza {

// ---------------------------------------------------------------------------
// TierHeap

template <bool kMaxFirst>
void GhostCache::TierHeap<kMaxFirst>::SiftUp(size_t pos, HeapEntry e,
                                             std::vector<Node>& nodes) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(e, items_[parent])) {
      break;
    }
    items_[pos] = items_[parent];
    nodes[items_[pos].node].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  items_[pos] = e;
  nodes[e.node].heap_pos = static_cast<uint32_t>(pos);
}

template <bool kMaxFirst>
void GhostCache::TierHeap<kMaxFirst>::SiftDown(size_t pos, HeapEntry e,
                                               std::vector<Node>& nodes) {
  const size_t n = items_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(items_[child + 1], items_[child])) {
      child++;
    }
    if (!Before(items_[child], e)) {
      break;
    }
    items_[pos] = items_[child];
    nodes[items_[pos].node].heap_pos = static_cast<uint32_t>(pos);
    pos = child;
  }
  items_[pos] = e;
  nodes[e.node].heap_pos = static_cast<uint32_t>(pos);
}

template <bool kMaxFirst>
void GhostCache::TierHeap<kMaxFirst>::Push(const HeapEntry& e,
                                           std::vector<Node>& nodes) {
  items_.push_back(e);
  SiftUp(items_.size() - 1, e, nodes);
}

template <bool kMaxFirst>
void GhostCache::TierHeap<kMaxFirst>::Remove(uint32_t pos,
                                             std::vector<Node>& nodes) {
  assert(pos < items_.size());
  nodes[items_[pos].node].heap_pos = kNil;
  const HeapEntry last = items_.back();
  items_.pop_back();
  if (pos == items_.size()) {
    return;
  }
  // The former last entry fills the hole and moves whichever way it must.
  if (pos > 0 && Before(last, items_[(pos - 1) / 2])) {
    SiftUp(pos, last, nodes);
  } else {
    SiftDown(pos, last, nodes);
  }
}

template <bool kMaxFirst>
void GhostCache::TierHeap<kMaxFirst>::SetPrio(uint32_t pos, uint64_t prio,
                                              std::vector<Node>& nodes) {
  assert(pos < items_.size());
  HeapEntry e = items_[pos];
  const bool toward_root =
      kMaxFirst ? prio > e.prio : prio < e.prio;
  e.prio = prio;
  if (toward_root) {
    SiftUp(pos, e, nodes);
  } else {
    SiftDown(pos, e, nodes);
  }
}

// ---------------------------------------------------------------------------
// Slab and LRU list

uint32_t GhostCache::NewNode(uint64_t key) {
  uint32_t id = free_;
  if (id != kNil) {
    free_ = nodes_[id].next;
    nodes_[id] = Node{};
  } else {
    id = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[id].key = key;
  index_.Set(key, id);
  return id;
}

void GhostCache::FreeNode(uint32_t id) {
  index_.Erase(nodes_[id].key);
  nodes_[id].next = free_;
  free_ = id;
}

void GhostCache::LruPushFront(uint32_t id) {
  Node& node = nodes_[id];
  node.prev = kNil;
  node.next = lru_head_;
  if (lru_head_ != kNil) {
    nodes_[lru_head_].prev = id;
  } else {
    lru_tail_ = id;
  }
  lru_head_ = id;
  lru_size_++;
}

void GhostCache::LruUnlink(uint32_t id) {
  Node& node = nodes_[id];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    lru_head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    lru_tail_ = node.prev;
  }
  node.prev = kNil;
  node.next = kNil;
  lru_size_--;
}

// ---------------------------------------------------------------------------
// Tiers

void GhostCache::UpdateAttrs(Node& node) {
  const double reuse = static_cast<double>(clock_ - node.last_clock);
  node.reaccess++;
  if (node.has_reuse) {
    node.reuse_ewma = config_.reuse_ewma_alpha * reuse +
                      (1.0 - config_.reuse_ewma_alpha) * node.reuse_ewma;
  } else {
    node.reuse_ewma = reuse;
    node.has_reuse = true;
  }
  node.last_clock = clock_;
}

void GhostCache::InsertLru(uint32_t id) {
  nodes_[id].where = Residence::kLru;
  LruPushFront(id);
  if (lru_size_ > config_.lru_entries) {
    const uint32_t victim = lru_tail_;
    LruUnlink(victim);
    FreeNode(victim);
  }
}

void GhostCache::EvictHrIfFull() {
  if (hr_.size() <= config_.hr_entries) {
    return;
  }
  // Evict the minimum-reaccess entry back to the LRU cache (2b in Fig. 7).
  const uint32_t victim = hr_.top().node;
  hr_.Remove(0, nodes_);
  stats_.lru_demotions++;
  InsertLru(victim);
}

void GhostCache::EvictHpIfFull() {
  if (hp_.size() <= config_.hp_entries) {
    return;
  }
  // Evict the maximum-reuse-distance entry back to the HR cache (3b).
  const uint32_t victim = hp_.top().node;
  hp_.Remove(0, nodes_);
  Node& node = nodes_[victim];
  node.where = Residence::kHr;
  hr_.Push({node.reaccess, node.key, victim}, nodes_);
  stats_.hr_demotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHr(uint32_t id) {
  Node& node = nodes_[id];
  node.where = Residence::kHr;
  hr_.Push({node.reaccess, node.key, id}, nodes_);
  stats_.hr_promotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHp(uint32_t id) {
  Node& node = nodes_[id];
  node.where = Residence::kHp;
  hp_.Push({Quantize(node.reuse_ewma), node.key, id}, nodes_);
  stats_.hp_promotions++;
  EvictHpIfFull();
}

ChunkTier GhostCache::OnWrite(uint64_t key) {
  clock_++;
  stats_.lookups++;

  const uint32_t* found = index_.Find(key);
  if (found == nullptr) {
    const uint32_t id = NewNode(key);
    nodes_[id].last_clock = clock_;
    InsertLru(id);
    return ChunkTier::kTrivial;
  }

  // No node is allocated below, so `node` stays valid throughout.
  const uint32_t id = *found;
  Node& node = nodes_[id];
  switch (node.where) {
    case Residence::kLru: {
      stats_.lru_hits++;
      UpdateAttrs(node);
      LruUnlink(id);
      if (node.reaccess < config_.promote_reaccess) {
        LruPushFront(id);  // refresh the LRU position
        return ChunkTier::kTrivial;
      }
      const bool to_hp =
          node.has_reuse &&
          node.reuse_ewma <= static_cast<double>(config_.hp_reuse_threshold);
      // Decide the destination before inserting: in a full HR cache a key
      // that would lead the min-heap evicts itself straight back to LRU.
      const bool self_evicts =
          hr_.size() >= config_.hr_entries &&
          hr_.WouldLead({node.reaccess, key, id});
      if (self_evicts) {
        if (!to_hp) {
          LruPushFront(id);  // not admitted: stays the LRU's newest entry
          return ChunkTier::kTrivial;
        }
        stats_.hr_promotions++;  // passes through HR on the way to HP
        PromoteToHp(id);
        return ChunkTier::kHighProfit;
      }
      PromoteToHr(id);
      if (to_hp) {
        hr_.Remove(node.heap_pos, nodes_);
        PromoteToHp(id);
        return ChunkTier::kHighProfit;
      }
      return ChunkTier::kHighRevenue;
    }
    case Residence::kHr: {
      UpdateAttrs(node);
      if (node.reuse_ewma <= static_cast<double>(config_.hp_reuse_threshold)) {
        hr_.Remove(node.heap_pos, nodes_);
        PromoteToHp(id);
        return ChunkTier::kHighProfit;
      }
      hr_.SetPrio(node.heap_pos, node.reaccess, nodes_);
      return ChunkTier::kHighRevenue;
    }
    case Residence::kHp: {
      UpdateAttrs(node);
      hp_.SetPrio(node.heap_pos, Quantize(node.reuse_ewma), nodes_);
      return ChunkTier::kHighProfit;
    }
  }
  return ChunkTier::kTrivial;
}

ChunkTier GhostCache::TierOf(uint64_t key) const {
  const uint32_t* found = index_.Find(key);
  if (found == nullptr) {
    return ChunkTier::kTrivial;
  }
  switch (nodes_[*found].where) {
    case Residence::kHp:
      return ChunkTier::kHighProfit;
    case Residence::kHr:
      return ChunkTier::kHighRevenue;
    case Residence::kLru:
      return ChunkTier::kTrivial;
  }
  return ChunkTier::kTrivial;
}

}  // namespace biza
