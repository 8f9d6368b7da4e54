// SlotPool<T>: a slab of T recycled through a LIFO free list.
//
// Hot-path completions park their state in a slot and capture only
// {this, index} — small enough for std::function's local buffer — so an
// in-flight I/O costs no heap allocation once the slab has grown to the
// peak number outstanding. Indices stay valid while the slab grows;
// references do not, so re-index after any call that may Acquire.
// Released slots keep their members (a vector's capacity is reused by the
// next holder); callers reset what must not linger.
#ifndef BIZA_SRC_COMMON_SLOT_POOL_H_
#define BIZA_SRC_COMMON_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace biza {

template <typename T>
class SlotPool {
 public:
  uint32_t Acquire() {
    if (free_.empty()) {
      free_.push_back(static_cast<uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    const uint32_t id = free_.back();
    free_.pop_back();
    return id;
  }
  void Release(uint32_t id) { free_.push_back(id); }
  // Destroys every slot, held or free.
  void Clear() {
    slots_.clear();
    free_.clear();
  }

  T& operator[](uint32_t id) { return slots_[id]; }
  const T& operator[](uint32_t id) const { return slots_[id]; }

  // Slots currently held (acquired and not yet released).
  size_t in_use() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace biza

#endif  // BIZA_SRC_COMMON_SLOT_POOL_H_
