// Lock-free building blocks for the online trace plane.
//
// Two structures, modeled on the progress64 designs the ROADMAP names
// (p64_ringbuf / p64_lfring):
//
//  - MpmcRing<T>: a bounded multi-producer multi-consumer ring with a
//    per-slot sequence number (Vyukov's design). Producers and consumers
//    claim positions with a CAS on a cache-line-isolated head/tail and then
//    synchronize on the slot's own sequence word, so a claim in progress
//    never blocks other slots. Used as the flusher's per-worker lane (many
//    producers, one consumer).
//
//  - FreeList<T>: a bounded lock-free free list built from TWO Treiber
//    stacks over one fixed node array - a "spare" stack of empty nodes and
//    a "full" stack of populated ones. Heads pack {tag, index} into a
//    single 64-bit word (tag bumped on every successful CAS), which kills
//    ABA without double-width CAS and without ever freeing a node, so a
//    racing reader can at worst read a stale-but-allocated node and fail
//    its CAS. Used by the flusher's BufferPool.
//
// Memory ordering invariants (per structure) are documented inline and in
// docs/ARCHITECTURE.md. Everything here is TSan-clean by construction: all
// cross-thread state is std::atomic.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace sword::lockfree {

/// Destructive-interference span: hot atomics owned by different threads
/// are kept on separate lines with alignas(kCacheLine).
inline constexpr std::size_t kCacheLine = 64;

inline std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bounded MPMC ring buffer (Vyukov). Capacity is rounded up to a power of
/// two. TryPush moves from `v` only on success; TryPop move-assigns into
/// `*out` and destroys the slot's element only on success.
///
/// Ordering: a producer publishes the element with a release store of the
/// slot sequence (seq = pos + 1); the consumer's acquire load of that same
/// word is the ONLY synchronization edge for the payload. head_/tail_ CAS
/// operations are relaxed - they only arbitrate position ownership, never
/// publish data.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t min_capacity)
      : capacity_(RoundUpPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(new Slot[capacity_]) {
    for (std::size_t i = 0; i < capacity_; i++) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  ~MpmcRing() {
    T drop;
    while (TryPop(&drop)) {
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// False when the ring is full. `v` is untouched on failure.
  bool TryPush(T&& v) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          new (slot.storage) T(std::move(v));
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // the slot still holds an element from one lap ago
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// False when the ring is empty.
  bool TryPop(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          T* elem = std::launder(reinterpret_cast<T*>(slot.storage));
          *out = std::move(*elem);
          elem->~T();
          // Hand the slot to producers one lap ahead.
          slot.seq.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool Empty() const { return ApproxSize() == 0; }

  /// Racy by nature; exact once producers and consumers are quiescent.
  std::size_t ApproxSize() const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
};

/// Bounded lock-free free list: TryPut parks a value, TryGet takes any
/// parked value (LIFO-ish, no ordering guarantee). Rejects instead of
/// blocking or allocating when full/empty.
///
/// ABA defense: stack heads are {tag:32 | index:32}; every successful
/// push/pop bumps the tag, and nodes live in one fixed array for the list's
/// lifetime, so a stale head can never be re-validated by coincidence and a
/// stale node read can never fault.
///
/// Ordering: Push publishes node payload with the release CAS on the stack
/// head; Pop's acquire load + acquire CAS failure reload pair with it. The
/// node's `next` word is only ever written by the node's exclusive owner
/// (the thread that popped it from the other stack) before the publishing
/// CAS.
template <typename T>
class FreeList {
 public:
  explicit FreeList(std::size_t capacity)
      : capacity_(capacity), nodes_(capacity ? new Node[capacity] : nullptr) {
    for (std::size_t i = 0; i + 1 < capacity_; i++) {
      nodes_[i].next.store(static_cast<uint32_t>(i + 1),
                           std::memory_order_relaxed);
    }
    if (capacity_ > 0) {
      nodes_[capacity_ - 1].next.store(kNil, std::memory_order_relaxed);
      spare_.store(Pack(0, 0), std::memory_order_relaxed);
    }
  }

  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// False when all nodes are in use (list full). `v` is untouched then.
  bool TryPut(T&& v) {
    const uint32_t idx = Pop(spare_);
    if (idx == kNil) return false;
    nodes_[idx].value = std::move(v);
    Push(full_, idx);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// False when no value is parked.
  bool TryGet(T* out) {
    const uint32_t idx = Pop(full_);
    if (idx == kNil) return false;
    size_.fetch_sub(1, std::memory_order_relaxed);
    *out = std::move(nodes_[idx].value);
    nodes_[idx].value = T{};  // drop any moved-from residue eagerly
    Push(spare_, idx);
    return true;
  }

  /// Racy by nature; exact once all threads are quiescent.
  std::size_t ApproxSize() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    std::atomic<uint32_t> next{kNil};
    T value{};
  };

  static uint64_t Pack(uint32_t index, uint32_t tag) {
    return (static_cast<uint64_t>(tag) << 32) | index;
  }

  uint32_t Pop(std::atomic<uint64_t>& head) {
    uint64_t h = head.load(std::memory_order_acquire);
    for (;;) {
      const uint32_t idx = static_cast<uint32_t>(h);
      if (idx == kNil) return kNil;
      // Possibly stale (another thread may pop `idx` first), but always a
      // live node in nodes_: the CAS below fails on any interleaving.
      const uint32_t next = nodes_[idx].next.load(std::memory_order_relaxed);
      const uint64_t replacement =
          Pack(next, static_cast<uint32_t>(h >> 32) + 1);
      if (head.compare_exchange_weak(h, replacement,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return idx;
      }
    }
  }

  void Push(std::atomic<uint64_t>& head, uint32_t idx) {
    uint64_t h = head.load(std::memory_order_relaxed);
    for (;;) {
      nodes_[idx].next.store(static_cast<uint32_t>(h),
                             std::memory_order_relaxed);
      const uint64_t replacement =
          Pack(idx, static_cast<uint32_t>(h >> 32) + 1);
      if (head.compare_exchange_weak(h, replacement,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  const std::size_t capacity_;
  std::unique_ptr<Node[]> nodes_;
  alignas(kCacheLine) std::atomic<uint64_t> full_{Pack(kNil, 0)};
  alignas(kCacheLine) std::atomic<uint64_t> spare_{Pack(kNil, 0)};
  alignas(kCacheLine) std::atomic<std::size_t> size_{0};
};

}  // namespace sword::lockfree
