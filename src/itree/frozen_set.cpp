#include "itree/frozen_set.h"

#include <algorithm>
#include <memory>

namespace sword::itree {

FrozenIntervalSet FrozenIntervalSet::FromSorted(std::vector<AccessNode> sorted) {
  FrozenIntervalSet set;
  const size_t n = sorted.size();
  set.lo_.reserve(n);
  set.hi_.reserve(n);
  for (const AccessNode& node : sorted) {
    set.lo_.push_back(node.interval.lo());
    set.hi_.push_back(node.interval.hi());
  }
  sorted.shrink_to_fit();  // no-op (no copy) when reserved exactly
  set.nodes_ = std::move(sorted);
  return set;
}

uint64_t FrozenIntervalSet::MemoryBytes() const {
  return static_cast<uint64_t>(lo_.capacity() * sizeof(uint64_t) +
                               hi_.capacity() * sizeof(uint64_t) +
                               nodes_.capacity() * sizeof(AccessNode));
}

namespace {

/// Active lists of one side of the sweep: indices whose interval started
/// already and may still touch a later start on the other side, split by
/// access kind because only a write's start needs the other side's reads.
/// Both lists share one buffer sized to the side - writes grow up from the
/// front, reads down from the back - so they never reallocate and together
/// never exceed the side's node count. The buffer is not zero-filled: a
/// list only ever reads back what it wrote.
class ActiveLists {
 public:
  explicit ActiveLists(size_t nodes)
      : buffer_(std::make_unique_for_overwrite<uint32_t[]>(nodes)),
        writes_end_(buffer_.get()),
        reads_begin_(buffer_.get() + nodes),
        end_(reads_begin_) {}

  void Add(uint32_t idx, bool write, uint64_t hi) {
    if (write) *writes_end_++ = idx;
    else *--reads_begin_ = idx;
    max_hi_ = std::max(max_hi_, hi);
  }

  /// True when no interval added so far reaches `start`, so none can touch
  /// a start at or after it. Reads are expired only at the other side's
  /// write starts, so the lists may still hold reads that ended long ago;
  /// the running max-hi sees past them.
  bool AllEndBefore(uint64_t start) const { return max_hi_ < start; }

  /// Drops the writes that end before `start` (they can never match again)
  /// and calls emit(idx) for every survivor. Returns false as soon as emit
  /// does.
  template <typename Emit>
  bool EmitWrites(const FrozenIntervalSet& set, uint64_t start, Emit& emit) {
    uint32_t* keep = buffer_.get();
    for (uint32_t* p = buffer_.get(); p != writes_end_; ++p) {
      if (set.hi(*p) < start) continue;
      *keep++ = *p;
      if (!emit(*p)) return false;
    }
    writes_end_ = keep;
    return true;
  }

  /// EmitWrites over the reads, compacting toward the back.
  template <typename Emit>
  bool EmitReads(const FrozenIntervalSet& set, uint64_t start, Emit& emit) {
    uint32_t* keep = end_;
    for (uint32_t* p = end_; p != reads_begin_;) {
      const uint32_t idx = *--p;
      if (set.hi(idx) < start) continue;
      *--keep = idx;
      if (!emit(idx)) return false;
    }
    reads_begin_ = keep;
    return true;
  }

 private:
  std::unique_ptr<uint32_t[]> buffer_;
  uint32_t* writes_end_;   // writes: [buffer_, writes_end_)
  uint32_t* reads_begin_;  // reads: [reads_begin_, end_)
  uint32_t* end_;
  uint64_t max_hi_ = 0;    // over every index ever added
};

/// One start event: node `idx` of `self` begins. Every live write of the
/// other side is emitted, and its live reads too when `idx` is a write.
/// Then `idx` joins its own side's active lists.
template <typename Emit>
bool Start(const FrozenIntervalSet& self, uint32_t idx, ActiveLists& self_active,
           const FrozenIntervalSet& other, ActiveLists& other_active,
           Emit emit) {
  const uint64_t start = self.lo(idx);
  if (!other_active.EmitWrites(other, start, emit)) return false;
  const bool write = self.node(idx).key.is_write();
  if (write && !other_active.EmitReads(other, start, emit)) return false;
  self_active.Add(idx, write, self.hi(idx));
  return true;
}

}  // namespace

bool SweepMatchingPairs(const FrozenIntervalSet& a, const FrozenIntervalSet& b,
                        FunctionRef<bool(uint32_t, uint32_t)> fn,
                        const std::atomic<bool>* cancel) {
  const uint32_t na = static_cast<uint32_t>(a.size());
  const uint32_t nb = static_cast<uint32_t>(b.size());
  if (na == 0 || nb == 0) return true;
  uint32_t i = 0;
  uint32_t j = 0;
  // Entries are expired lazily (hi < current start) the next time their list
  // is scanned; each is appended once and removed at most once, and every
  // scan of a surviving entry emits a pair, so the whole sweep is
  // O(na + nb + emitted).
  ActiveLists active_a(na);
  ActiveLists active_b(nb);
  while (i < na || j < nb) {
    // One side is exhausted and nothing it added reaches the other side's
    // next start: no pair is left.
    if (i >= na && active_a.AllEndBefore(b.lo(j))) break;
    if (j >= nb && active_b.AllEndBefore(a.lo(i))) break;
    // Polled per start event, so read-only stretches (which never call fn)
    // stay interruptible.
    if (cancel && cancel->load(std::memory_order_relaxed)) return false;
    // Tie-break lo(a) == lo(b) toward a: b's turn then finds a in its active
    // lists (hi >= lo always), so the pair is still visited exactly once.
    if (j >= nb || (i < na && a.lo(i) <= b.lo(j))) {
      if (!Start(a, i, active_a, b, active_b,
                 [&](uint32_t bi) { return fn(i, bi); })) {
        return false;
      }
      ++i;
    } else {
      if (!Start(b, j, active_b, a, active_a,
                 [&](uint32_t ai) { return fn(ai, j); })) {
        return false;
      }
      ++j;
    }
  }
  return true;
}

}  // namespace sword::itree
