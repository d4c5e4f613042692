#include "itree/frozen_set.h"

#include <algorithm>
#include <memory>

namespace sword::itree {

FrozenIntervalSet::FrozenIntervalSet(const IntervalTree& tree) {
  const size_t n = tree.NodeCount();
  lo_.reserve(n);
  hi_.reserve(n);
  nodes_.reserve(n);
  // ForEach is the tree's in-order walk: ascending lo, insertion-stable on
  // ties. The columns come out sorted for free - no sort pass needed.
  tree.ForEach([this](const AccessNode& node) {
    lo_.push_back(node.interval.lo());
    hi_.push_back(node.interval.hi());
    nodes_.push_back(node);
  });
  max_hi_.resize(nodes_.size());
  if (!nodes_.empty()) BuildMaxHi(0, nodes_.size());
}

FrozenIntervalSet FrozenIntervalSet::FromSorted(std::vector<AccessNode> sorted) {
  FrozenIntervalSet set;
  const size_t n = sorted.size();
  set.lo_.reserve(n);
  set.hi_.reserve(n);
  set.nodes_.reserve(n);
  for (const AccessNode& node : sorted) {
    set.lo_.push_back(node.interval.lo());
    set.hi_.push_back(node.interval.hi());
    set.nodes_.push_back(node);
  }
  set.max_hi_.resize(n);
  if (n > 0) set.BuildMaxHi(0, n);
  return set;
}

uint64_t FrozenIntervalSet::BuildMaxHi(size_t l, size_t r) {
  if (l >= r) return 0;
  const size_t mid = l + (r - l) / 2;
  uint64_t m = hi_[mid];
  if (l < mid) m = std::max(m, BuildMaxHi(l, mid));
  if (mid + 1 < r) m = std::max(m, BuildMaxHi(mid + 1, r));
  max_hi_[mid] = m;
  return m;
}

bool FrozenIntervalSet::QueryRange(uint64_t query_lo, uint64_t query_hi,
                                   FunctionRef<bool(uint32_t)> fn) const {
  if (nodes_.empty()) return true;
  return QueryRecurse(0, nodes_.size(), query_lo, query_hi, fn);
}

bool FrozenIntervalSet::QueryRecurse(size_t l, size_t r, uint64_t query_lo,
                                     uint64_t query_hi,
                                     FunctionRef<bool(uint32_t)>& fn) const {
  if (l >= r) return true;
  const size_t mid = l + (r - l) / 2;
  // Same pruning rule as the pointer tree: if nothing in this subtree ends
  // at or after query_lo, no interval here can touch the query.
  if (max_hi_[mid] < query_lo) return true;
  if (!QueryRecurse(l, mid, query_lo, query_hi, fn)) return false;
  if (lo_[mid] <= query_hi) {
    if (hi_[mid] >= query_lo) {
      if (!fn(static_cast<uint32_t>(mid))) return false;
    }
    return QueryRecurse(mid + 1, r, query_lo, query_hi, fn);
  }
  // mid starts past the query; everything to its right starts even later.
  return true;
}

uint64_t FrozenIntervalSet::MemoryBytes() const {
  return static_cast<uint64_t>(lo_.capacity() * sizeof(uint64_t) +
                               hi_.capacity() * sizeof(uint64_t) +
                               max_hi_.capacity() * sizeof(uint64_t) +
                               nodes_.capacity() * sizeof(AccessNode));
}

namespace {

/// Active lists of one side of the sweep: indices whose interval started
/// already and may still touch a later start on the other side, split by
/// access kind so a read's start can skip deciding its read-read pairs.
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

  bool empty() const {
    return writes_end_ == buffer_.get() && reads_begin_ == end_;
  }
  void Add(uint32_t idx, bool write) {
    if (write) *writes_end_++ = idx;
    else *--reads_begin_ = idx;
  }

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

  /// Count-only twin of EmitReads: same expiry, no callback; returns the
  /// number of survivors, each one a range-touching pair with `start`'s node.
  uint64_t CountReads(const FrozenIntervalSet& set, uint64_t start) {
    uint32_t* keep = end_;
    for (uint32_t* p = end_; p != reads_begin_;) {
      const uint32_t idx = *--p;
      keep[-1] = idx;
      keep -= set.hi(idx) >= start ? 1 : 0;
    }
    reads_begin_ = keep;
    return static_cast<uint64_t>(end_ - keep);
  }

 private:
  std::unique_ptr<uint32_t[]> buffer_;
  uint32_t* writes_end_;   // writes: [buffer_, writes_end_)
  uint32_t* reads_begin_;  // reads: [reads_begin_, end_)
  uint32_t* end_;
};

/// One start event: node `idx` of `self` begins. Every live write of the
/// other side is emitted; its live reads are emitted only when `idx` is a
/// write, and merely counted into `read_read` when it is a read. Then `idx`
/// joins its own side's active lists.
template <typename Emit>
bool Start(const FrozenIntervalSet& self, uint32_t idx, ActiveLists& self_active,
           const FrozenIntervalSet& other, ActiveLists& other_active,
           uint64_t& read_read, Emit emit) {
  const uint64_t start = self.lo(idx);
  if (!other_active.EmitWrites(other, start, emit)) return false;
  const bool write = self.node(idx).key.is_write();
  if (write) {
    if (!other_active.EmitReads(other, start, emit)) return false;
  } else {
    read_read += other_active.CountReads(other, start);
  }
  self_active.Add(idx, write);
  return true;
}

}  // namespace

SweepResult SweepMatchingPairs(const FrozenIntervalSet& a,
                               const FrozenIntervalSet& b,
                               FunctionRef<bool(uint32_t, uint32_t)> fn,
                               const std::atomic<bool>* cancel) {
  SweepResult result;
  const uint32_t na = static_cast<uint32_t>(a.size());
  const uint32_t nb = static_cast<uint32_t>(b.size());
  uint32_t i = 0;
  uint32_t j = 0;
  // Entries are expired lazily (hi < current start) the next time their list
  // is scanned; each is appended once and removed once, and every scan of a
  // surviving entry emits or counts a pair, so the whole sweep is
  // O(na + nb + emitted + counted).
  ActiveLists active_a(na);
  ActiveLists active_b(nb);
  while (i < na || j < nb) {
    // Polled per start event, so read-only stretches (which never call fn)
    // stay interruptible.
    if (cancel && cancel->load(std::memory_order_relaxed)) return result;
    if (i >= na && active_a.empty()) break;  // nothing left for b to match
    if (j >= nb && active_b.empty()) break;  // nothing left for a to match
    // Tie-break lo(a) == lo(b) toward a: b's turn then finds a in its active
    // lists (hi >= lo always), so the pair is still visited exactly once.
    if (j >= nb || (i < na && a.lo(i) <= b.lo(j))) {
      if (!Start(a, i, active_a, b, active_b, result.read_read_pairs,
                 [&](uint32_t bi) { return fn(i, bi); })) {
        return result;
      }
      ++i;
    } else {
      if (!Start(b, j, active_b, a, active_a, result.read_read_pairs,
                 [&](uint32_t ai) { return fn(ai, j); })) {
        return result;
      }
      ++j;
    }
  }
  result.completed = true;
  return result;
}

}  // namespace sword::itree
