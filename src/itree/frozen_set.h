// Frozen flat interval sets: the immutable, cache-resident comparison form
// of one (thread, label) group's summarized accesses.
//
// Construction and comparison have opposite access patterns. Building wants
// cheap appends with stable node ids, which itree::StreamingSetBuilder
// provides; comparison wants sequential scans over sorted data. So once a
// group's summary is final, the analyzer freezes it (StreamingSetBuilder::
// Freeze, which hands its sorted node copy to FromSorted) into sorted flat
// arrays - structure-of-arrays: a `lo` column, a `hi` column, and the
// payload column - and every subsequent summary-vs-summary comparison runs
// on the frozen form only.
//
// One enumeration primitive covers every comparison: SweepMatchingPairs, a
// sort-merge sweep over two frozen sets that visits every range-touching
// pair with at least one write in O(M + M' + emitted) with purely
// sequential memory access. Two reads cannot race, so read-read pairs are
// never visited.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/function_ref.h"
#include "itree/access.h"

namespace sword::itree {

class FrozenIntervalSet {
 public:
  FrozenIntervalSet() = default;

  /// Builds from nodes already in frozen order (ascending first byte,
  /// creation-stable on ties) - the streaming builder's Freeze() path.
  /// `sorted` becomes the payload column as is (no copy when its capacity is
  /// exactly its size, as Freeze() reserves it); every column holds exactly
  /// `sorted.size()` slots, so MemoryBytes depends on the node count alone.
  static FrozenIntervalSet FromSorted(std::vector<AccessNode> sorted);

  size_t size() const { return nodes_.size(); }
  bool Empty() const { return nodes_.empty(); }

  /// Nodes are indexed in ascending `lo` order (ties keep creation order).
  const AccessNode& node(size_t i) const { return nodes_[i]; }
  uint64_t lo(size_t i) const { return lo_[i]; }
  uint64_t hi(size_t i) const { return hi_[i]; }

  /// Heap footprint of the frozen columns.
  uint64_t MemoryBytes() const;

 private:
  // SoA columns, all sorted by lo.
  std::vector<uint64_t> lo_;
  std::vector<uint64_t> hi_;
  std::vector<AccessNode> nodes_;
};

/// Sort-merge sweep over the range-touching pairs (ai, bi) of two frozen
/// sets that have at least one write (AccessKey::is_write). Both sets are
/// walked once in ascending lo order; each start event scans the other
/// side's live writes and, when the starting node is a write, its live reads
/// too, expiring dead entries as it goes (amortized O(1) each). Every such
/// pair is emitted through fn exactly once; a read-read pair is never
/// visited - two reads cannot race. Total cost O(|a| + |b| + emitted),
/// sequential. Emission order is deterministic but NOT grouped by either
/// side - callers that need a canonical order must sort what they collect.
/// Returns false when it stopped early: fn returned false, or `cancel` (if
/// non-null) was found set; it is polled once per start event, so long
/// read-only stretches stay interruptible.
bool SweepMatchingPairs(const FrozenIntervalSet& a, const FrozenIntervalSet& b,
                        FunctionRef<bool(uint32_t, uint32_t)> fn,
                        const std::atomic<bool>* cancel = nullptr);

}  // namespace sword::itree
