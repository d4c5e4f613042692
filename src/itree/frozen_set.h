// Frozen flat interval sets: the immutable, cache-resident comparison form
// of a summarized interval tree.
//
// Construction and comparison have opposite access patterns. Building wants
// O(log N) insertion with stable handles, which the red-black IntervalTree
// provides; comparison wants sequential scans over sorted data, which a
// pointer-linked tree cannot. So once a (thread, label) tree is fully built,
// the analyzer freezes it: one in-order walk copies the nodes into sorted
// flat arrays (structure-of-arrays: a `lo` column, a `hi` column, and the
// payload column), and every subsequent tree-vs-tree comparison runs on the
// frozen form only. The RB-tree is never touched again.
//
// Two enumeration primitives cover the comparison shapes:
//   - SweepMatchingPairs: a sort-merge sweep over two frozen sets that
//     visits every range-touching pair in O(M + M' + matches) with purely
//     sequential memory access - the analyzer's default. Pairs with a write
//     go to a callback; read-read pairs are only counted.
//   - QueryRange: an implicit-balanced-BST search over the sorted arrays
//     (midpoint recursion + a subtree-max-hi column), O(log M + answer) per
//     query - the fallback when one set is much smaller than the other, so
//     the small side can gallop through the big one instead of paying a
//     full linear merge.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/function_ref.h"
#include "itree/interval_tree.h"

namespace sword::itree {

class FrozenIntervalSet {
 public:
  FrozenIntervalSet() = default;

  /// Freezes `tree`: one in-order walk, O(M) time and memory. The frozen set
  /// is an independent copy - the tree may be discarded afterwards.
  explicit FrozenIntervalSet(const IntervalTree& tree);

  /// Builds directly from nodes already in frozen order (ascending first
  /// byte, creation-stable on ties) - the streaming builder's Freeze() path,
  /// which never materializes a tree. Byte-identical (columns, capacities,
  /// MemoryBytes) to freezing the equivalent tree.
  static FrozenIntervalSet FromSorted(std::vector<AccessNode> sorted);

  size_t size() const { return nodes_.size(); }
  bool Empty() const { return nodes_.empty(); }

  /// Nodes are indexed in ascending `lo` order (ties keep the tree's stable
  /// in-order position).
  const AccessNode& node(size_t i) const { return nodes_[i]; }
  uint64_t lo(size_t i) const { return lo_[i]; }
  uint64_t hi(size_t i) const { return hi_[i]; }

  /// Calls `fn(index)` for every node whose byte range [lo,hi] touches
  /// [query_lo, query_hi], in ascending index (= lo) order. Stops early and
  /// returns false if fn returns false. O(log M + answer) via the implicit
  /// balanced-BST layout: node = midpoint of its index range, augmented with
  /// the subtree max-hi, exactly the IntervalTree's pruning rule but over
  /// flat arrays instead of pointer-linked nodes.
  bool QueryRange(uint64_t query_lo, uint64_t query_hi,
                  FunctionRef<bool(uint32_t)> fn) const;

  /// Heap footprint of the frozen columns.
  uint64_t MemoryBytes() const;

 private:
  bool QueryRecurse(size_t l, size_t r, uint64_t query_lo, uint64_t query_hi,
                    FunctionRef<bool(uint32_t)>& fn) const;
  uint64_t BuildMaxHi(size_t l, size_t r);

  // SoA columns, all sorted by lo. max_hi_[mid(l,r)] = max hi over [l,r),
  // the augmentation of the implicit midpoint BST.
  std::vector<uint64_t> lo_;
  std::vector<uint64_t> hi_;
  std::vector<uint64_t> max_hi_;
  std::vector<AccessNode> nodes_;
};

/// Outcome of one SweepMatchingPairs call.
struct SweepResult {
  /// False when the sweep stopped early: fn returned false or `cancel` was
  /// raised.
  bool completed = false;
  /// Range-touching read-read pairs: counted, never handed to fn. Partial
  /// when the sweep did not complete.
  uint64_t read_read_pairs = 0;
};

/// Sort-merge sweep over the range-touching pairs (ai, bi) of two frozen
/// sets. Both sets are walked once in ascending lo order; each start event
/// scans the other side's active lists, expiring dead intervals (amortized
/// O(1) each). Every pair with at least one write (AccessKey::is_write) is
/// emitted through fn exactly once; a read-read pair is never emitted - two
/// reads cannot race - only counted into read_read_pairs. Each side keeps
/// its writes and reads in separate active lists, so a read's start counts
/// the other side's live reads in a tight pass with no callback. Total cost
/// O(|a| + |b| + emitted + counted), sequential. Emission order is
/// deterministic but NOT grouped by either side - callers that need a
/// canonical order must sort what they collect. Stops early when fn returns
/// false, or when `cancel` (if non-null) is found set; it is polled once per
/// start event, so long read-only stretches stay interruptible.
SweepResult SweepMatchingPairs(const FrozenIntervalSet& a,
                               const FrozenIntervalSet& b,
                               FunctionRef<bool(uint32_t, uint32_t)> fn,
                               const std::atomic<bool>* cancel = nullptr);

}  // namespace sword::itree
