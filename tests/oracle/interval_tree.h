// Test-only reference summarizer: the augmented red-black interval tree of
// the paper (SIII-B, Fig. 5), over summarized strided access runs.
//
// The analyzer summarizes with itree::StreamingSetBuilder and compares frozen
// flat sets; this tree is the independent reference both are checked
// against. Raw accesses stream in in program order; an access that continues
// a run extends the corresponding node in O(1) via a continuation index,
// otherwise a new node is inserted in O(log N). Nodes are kept in a
// red-black tree ordered by first byte, each augmented with the maximum
// last-byte in its subtree, so all nodes whose [lo,hi] byte range touches a
// query range are enumerable in O(log N + answer). The in-order walk
// (ForEach) is the node sequence a frozen set must hold: feed it to
// itree::FrozenIntervalSet::FromSorted to compare against a builder's
// Freeze().
//
// Nodes live in a flat arena (indices, not pointers): rotations relink
// indices and never move nodes, so continuation handles stay valid.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/function_ref.h"
#include "ilp/overlap.h"
#include "itree/access.h"
#include "itree/frozen_set.h"

namespace sword::itree {

/// (key, address) lookup key for the tree's summarization indexes. The
/// streaming builder (itree/streaming_builder.h) keeps its own flat tables
/// and shares only HashAccess.
struct ContKey {
  uint64_t addr;
  AccessKey key;
  friend bool operator==(const ContKey&, const ContKey&) = default;
};
struct ContKeyHash {
  size_t operator()(const ContKey& k) const {
    return static_cast<size_t>(HashAccess(k.addr, k.key));
  }
};
struct AccessKeyHash {
  size_t operator()(const AccessKey& k) const {
    return ContKeyHash{}(ContKey{0, k});
  }
};

class IntervalTree {
 public:
  IntervalTree();

  /// Records one access at `addr`. Extends an existing summarized run when
  /// possible, otherwise inserts a new node. Returns the node id touched.
  uint32_t AddAccess(uint64_t addr, const AccessKey& key);

  /// Records a coalesced strided run: `count` accesses at base, base+stride,
  /// ..., base+(count-1)*stride. EXACTLY equivalent to that many AddAccess
  /// calls in ascending order - structure, hit counts, and summarization-
  /// index state all match, so traces replay identically whether the writer
  /// coalesced or not. O(log N + 1) when the run lands in a fresh node with
  /// no same-key sibling (the common case); falls back to the per-element
  /// loop otherwise. Returns the node id of the last element.
  uint32_t AddRun(uint64_t base, uint64_t stride, uint64_t count,
                  const AccessKey& key);

  /// Inserts a pre-summarized interval (used by tests and by tree merging).
  uint32_t AddInterval(const ilp::StridedInterval& interval, const AccessKey& key);

  /// Calls `fn` for every node whose byte range [lo,hi] touches
  /// [query_lo, query_hi]. Stops early if fn returns false.
  void QueryRange(uint64_t query_lo, uint64_t query_hi,
                  FunctionRef<bool(const AccessNode&)> fn) const;

  /// In-order traversal over all nodes (ascending lo; insertion-stable on
  /// ties, because equal keys insert to the right).
  void ForEach(FunctionRef<void(const AccessNode&)> fn) const;

  size_t NodeCount() const { return nodes_.size(); }
  uint64_t TotalAccesses() const { return total_accesses_; }
  bool Empty() const { return nodes_.empty(); }

  /// Approximate heap footprint (for the memory-accounting benches).
  uint64_t MemoryBytes() const;

  /// Verifies every structural invariant (BST order on lo, red-black
  /// properties, max-hi augmentation). Returns false and fills `why` on the
  /// first violation. Test-only; O(N).
  bool Validate(std::string* why = nullptr) const;

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  enum Color : uint8_t { kRed, kBlack };

  struct Node {
    AccessNode payload;
    uint64_t max_hi = 0;    // max over subtree of payload.interval.hi()
    uint32_t left = kNil;
    uint32_t right = kNil;
    uint32_t parent = kNil;
    Color color = kRed;
  };

  uint32_t InsertNode(const ilp::StridedInterval& interval, const AccessKey& key);
  void InsertFixup(uint32_t z);
  void RotateLeft(uint32_t x);
  void RotateRight(uint32_t x);
  void UpdateMaxHi(uint32_t n);
  void PropagateMaxHi(uint32_t n);
  uint64_t SubtreeMaxHi(uint32_t n) const;

  // Summarization indexes (all O(1) per access):
  //  - continuations_: (key, next expected addr) -> run node; extends
  //    established runs (count >= 2) and unit-walk singles.
  //  - last_addr_: (key, last recorded addr) -> node; folds repeated accesses
  //    to the same location (hits++ without growing the run).
  //  - open_single_: key -> most recent single-access node; lets the second
  //    access of an arbitrary-stride walk fix the stride.
  std::vector<Node> nodes_;
  uint32_t root_ = kNil;
  uint64_t total_accesses_ = 0;
  std::unordered_map<ContKey, uint32_t, ContKeyHash> continuations_;
  std::unordered_map<ContKey, uint32_t, ContKeyHash> last_addr_;
  std::unordered_map<AccessKey, uint32_t, AccessKeyHash> open_single_;
  // Nodes per key (never decremented; nodes are never removed). AddRun's
  // bulk fast path is only safe when exactly ONE node carries the run's
  // key: then no foreign same-key index entry can divert any per-element
  // step, so the O(1) bulk extension provably equals the element loop.
  std::unordered_map<AccessKey, uint32_t, AccessKeyHash> key_nodes_;
};

/// The frozen form of `tree`: its in-order walk handed to
/// FrozenIntervalSet::FromSorted - what a StreamingSetBuilder fed the same
/// stream must Freeze() to, column for column.
FrozenIntervalSet FreezeTree(const IntervalTree& tree);

}  // namespace sword::itree
