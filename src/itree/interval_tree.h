// Augmented red-black interval tree over summarized strided access runs
// (paper SIII-B, Fig. 5).
//
// The offline analyzer builds one tree per (thread, barrier interval). Each
// node summarizes a run of accesses sharing the same program counter,
// operation, access size, and mutex set, whose addresses form an arithmetic
// progression (base, base+stride, ...). Raw accesses stream in in program
// order; an access that continues a run extends the corresponding node in
// O(1) via a continuation index, otherwise a new node is inserted in
// O(log N). Nodes are kept in a red-black tree ordered by first byte, each
// augmented with the maximum last-byte in its subtree, so all nodes whose
// [lo,hi] byte range touches a query range are enumerable in
// O(log N + answer) - the paper's O(M log M) tree-vs-tree comparison.
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
#include "itree/mutexset.h"

namespace sword::itree {

/// Operation bits for an access node.
enum AccessFlags : uint8_t {
  kRead = 0,
  kWrite = 1 << 0,
  kAtomic = 1 << 1,
};

/// Merge-compatibility key: accesses summarize into one node only if these
/// all match (the paper stores op type, size, stride, pc, mutex set per node).
struct AccessKey {
  uint32_t pc = 0;           // source-location id
  uint8_t flags = kRead;     // AccessFlags
  uint8_t size = 1;          // bytes per access
  MutexSetId mutexset = kEmptyMutexSet;

  friend bool operator==(const AccessKey&, const AccessKey&) = default;

  bool is_write() const { return flags & kWrite; }
  bool is_atomic() const { return flags & kAtomic; }
};

struct AccessNode {
  ilp::StridedInterval interval;
  AccessKey key;
  uint64_t hits = 0;  // raw accesses summarized into this node (>= count)
};

/// Mixes (addr, key) into a well-distributed 64-bit hash. All entropy reaches
/// the low 32 bits, so the value survives truncation to a 32-bit size_t.
/// Exposed (rather than kept inside the hasher functors) so tests can check
/// the distribution directly.
inline uint64_t HashAccess(uint64_t addr, const AccessKey& key) {
  uint64_t h = addr * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<uint64_t>(key.pc) << 16) ^ key.flags ^
       (static_cast<uint64_t>(key.size) << 8) ^
       (static_cast<uint64_t>(key.mutexset) << 32);
  // splitmix64 finalizer: without it, the high-half XOR above (notably the
  // mutex-set bits at position 32+) never influences the low bits, and a
  // 32-bit size_t target collides every mutex set sharing its low bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// (key, address) lookup key for the RB-tree builder's summarization
/// indexes. The streaming builder (itree/streaming_builder.h) keeps its own
/// flat tables and shares only HashAccess.
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

}  // namespace sword::itree
