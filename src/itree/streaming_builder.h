// Streaming decode-to-frozen builder: FrozenIntervalSet construction
// directly from decoder output, skipping the red-black tree entirely.
//
// The offline analyzer only ever compares FROZEN sets; the RB-tree's one
// remaining job on the hot path would be to hand the freeze a sorted node
// sequence. But segments close at barriers, and once a segment is finished
// its node set is final - so the sort can be had far cheaper than O(log N)
// balanced insertion per node. This builder summarizes exactly as
// IntervalTree::AddAccess/AddRun do (same branch order: last-address fold,
// continuation, open-single stride adoption, fresh node; same node ids, hit
// counts and interval shapes) over a flat creation-ordered arena, and tracks
// sortedness instead of maintaining it:
//
//   - a node whose first byte is >= the previous appended node's first byte
//     extends the sorted main sequence in O(1) (the overwhelmingly common
//     case: program-order accesses walk addresses upward);
//   - an out-of-order node goes to a small spill buffer.
//
// Freeze() sorts the spill (typically tiny) and merges it with the main
// sequence by (first byte, creation id) - provably the tree's in-order
// sequence, because a node's first byte NEVER changes after creation
// (continuations extend stride/count/hi only; a descending access starts a
// new node) and the tree breaks first-byte ties toward the right, i.e. in
// creation order.
//
// Indexes. Folding an event allocates nothing. All three indexes are flat
// open-addressing tables (linear probing, backward-shift delete, so no
// tombstones) of 16-byte slots that name a node; the AccessKey part of a
// lookup is compared through nodes_[id].key, since every entry maps to a
// node carrying its own key:
//
//   - keys_: one record per AccessKey - the first node carrying the key,
//     whether a second one exists, and the key's open-single node;
//   - continuations_: (key, next expected addr) -> node;
//   - last_addr_: (key, last recorded addr) -> node.
//
// Lookups keep the tree's find / emplace-without-overwrite / erase semantics.
//
// Solo keys. While exactly one node carries a key, no other node can occupy
// or divert that key's entries, so they follow from the node's interval and
// are not stored: last = base + stride*(count-1); next = base + size when
// count == 1, else base + stride*count; and the node is the key's open single
// iff count == 1. Folding an event of a solo key is one probe of keys_ plus
// arithmetic on one node. When the key's second node is created, the solo
// node's entries are written first and then the new node's, reproducing the
// tree's emplace-without-overwrite order; from then on the key's entries are
// stored explicitly.
//
// The code does not mirror the tree's line by line. Equivalence rests on the
// property tests (tests/test_itree.cpp, tests/test_property_racecheck.cpp),
// which drive both summarizers with the same streams - including solo-to-
// shared transitions, address wrap-around and long runs with rare jumps -
// and require FrozenIntervalSet(tree) and Freeze() to agree field by field.
#pragma once

#include <cstdint>
#include <vector>

#include "itree/frozen_set.h"
#include "itree/interval_tree.h"

namespace sword::itree {

class StreamingSetBuilder {
 public:
  StreamingSetBuilder() { nodes_.reserve(64); }

  /// Records one access. Identical summarization semantics (node ids, hit
  /// counts, interval shapes) to IntervalTree::AddAccess.
  uint32_t AddAccess(uint64_t addr, const AccessKey& key);

  /// Records a coalesced strided run; identical to IntervalTree::AddRun,
  /// including the O(1) bulk extension for the fresh-run common case.
  uint32_t AddRun(uint64_t base, uint64_t stride, uint64_t count,
                  const AccessKey& key);

  size_t NodeCount() const { return nodes_.size(); }
  uint64_t TotalAccesses() const { return total_accesses_; }
  bool Empty() const { return nodes_.empty(); }

  /// Out-of-order nodes waiting in the spill buffer (diagnostics/accounting).
  size_t SpillCount() const { return spill_.size(); }
  uint64_t SpillBytes() const { return spill_.capacity() * sizeof(uint32_t); }

  /// Approximate heap footprint, in the same shape as
  /// IntervalTree::MemoryBytes so the memory governor treats both builds
  /// uniformly: the node arena and order/spill capacity, plus one 16-byte
  /// slot per LIVE index entry (key records, stored continuation and
  /// last-address entries; empty probe slots are not counted, as the tree
  /// counts map entries rather than buckets). That is at most 40 bytes of
  /// index per node - two entries plus half a key record for a shared key,
  /// one key record for a solo key - against the tree's 44 per continuation.
  uint64_t MemoryBytes() const;

  /// Produces the frozen comparison form: sorts the spill, merges by
  /// (first byte, creation id), done. O(N + S log S) for S spilled nodes.
  /// The builder remains valid (more events may follow a salvage probe),
  /// but callers normally Reset() or drop it afterwards.
  FrozenIntervalSet Freeze() const;

  /// Releases every node and index, returning the builder to empty.
  void Reset();

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  /// Open-addressing hash table of fixed-size slots with linear probing and
  /// backward-shift deletion. A slot is empty iff its `id` is kNil; `hash`
  /// caches the entry's 32-bit hash, so growth and deletion never rehash a
  /// key and most mismatches are rejected without touching the node arena.
  /// Key equality is the caller's `match` predicate. Load stays <= 1/2.
  template <typename Slot>
  class ProbeTable {
   public:
    template <typename Match>
    Slot* Find(uint32_t hash, Match match) {
      if (size_ == 0) return nullptr;
      for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.id == kNil) return nullptr;
        if (s.hash == hash && match(s)) return &s;
      }
    }

    /// Inserts `slot` unless an entry satisfying `match` exists (the
    /// existing entry wins, like std::unordered_map::emplace).
    template <typename Match>
    void Emplace(const Slot& slot, Match match) {
      if (2 * (size_ + 1) > slots_.size()) Grow();
      for (size_t i = slot.hash & mask_;; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.id == kNil) {
          s = slot;
          size_++;
          return;
        }
        if (s.hash == slot.hash && match(s)) return;
      }
    }

    /// Inserts `slot`, which the caller knows is absent.
    void Insert(const Slot& slot) {
      if (2 * (size_ + 1) > slots_.size()) Grow();
      slots_[FreeSlot(slot.hash)] = slot;
      size_++;
    }

    /// Removes `slot` (a pointer returned by Find) and shifts the rest of
    /// its probe cluster back over the hole.
    void Erase(Slot* slot) {
      size_t hole = static_cast<size_t>(slot - slots_.data());
      for (size_t i = (hole + 1) & mask_; slots_[i].id != kNil; i = (i + 1) & mask_) {
        // Slot i may fill the hole iff its home is not in (hole, i].
        const size_t home = slots_[i].hash & mask_;
        if (((i - home) & mask_) >= ((i - hole) & mask_)) {
          slots_[hole] = slots_[i];
          hole = i;
        }
      }
      slots_[hole] = Slot{};
      size_--;
    }

    size_t size() const { return size_; }

    void Clear() {
      slots_ = std::vector<Slot>();
      mask_ = 0;
      size_ = 0;
    }

   private:
    size_t FreeSlot(uint32_t hash) const {
      size_t i = hash & mask_;
      while (slots_[i].id != kNil) i = (i + 1) & mask_;
      return i;
    }

    void Grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
      mask_ = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.id != kNil) slots_[FreeSlot(s.hash)] = s;
      }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
  };

  /// A continuation or last-address entry: (addr, nodes_[id].key) -> id.
  struct AddrSlot {
    uint64_t addr = 0;
    uint32_t id = kNil;
    uint32_t hash = 0;
  };

  /// The per-AccessKey record; the key is nodes_[id].key.
  struct KeySlot {
    uint32_t id = kNil;    // first node carrying the key (the only one if solo)
    uint32_t hash = 0;
    uint32_t open = kNil;  // open-single node; meaningful only when shared
    bool shared = false;   // a second node carries the key
  };

  KeySlot* FindKey(const AccessKey& key);
  uint32_t AddSolo(uint64_t addr, const AccessKey& key, KeySlot& ks);
  uint32_t AddShared(uint64_t addr, const AccessKey& key, KeySlot& ks);
  uint32_t NewSharedNode(uint64_t addr, const AccessKey& key, KeySlot& ks);
  void EmplaceAddr(ProbeTable<AddrSlot>& table, uint64_t addr,
                   const AccessKey& key, uint32_t id);
  /// Appends a single-access node (one hit) and files it in order_/spill_.
  uint32_t NewNode(uint64_t addr, const AccessKey& key);

  std::vector<AccessNode> nodes_;  // creation order; ids match the tree's
  std::vector<uint32_t> order_;    // ids in non-decreasing first-byte order
  std::vector<uint32_t> spill_;    // out-of-order ids, sorted at Freeze()
  uint64_t total_accesses_ = 0;
  ProbeTable<KeySlot> keys_;
  ProbeTable<AddrSlot> continuations_;  // shared keys only
  ProbeTable<AddrSlot> last_addr_;      // shared keys only
};

}  // namespace sword::itree
