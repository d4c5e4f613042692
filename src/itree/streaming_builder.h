// Streaming decode-to-frozen builder: the analyzer's summarizer. It turns a
// (thread, label) group's decoded events into the group's
// FrozenIntervalSet (paper SIII-B: the per-interval interval tree).
//
// Summarization. Each access is folded by the first branch that applies:
//   1. it repeats the most recent address of a run with its key: hits++;
//   2. it is exactly the next element of a run with its key: the run grows;
//   3. the key's most recent single-access node (its "open single") lies
//      below it: that node adopts stride = addr - base and becomes a run;
//   4. otherwise a fresh single-access node is created.
// These are the rules of the paper's red-black interval tree; the reference
// implementation in tests/oracle/interval_tree.h applies them with balanced
// insertion, and the property tests require the two to produce the same
// node ids, hit counts and interval shapes.
//
// Nodes live in a flat arena in creation order (index = node id). Nothing
// keeps them sorted while the stream runs: a group's node set is final once
// its segments are summarized, so Freeze() sorts once. A node's first byte
// NEVER changes after creation (continuations extend stride/count/hi only; a
// descending access starts a new node), so sorting by (first byte, id) is
// the in-order walk of a tree keyed on first byte that breaks ties toward
// the right. Program-order streams usually create nodes in address order
// already; Freeze() checks that in one pass and then just copies.
//
// Indexes. Both are flat open-addressing tables (linear probing,
// backward-shift delete, so no tombstones, load <= 1/2) whose slots name a
// node; the AccessKey part of a lookup is compared through nodes_[id].key.
//
//   - keys_: one 16-byte record per AccessKey - the first node carrying the
//     key, whether a second one exists, and the key's open-single node.
//   - index_: the address index, one 8-byte slot per entry: the entry's
//     32-bit hash of (addr, key) and its node id, whose top bit is the
//     entry's kind. A "last" entry maps (key, last recorded addr) to a node
//     (branch 1); a "next" entry maps (key, next expected addr) to a node
//     (branch 2). Insertion never overwrites: the first node to claim an
//     (addr, key, kind) keeps it, as std::unordered_map::emplace would.
//
// The address itself is not stored. Each node holds at most one entry of
// each kind, and an entry always sits at its node's CURRENT last or next
// address: a node's interval changes only in branches 2 and 3, which erase
// the node's entries first and re-insert them at the new addresses. So an
// entry's address is the node's LastAddr or NextAddr, and a lookup checks
// the key and that address on the node. The kind is not hashed either, so
// both kinds of entry at one (addr, key) share a probe cluster: one cluster
// walk finds the branch-1 and the branch-2 candidate together. Node ids are
// 31 bits; a builder refuses to grow past kMaxNodes nodes (Overflowed()).
//
// The analyzer presizes the address index once per group (ReserveIndex)
// from a bound on the group's event count, so a group's build never
// rehashes, and drops both indexes when the group's last segment is
// summarized (DropIndex): from then until Freeze() only the nodes stay
// alive, and only they count toward MemoryBytes().
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
// The code does not mirror the reference tree's line by line. Equivalence
// rests on the property tests in tests/test_itree.cpp, which drive both
// summarizers with the same streams - including solo-to-shared transitions,
// address wrap-around, long runs with rare jumps and random-neighbour pairs
// that compete for one entry - and require the tree's in-order walk and
// Freeze() to agree field by field.
#pragma once

#include <cstdint>
#include <vector>

#include "itree/access.h"
#include "itree/frozen_set.h"

namespace sword::itree {

class StreamingSetBuilder {
 public:
  /// Most nodes one builder holds. Ids are 31 bits because an address-index
  /// entry keeps its kind in the id's top bit (and 0xffffffff marks an
  /// empty slot).
  static constexpr uint32_t kMaxNodes = 0x7fffffffu;

  StreamingSetBuilder() { nodes_.reserve(64); }

  /// Records one access under the four summarization branches above.
  /// Returns the id of the node it folded into, or kNil once Overflowed().
  uint32_t AddAccess(uint64_t addr, const AccessKey& key);

  /// Records a coalesced strided run: `count` accesses at base,
  /// base+stride, ..., base+(count-1)*stride. EXACTLY equivalent to that
  /// many AddAccess calls in ascending order (nodes, hit counts and index
  /// state), with an O(1) bulk extension for the common case of a key that
  /// no other node carries. Returns the node id of the last element.
  uint32_t AddRun(uint64_t base, uint64_t stride, uint64_t count,
                  const AccessKey& key);

  /// Sizes the address index for `entries` entries at load 1/2, so that
  /// many entries never rehash. A hint: the index still grows past it, and
  /// a builder whose keys all stay solo never allocates it.
  void ReserveIndex(uint64_t entries);

  /// Ends the stream: releases the key and address indexes, leaving the
  /// nodes for Freeze(). No access may be added until Reset().
  void DropIndex();

  /// True once an access arrived while the builder held kMaxNodes nodes:
  /// that access and every later one were refused, so the summary is
  /// incomplete.
  bool Overflowed() const { return overflowed_; }

  size_t NodeCount() const { return nodes_.size(); }
  uint64_t TotalAccesses() const { return total_accesses_; }
  bool Empty() const { return nodes_.empty(); }

  /// Heap footprint, which the memory governor caps: the node arena and
  /// both indexes' allocated slots (none after DropIndex).
  uint64_t MemoryBytes() const;

  /// Produces the frozen comparison form: the nodes sorted by (first byte,
  /// creation id). One pass when they were created in address order, else
  /// an O(N log N) sort of 16-byte (first byte, id) keys; either way the
  /// nodes are copied once, straight into the frozen payload column. The
  /// builder is left unchanged.
  FrozenIntervalSet Freeze() const;

  /// Releases every node and index, returning the builder to empty.
  void Reset();

  /// Returned by AddAccess/AddRun when no node took the access (an empty
  /// run, or an overflowed builder).
  static constexpr uint32_t kNil = 0xffffffffu;

 private:
  /// Open-addressing hash table of fixed-size slots with linear probing and
  /// backward-shift deletion. A slot is empty iff its `id` is kNil; `hash`
  /// caches the entry's 32-bit hash, so growth and deletion never rehash a
  /// key and most mismatches are rejected without touching the node arena.
  /// Key equality is the caller's `match` predicate. Load stays <= 1/2.
  template <typename Slot>
  class ProbeTable {
   public:
    /// The first slot of `hash`'s cluster with that hash that `match`
    /// accepts, or null. `match` may record other slots as it goes.
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
      if (2 * (size_ + 1) > slots_.size()) Rehash(Grown());
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
      if (2 * (size_ + 1) > slots_.size()) Rehash(Grown());
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

    /// Makes room for `entries` entries at load <= 1/2. An empty table
    /// allocates that room at its first insertion, so a reservation that
    /// is never used costs nothing.
    void Reserve(uint64_t entries) {
      size_t slots = 16;
      while (slots < 2 * entries) slots *= 2;
      if (slots_.empty()) {
        first_slots_ = slots;
      } else if (slots > slots_.size()) {
        Rehash(slots);
      }
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }

    void Clear() {
      slots_ = std::vector<Slot>();
      mask_ = 0;
      size_ = 0;
      first_slots_ = 16;
    }

   private:
    size_t FreeSlot(uint32_t hash) const {
      size_t i = hash & mask_;
      while (slots_[i].id != kNil) i = (i + 1) & mask_;
      return i;
    }

    size_t Grown() const { return slots_.empty() ? first_slots_ : 2 * slots_.size(); }

    void Rehash(size_t slots) {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(slots, Slot{});
      mask_ = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.id != kNil) slots_[FreeSlot(s.hash)] = s;
      }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
    size_t first_slots_ = 16;  // slots of the first allocation
  };

  /// An address-index entry: `id` is the node id, plus kNextEntry for a
  /// continuation; the address is the node's LastAddr or NextAddr.
  struct AddrSlot {
    uint32_t hash = 0;
    uint32_t id = kNil;
  };
  static constexpr uint32_t kNextEntry = 0x80000000u;
  static_assert(((kMaxNodes - 1) & kNextEntry) == 0 &&
                    ((kMaxNodes - 1) | kNextEntry) != kNil,
                "a node id must leave the kind bit and the empty marker free");

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
  uint32_t NewSharedNode(uint64_t addr, const AccessKey& key, KeySlot& ks,
                         uint32_t addr_hash);
  /// Files node `id`'s entry of kind `next` at its current address, unless
  /// another node of the key holds that (addr, key, kind) already. `hash`
  /// is that address's AddrHash, when the caller has it.
  void EmplaceEntry(uint32_t id, bool next);
  void EmplaceEntry(uint32_t id, bool next, uint32_t hash);
  /// Removes node `id`'s entry of kind `next`, if it holds one.
  void EraseEntry(uint32_t id, bool next);
  /// Appends a single-access node (one hit).
  uint32_t NewNode(uint64_t addr, const AccessKey& key);

  std::vector<AccessNode> nodes_;  // creation order; index = node id
  uint64_t total_accesses_ = 0;
  bool overflowed_ = false;
  ProbeTable<KeySlot> keys_;
  ProbeTable<AddrSlot> index_;  // shared keys only
};

}  // namespace sword::itree
