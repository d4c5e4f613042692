#include "itree/streaming_builder.h"

#include <algorithm>

namespace sword::itree {

namespace {

uint32_t KeyHash(const AccessKey& key) {
  return static_cast<uint32_t>(HashAccess(0, key));
}

uint32_t AddrHash(uint64_t addr, const AccessKey& key) {
  return static_cast<uint32_t>(HashAccess(addr, key));
}

/// The interval's most recent element, where its last entry lives.
uint64_t LastAddr(const ilp::StridedInterval& iv) {
  return iv.base + iv.stride * (iv.count - 1);
}

/// The address that continues the interval, where its next entry lives: a
/// single continues as a unit element walk, a run at its stride.
uint64_t NextAddr(const ilp::StridedInterval& iv) {
  return iv.count == 1 ? iv.base + iv.size : iv.base + iv.stride * iv.count;
}

uint64_t EntryAddr(const ilp::StridedInterval& iv, bool next) {
  return next ? NextAddr(iv) : LastAddr(iv);
}

}  // namespace

StreamingSetBuilder::KeySlot* StreamingSetBuilder::FindKey(const AccessKey& key) {
  return keys_.Find(KeyHash(key),
                    [&](const KeySlot& s) { return nodes_[s.id].key == key; });
}

void StreamingSetBuilder::EmplaceEntry(uint32_t id, bool next) {
  const AccessNode& n = nodes_[id];
  EmplaceEntry(id, next, AddrHash(EntryAddr(n.interval, next), n.key));
}

void StreamingSetBuilder::EmplaceEntry(uint32_t id, bool next, uint32_t hash) {
  const AccessNode& n = nodes_[id];
  const uint64_t addr = EntryAddr(n.interval, next);
  const uint32_t kind = next ? kNextEntry : 0;
  index_.Emplace(AddrSlot{hash, id | kind}, [&](const AddrSlot& s) {
    if ((s.id & kNextEntry) != kind) return false;
    const AccessNode& other = nodes_[s.id & ~kNextEntry];
    return other.key == n.key && EntryAddr(other.interval, next) == addr;
  });
}

void StreamingSetBuilder::EraseEntry(uint32_t id, bool next) {
  // Emplace never overwrites, so the node may hold no entry of this kind;
  // an entry naming it sits at its current address, hence in this cluster.
  const AccessNode& n = nodes_[id];
  const uint32_t tagged = id | (next ? kNextEntry : 0);
  AddrSlot* slot = index_.Find(AddrHash(EntryAddr(n.interval, next), n.key),
                               [&](const AddrSlot& s) { return s.id == tagged; });
  if (slot != nullptr) index_.Erase(slot);
}

uint32_t StreamingSetBuilder::AddAccess(uint64_t addr, const AccessKey& key) {
  if (nodes_.size() >= kMaxNodes) {
    // A full arena cannot take the node this access might need; refusing
    // every access from here on keeps the failure sticky and visible.
    overflowed_ = true;
    return kNil;
  }
  total_accesses_++;
  KeySlot* ks = FindKey(key);
  if (ks == nullptr) {
    // First node of a new key: solo, so no index entry is stored.
    const uint32_t id = NewNode(addr, key);
    keys_.Insert(KeySlot{id, KeyHash(key)});
    return id;
  }
  return ks->shared ? AddShared(addr, key, *ks) : AddSolo(addr, key, *ks);
}

// The four summarization branches, evaluated on the solo node's implied
// entries.
uint32_t StreamingSetBuilder::AddSolo(uint64_t addr, const AccessKey& key,
                                      KeySlot& ks) {
  const uint32_t id = ks.id;
  AccessNode& n = nodes_[id];
  auto& iv = n.interval;

  // 1. Repeated access to the run's most recent address.
  if (addr == LastAddr(iv)) {
    n.hits++;
    return id;
  }
  // 2. Continuation. 3. A single (the key's open single) adopts any
  // ascending stride.
  const bool continues = addr == NextAddr(iv);
  if (continues || (iv.count == 1 && addr > iv.base)) {
    if (iv.count == 1) {
      iv.stride = addr - iv.base;
      iv.count = 2;
    } else {
      iv.count++;
    }
    n.hits++;
    return id;
  }

  // 4. The key's second node. The solo node's entries go in first, so the
  // new node's emplaces lose any collision with them, as if they had been
  // stored all along. A solo single stops being the open single here (a
  // descending access clears the open single in branch 3).
  ks.shared = true;
  const uint64_t next = NextAddr(iv);
  const uint64_t last = LastAddr(iv);
  index_.Insert(AddrSlot{AddrHash(next, key), id | kNextEntry});
  index_.Insert(AddrSlot{AddrHash(last, key), id});
  return NewSharedNode(addr, key, ks, AddrHash(addr, key));
}

uint32_t StreamingSetBuilder::AddShared(uint64_t addr, const AccessKey& key,
                                        KeySlot& ks) {
  // One walk of addr's cluster: a last entry at addr is branch 1 and ends
  // the walk; a next entry at addr is remembered for branch 2.
  const uint32_t h = AddrHash(addr, key);
  AddrSlot* cont = nullptr;
  AddrSlot* dup = index_.Find(h, [&](AddrSlot& s) {
    const AccessNode& n = nodes_[s.id & ~kNextEntry];
    if (!(n.key == key)) return false;
    if ((s.id & kNextEntry) == 0) return LastAddr(n.interval) == addr;
    if (NextAddr(n.interval) == addr) cont = &s;
    return false;
  });

  // 1. Repeated access to a run's most recent address: fold without growing.
  if (dup != nullptr) {
    nodes_[dup->id].hits++;
    return dup->id;
  }

  // 2. Continuation of an established run: addr is exactly the next element.
  if (cont != nullptr) {
    const uint32_t id = cont->id & ~kNextEntry;
    index_.Erase(cont);
    EraseEntry(id, /*next=*/false);
    AccessNode& n = nodes_[id];
    auto& iv = n.interval;
    if (iv.count == 1) {
      // This continuation was registered at base+size (unit element walk).
      // This clears the key's open single whichever node it names.
      iv.stride = addr - iv.base;
      iv.count = 2;
      ks.open = kNil;
    } else {
      iv.count++;
    }
    n.hits++;
    EmplaceEntry(id, /*next=*/true);
    EmplaceEntry(id, /*next=*/false, h);
    return id;
  }

  // 3. Second element of an arbitrary-stride ascending walk: the most recent
  // single-access node with this key adopts stride = addr - base. A
  // descending access leaves it single and starts a new node.
  if (ks.open != kNil) {
    const uint32_t id = ks.open;
    ks.open = kNil;
    AccessNode& n = nodes_[id];
    auto& iv = n.interval;
    if (addr > iv.base) {
      EraseEntry(id, /*next=*/true);
      EraseEntry(id, /*next=*/false);
      iv.stride = addr - iv.base;
      iv.count = 2;
      n.hits++;
      EmplaceEntry(id, /*next=*/true);
      EmplaceEntry(id, /*next=*/false, h);
      return id;
    }
  }

  // 4. Fresh node.
  return NewSharedNode(addr, key, ks, h);
}

uint32_t StreamingSetBuilder::NewSharedNode(uint64_t addr, const AccessKey& key,
                                            KeySlot& ks, uint32_t addr_hash) {
  const uint32_t id = NewNode(addr, key);
  EmplaceEntry(id, /*next=*/true);
  EmplaceEntry(id, /*next=*/false, addr_hash);
  ks.open = id;
  return id;
}

uint32_t StreamingSetBuilder::AddRun(uint64_t base, uint64_t stride,
                                     uint64_t count, const AccessKey& key) {
  // Degenerate shapes are defined by the element loop.
  if (count == 0) return kNil;
  if (stride == 0) {
    uint32_t id = kNil;
    for (uint64_t i = 0; i < count; i++) id = AddAccess(base, key);
    return id;
  }
  uint32_t id = AddAccess(base, key);
  if (count == 1) return id;
  const uint32_t first = id;
  id = AddAccess(base + stride, key);
  if (count == 2 || id == kNil) return id;

  // Bulk fast path: the first two elements merged into one fresh-looking run
  // node and the key is solo, so every remaining element would take the
  // continuation branch on this exact node, and its index entries are
  // implied by the interval. Apply the loop's net effect in O(1).
  AccessNode& run = nodes_[id];
  if (id == first && run.interval.base == base && run.interval.stride == stride &&
      run.interval.count == 2 && !FindKey(key)->shared) {
    const uint64_t extra = count - 2;
    run.interval.count = count;
    run.hits += extra;
    total_accesses_ += extra;
    return id;
  }

  // Aliasing with pre-existing same-key state: replay element by element.
  for (uint64_t i = 2; i < count; i++) id = AddAccess(base + i * stride, key);
  return id;
}

uint32_t StreamingSetBuilder::NewNode(uint64_t addr, const AccessKey& key) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  AccessNode node;
  node.interval = ilp::StridedInterval{addr, 0, 1, key.size};
  node.key = key;
  node.hits = 1;
  nodes_.push_back(node);
  return id;
}

void StreamingSetBuilder::ReserveIndex(uint64_t entries) { index_.Reserve(entries); }

void StreamingSetBuilder::DropIndex() {
  keys_.Clear();
  index_.Clear();
}

uint64_t StreamingSetBuilder::MemoryBytes() const {
  return nodes_.capacity() * sizeof(AccessNode) +
         keys_.capacity() * sizeof(KeySlot) + index_.capacity() * sizeof(AddrSlot);
}

FrozenIntervalSet StreamingSetBuilder::Freeze() const {
  // First bytes never change after creation, so (first byte, creation id)
  // order is a balanced tree's in-order walk with ties broken to the right.
  std::vector<AccessNode> sorted;
  sorted.reserve(nodes_.size());
  const auto lo_less = [](const AccessNode& a, const AccessNode& b) {
    return a.interval.lo() < b.interval.lo();
  };
  if (std::is_sorted(nodes_.begin(), nodes_.end(), lo_less)) {
    // Created in address order: creation order is already the frozen order.
    sorted.assign(nodes_.begin(), nodes_.end());
  } else {
    struct SortKey {
      uint64_t lo;
      uint32_t id;
    };
    std::vector<SortKey> keys(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); i++) {
      keys[i] = SortKey{nodes_[i].interval.lo(), static_cast<uint32_t>(i)};
    }
    std::sort(keys.begin(), keys.end(), [](const SortKey& a, const SortKey& b) {
      return a.lo != b.lo ? a.lo < b.lo : a.id < b.id;
    });
    for (const SortKey& k : keys) sorted.push_back(nodes_[k.id]);
  }
  return FrozenIntervalSet::FromSorted(std::move(sorted));
}

void StreamingSetBuilder::Reset() {
  nodes_.clear();
  nodes_.shrink_to_fit();
  nodes_.reserve(64);
  total_accesses_ = 0;
  overflowed_ = false;
  keys_.Clear();
  index_.Clear();
}

}  // namespace sword::itree
