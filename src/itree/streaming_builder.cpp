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

/// The interval's most recent element, where its last-address entry lives.
uint64_t LastAddr(const ilp::StridedInterval& iv) {
  return iv.base + iv.stride * (iv.count - 1);
}

/// The address that continues the interval, where its continuation entry
/// lives: a single continues as a unit element walk, a run at its stride.
uint64_t NextAddr(const ilp::StridedInterval& iv) {
  return iv.count == 1 ? iv.base + iv.size : iv.base + iv.stride * iv.count;
}

/// Erases the (addr, key) entry only when it maps to `id`: emplace never
/// overwrites, so a slot may belong to another node. An entry naming `id` is
/// necessarily keyed by nodes_[id].key, so matching (addr, id) is enough.
template <typename Table>
void EraseIfMapsTo(Table& table, uint64_t addr, const AccessKey& key, uint32_t id) {
  auto* slot = table.Find(AddrHash(addr, key), [&](const auto& s) {
    return s.addr == addr && s.id == id;
  });
  if (slot != nullptr) table.Erase(slot);
}

}  // namespace

StreamingSetBuilder::KeySlot* StreamingSetBuilder::FindKey(const AccessKey& key) {
  return keys_.Find(KeyHash(key),
                    [&](const KeySlot& s) { return nodes_[s.id].key == key; });
}

void StreamingSetBuilder::EmplaceAddr(ProbeTable<AddrSlot>& table, uint64_t addr,
                                      const AccessKey& key, uint32_t id) {
  table.Emplace(AddrSlot{addr, id, AddrHash(addr, key)}, [&](const AddrSlot& s) {
    return s.addr == addr && nodes_[s.id].key == key;
  });
}

uint32_t StreamingSetBuilder::AddAccess(uint64_t addr, const AccessKey& key) {
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
  continuations_.Insert(AddrSlot{next, id, AddrHash(next, key)});
  last_addr_.Insert(AddrSlot{last, id, AddrHash(last, key)});
  return NewSharedNode(addr, key, ks);
}

uint32_t StreamingSetBuilder::AddShared(uint64_t addr, const AccessKey& key,
                                        KeySlot& ks) {
  const uint32_t h = AddrHash(addr, key);
  auto at_addr = [&](const AddrSlot& s) {
    return s.addr == addr && nodes_[s.id].key == key;
  };

  // 1. Repeated access to a run's most recent address: fold without growing.
  if (AddrSlot* dup = last_addr_.Find(h, at_addr)) {
    nodes_[dup->id].hits++;
    return dup->id;
  }

  // 2. Continuation of an established run: addr is exactly the next element.
  if (AddrSlot* cont = continuations_.Find(h, at_addr)) {
    const uint32_t id = cont->id;
    continuations_.Erase(cont);
    AccessNode& n = nodes_[id];
    auto& iv = n.interval;
    EraseIfMapsTo(last_addr_, LastAddr(iv), key, id);
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
    EmplaceAddr(continuations_, NextAddr(iv), key, id);
    EmplaceAddr(last_addr_, addr, key, id);
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
      EraseIfMapsTo(continuations_, NextAddr(iv), key, id);
      EraseIfMapsTo(last_addr_, iv.base, key, id);
      iv.stride = addr - iv.base;
      iv.count = 2;
      n.hits++;
      EmplaceAddr(continuations_, NextAddr(iv), key, id);
      EmplaceAddr(last_addr_, addr, key, id);
      return id;
    }
  }

  // 4. Fresh node.
  return NewSharedNode(addr, key, ks);
}

uint32_t StreamingSetBuilder::NewSharedNode(uint64_t addr, const AccessKey& key,
                                            KeySlot& ks) {
  const uint32_t id = NewNode(addr, key);
  EmplaceAddr(continuations_, addr + key.size, key, id);
  EmplaceAddr(last_addr_, addr, key, id);
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
  if (count == 2) return id;

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
  // Sorted-append or spill. A node's first byte is immutable, so comparing
  // against the LAST in-order node is enough: program-order address walks
  // keep extending the main sequence; only genuine back-jumps spill.
  if (order_.empty() || addr >= nodes_[order_.back()].interval.lo()) {
    order_.push_back(id);
  } else {
    spill_.push_back(id);
  }
  return id;
}

uint64_t StreamingSetBuilder::MemoryBytes() const {
  return nodes_.capacity() * sizeof(AccessNode) +
         (order_.capacity() + spill_.capacity()) * sizeof(uint32_t) +
         keys_.size() * sizeof(KeySlot) +
         (continuations_.size() + last_addr_.size()) * sizeof(AddrSlot);
}

FrozenIntervalSet StreamingSetBuilder::Freeze() const {
  // Sort the spill by (first byte, creation id) and merge with the main
  // sequence, which is already sorted by that pair (first bytes are
  // non-decreasing by construction, ids by append order). First bytes never
  // change after creation, so the merge is sorted by (first byte, creation
  // order) - a balanced tree's in-order walk with ties broken to the right.
  std::vector<uint32_t> sorted_spill = spill_;
  auto less = [this](uint32_t a, uint32_t b) {
    const uint64_t la = nodes_[a].interval.lo();
    const uint64_t lb = nodes_[b].interval.lo();
    return la != lb ? la < lb : a < b;
  };
  std::sort(sorted_spill.begin(), sorted_spill.end(), less);

  std::vector<AccessNode> merged;
  merged.reserve(nodes_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < order_.size() && j < sorted_spill.size()) {
    merged.push_back(less(order_[i], sorted_spill[j]) ? nodes_[order_[i++]]
                                                      : nodes_[sorted_spill[j++]]);
  }
  for (; i < order_.size(); i++) merged.push_back(nodes_[order_[i]]);
  for (; j < sorted_spill.size(); j++) merged.push_back(nodes_[sorted_spill[j]]);
  return FrozenIntervalSet::FromSorted(std::move(merged));
}

void StreamingSetBuilder::Reset() {
  nodes_.clear();
  nodes_.shrink_to_fit();
  nodes_.reserve(64);
  order_.clear();
  order_.shrink_to_fit();
  spill_.clear();
  spill_.shrink_to_fit();
  total_accesses_ = 0;
  keys_.Clear();
  continuations_.Clear();
  last_addr_.Clear();
}

}  // namespace sword::itree
