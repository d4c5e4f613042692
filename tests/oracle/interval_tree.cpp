#include "oracle/interval_tree.h"

#include <algorithm>
#include <string>

namespace sword::itree {

IntervalTree::IntervalTree() { nodes_.reserve(64); }

namespace {

/// Erases map[key] only when it currently maps to `id`; the summarization
/// indexes use best-effort emplace, so a slot may belong to another node.
template <typename Map, typename Key>
void EraseIfMapsTo(Map& map, const Key& key, uint32_t id) {
  auto it = map.find(key);
  if (it != map.end() && it->second == id) map.erase(it);
}

}  // namespace

uint32_t IntervalTree::AddAccess(uint64_t addr, const AccessKey& key) {
  total_accesses_++;

  // 1. Repeated access to a run's most recent address: fold without growing.
  if (auto dup = last_addr_.find(ContKey{addr, key}); dup != last_addr_.end()) {
    nodes_[dup->second].payload.hits++;
    return dup->second;
  }

  // 2. Continuation of an established run: addr is exactly the next element.
  if (auto it = continuations_.find(ContKey{addr, key}); it != continuations_.end()) {
    const uint32_t id = it->second;
    Node& n = nodes_[id];
    auto& iv = n.payload.interval;
    EraseIfMapsTo(last_addr_, ContKey{iv.base + iv.stride * (iv.count - 1), key}, id);
    if (iv.count == 1) {
      // This continuation was registered at base+size (unit element walk).
      iv.stride = addr - iv.base;
      iv.count = 2;
      open_single_.erase(key);
    } else {
      iv.count++;
    }
    n.payload.hits++;
    continuations_.erase(it);
    continuations_.emplace(ContKey{iv.base + iv.stride * iv.count, key}, id);
    last_addr_.emplace(ContKey{addr, key}, id);
    PropagateMaxHi(id);
    return id;
  }

  // 3. Second element of an arbitrary-stride ascending walk: the most recent
  // single-access node with this key adopts stride = addr - base. The
  // resulting interval covers exactly {base, addr}, so this is sound even if
  // the two accesses were unrelated.
  if (auto os = open_single_.find(key); os != open_single_.end()) {
    const uint32_t id = os->second;
    Node& n = nodes_[id];
    auto& iv = n.payload.interval;
    if (addr > iv.base) {
      EraseIfMapsTo(continuations_, ContKey{iv.base + key.size, key}, id);
      EraseIfMapsTo(last_addr_, ContKey{iv.base, key}, id);
      iv.stride = addr - iv.base;
      iv.count = 2;
      n.payload.hits++;
      open_single_.erase(os);
      continuations_.emplace(ContKey{iv.base + iv.stride * 2, key}, id);
      last_addr_.emplace(ContKey{addr, key}, id);
      PropagateMaxHi(id);
      return id;
    }
    // Descending access: leave the old node single and start a new one.
    open_single_.erase(os);
  }

  // 4. Fresh node.
  const uint32_t id = InsertNode(ilp::StridedInterval{addr, 0, 1, key.size}, key);
  nodes_[id].payload.hits = 1;
  continuations_.emplace(ContKey{addr + key.size, key}, id);
  last_addr_.emplace(ContKey{addr, key}, id);
  open_single_[key] = id;
  return id;
}

uint32_t IntervalTree::AddRun(uint64_t base, uint64_t stride, uint64_t count,
                              const AccessKey& key) {
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

  // Bulk fast path: the first two elements merged into one fresh-looking
  // run node, and no other node shares the key, so every remaining element
  // would take the continuation branch of AddAccess on this exact node.
  // Apply the loop's net effect in O(1): grow the interval, move the
  // continuation and last-address index entries to the run's new end, and
  // bump the counters once.
  const auto& iv = nodes_[id].payload.interval;
  const auto kn = key_nodes_.find(key);
  if (id == first && iv.base == base && iv.stride == stride && iv.count == 2 &&
      kn != key_nodes_.end() && kn->second == 1) {
    const uint64_t extra = count - 2;
    EraseIfMapsTo(continuations_, ContKey{base + 2 * stride, key}, id);
    EraseIfMapsTo(last_addr_, ContKey{base + stride, key}, id);
    auto& run = nodes_[id].payload;
    run.interval.count = count;
    run.hits += extra;
    total_accesses_ += extra;
    continuations_.emplace(ContKey{base + stride * count, key}, id);
    last_addr_.emplace(ContKey{base + stride * (count - 1), key}, id);
    PropagateMaxHi(id);
    return id;
  }

  // Aliasing with pre-existing same-key state: replay element by element.
  for (uint64_t i = 2; i < count; i++) id = AddAccess(base + i * stride, key);
  return id;
}

uint32_t IntervalTree::AddInterval(const ilp::StridedInterval& interval,
                                   const AccessKey& key) {
  total_accesses_ += interval.count;
  const uint32_t id = InsertNode(interval, key);
  nodes_[id].payload.hits = interval.count;
  return id;
}

uint32_t IntervalTree::InsertNode(const ilp::StridedInterval& interval,
                                  const AccessKey& key) {
  const uint32_t z = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  Node& zn = nodes_[z];
  zn.payload.interval = interval;
  zn.payload.key = key;
  zn.max_hi = interval.hi();
  key_nodes_[key]++;

  // Standard BST insert ordered by first byte (ties go right).
  uint32_t y = kNil;
  uint32_t x = root_;
  const uint64_t lo = interval.lo();
  while (x != kNil) {
    y = x;
    x = lo < nodes_[x].payload.interval.lo() ? nodes_[x].left : nodes_[x].right;
  }
  nodes_[z].parent = y;
  if (y == kNil) {
    root_ = z;
  } else if (lo < nodes_[y].payload.interval.lo()) {
    nodes_[y].left = z;
  } else {
    nodes_[y].right = z;
  }
  PropagateMaxHi(z);
  InsertFixup(z);
  return z;
}

void IntervalTree::UpdateMaxHi(uint32_t n) {
  Node& node = nodes_[n];
  uint64_t m = node.payload.interval.hi();
  if (node.left != kNil) m = std::max(m, nodes_[node.left].max_hi);
  if (node.right != kNil) m = std::max(m, nodes_[node.right].max_hi);
  node.max_hi = m;
}

void IntervalTree::PropagateMaxHi(uint32_t n) {
  while (n != kNil) {
    UpdateMaxHi(n);
    n = nodes_[n].parent;
  }
}

void IntervalTree::RotateLeft(uint32_t x) {
  const uint32_t y = nodes_[x].right;
  nodes_[x].right = nodes_[y].left;
  if (nodes_[y].left != kNil) nodes_[nodes_[y].left].parent = x;
  nodes_[y].parent = nodes_[x].parent;
  if (nodes_[x].parent == kNil) {
    root_ = y;
  } else if (x == nodes_[nodes_[x].parent].left) {
    nodes_[nodes_[x].parent].left = y;
  } else {
    nodes_[nodes_[x].parent].right = y;
  }
  nodes_[y].left = x;
  nodes_[x].parent = y;
  UpdateMaxHi(x);
  UpdateMaxHi(y);
}

void IntervalTree::RotateRight(uint32_t x) {
  const uint32_t y = nodes_[x].left;
  nodes_[x].left = nodes_[y].right;
  if (nodes_[y].right != kNil) nodes_[nodes_[y].right].parent = x;
  nodes_[y].parent = nodes_[x].parent;
  if (nodes_[x].parent == kNil) {
    root_ = y;
  } else if (x == nodes_[nodes_[x].parent].right) {
    nodes_[nodes_[x].parent].right = y;
  } else {
    nodes_[nodes_[x].parent].left = y;
  }
  nodes_[y].right = x;
  nodes_[x].parent = y;
  UpdateMaxHi(x);
  UpdateMaxHi(y);
}

void IntervalTree::InsertFixup(uint32_t z) {
  // CLRS red-black insertion fixup, with grandparent max-hi kept correct by
  // the rotations themselves.
  while (nodes_[z].parent != kNil && nodes_[nodes_[z].parent].color == kRed) {
    const uint32_t parent = nodes_[z].parent;
    const uint32_t grand = nodes_[parent].parent;
    if (parent == nodes_[grand].left) {
      const uint32_t uncle = nodes_[grand].right;
      if (uncle != kNil && nodes_[uncle].color == kRed) {
        nodes_[parent].color = kBlack;
        nodes_[uncle].color = kBlack;
        nodes_[grand].color = kRed;
        z = grand;
      } else {
        if (z == nodes_[parent].right) {
          z = parent;
          RotateLeft(z);
        }
        const uint32_t p2 = nodes_[z].parent;
        const uint32_t g2 = nodes_[p2].parent;
        nodes_[p2].color = kBlack;
        nodes_[g2].color = kRed;
        RotateRight(g2);
      }
    } else {
      const uint32_t uncle = nodes_[grand].left;
      if (uncle != kNil && nodes_[uncle].color == kRed) {
        nodes_[parent].color = kBlack;
        nodes_[uncle].color = kBlack;
        nodes_[grand].color = kRed;
        z = grand;
      } else {
        if (z == nodes_[parent].left) {
          z = parent;
          RotateRight(z);
        }
        const uint32_t p2 = nodes_[z].parent;
        const uint32_t g2 = nodes_[p2].parent;
        nodes_[p2].color = kBlack;
        nodes_[g2].color = kRed;
        RotateLeft(g2);
      }
    }
  }
  nodes_[root_].color = kBlack;
}

void IntervalTree::QueryRange(uint64_t query_lo, uint64_t query_hi,
                              FunctionRef<bool(const AccessNode&)> fn) const {
  if (root_ == kNil) return;
  // Explicit stack; prune subtrees whose max_hi ends before the query and
  // right subtrees whose lo starts after it.
  uint32_t stack[256];
  int top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const uint32_t n = stack[--top];
    const Node& node = nodes_[n];
    if (node.max_hi < query_lo) continue;
    if (node.left != kNil) stack[top++] = node.left;
    const uint64_t lo = node.payload.interval.lo();
    if (lo <= query_hi) {
      if (node.payload.interval.hi() >= query_lo) {
        if (!fn(node.payload)) return;
      }
      if (node.right != kNil) stack[top++] = node.right;
    }
  }
}

void IntervalTree::ForEach(FunctionRef<void(const AccessNode&)> fn) const {
  // Morris-free iterative in-order using parent pointers.
  uint32_t n = root_;
  if (n == kNil) return;
  while (nodes_[n].left != kNil) n = nodes_[n].left;
  while (n != kNil) {
    fn(nodes_[n].payload);
    if (nodes_[n].right != kNil) {
      n = nodes_[n].right;
      while (nodes_[n].left != kNil) n = nodes_[n].left;
    } else {
      uint32_t p = nodes_[n].parent;
      while (p != kNil && n == nodes_[p].right) {
        n = p;
        p = nodes_[p].parent;
      }
      n = p;
    }
  }
}

uint64_t IntervalTree::MemoryBytes() const {
  return nodes_.capacity() * sizeof(Node) +
         continuations_.size() * (sizeof(ContKey) + sizeof(uint32_t) + 16);
}

bool IntervalTree::Validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (root_ == kNil) return nodes_.empty() ? true : fail("nodes but no root");
  if (nodes_[root_].color != kBlack) return fail("root is red");

  // Walk the tree checking order, colors, black height, max_hi.
  struct Frame {
    uint32_t node;
    int black_height;
  };
  int expected_black = -1;
  std::vector<Frame> stack{{root_, 0}};
  size_t visited = 0;
  std::string msg;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes_[f.node];
    visited++;

    if (n.color == kRed) {
      if (n.left != kNil && nodes_[n.left].color == kRed) return fail("red-red (left)");
      if (n.right != kNil && nodes_[n.right].color == kRed)
        return fail("red-red (right)");
    }
    const int bh = f.black_height + (n.color == kBlack ? 1 : 0);

    uint64_t max_hi = n.payload.interval.hi();
    if (n.left != kNil) {
      const Node& l = nodes_[n.left];
      if (l.parent != f.node) return fail("bad parent link (left)");
      if (l.payload.interval.lo() > n.payload.interval.lo())
        return fail("BST order violated (left)");
      max_hi = std::max(max_hi, l.max_hi);
      stack.push_back({n.left, bh});
    }
    if (n.right != kNil) {
      const Node& r = nodes_[n.right];
      if (r.parent != f.node) return fail("bad parent link (right)");
      if (r.payload.interval.lo() < n.payload.interval.lo())
        return fail("BST order violated (right)");
      max_hi = std::max(max_hi, r.max_hi);
      stack.push_back({n.right, bh});
    }
    if (max_hi != n.max_hi) return fail("max_hi augmentation stale");
    if (n.left == kNil || n.right == kNil) {
      // Leaf path: all nil paths must share one black height.
      if (expected_black == -1) expected_black = bh;
      else if (bh != expected_black) return fail("black height mismatch");
    }
  }
  if (visited != nodes_.size()) return fail("unreachable nodes");
  return true;
}

FrozenIntervalSet FreezeTree(const IntervalTree& tree) {
  std::vector<AccessNode> sorted;
  sorted.reserve(tree.NodeCount());
  tree.ForEach([&](const AccessNode& node) { sorted.push_back(node); });
  return FrozenIntervalSet::FromSorted(std::move(sorted));
}

}  // namespace sword::itree
