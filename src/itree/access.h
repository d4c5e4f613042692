// The unit of summarization: one node of a (thread, barrier interval)
// summary (paper SIII-B, Fig. 5).
//
// Each node summarizes a run of accesses sharing the same program counter,
// operation, access size, and mutex set, whose addresses form an arithmetic
// progression (base, base+stride, ...). The streaming builder
// (itree/streaming_builder.h) produces nodes, the frozen set
// (itree/frozen_set.h) stores them sorted, and the race checker compares
// them pairwise.
#pragma once

#include <cstdint>

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

}  // namespace sword::itree
