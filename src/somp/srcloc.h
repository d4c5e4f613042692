// Source-location interning.
//
// The LLVM pass in the paper tags every instrumented load/store with its
// program counter; race reports then map PCs back to file:line. Our
// instrumentation shim uses std::source_location instead, interned into
// dense 32-bit PcIds.
//
// Interning is on the access hot path, so each thread keeps a bounded cache
// keyed by the call site's std::source_location object itself. That object
// is one pointer to a static record the compiler emits per call site, so
// the key is that pointer: a hit is a multiplicative hash and one pointer
// compare per way, inline in the caller, with no call. The cache holds 256
// slots in 4-way sets in constant-initialized TLS, so it needs no TLS init
// guard and never grows.
//
// A miss asks the shared table (InternSite), keyed by (file, line, column),
// which gives each site its id on the site's first intern from any thread.
// The cache only remembers those ids, so ids do not depend on it: two
// source_location objects of one (file, line, column) - two template
// instantiations of one call site, whose records differ in the function
// name - resolve to the same id, on every thread and after any eviction.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <source_location>
#include <string>

namespace sword::somp {

using PcId = uint32_t;

struct SrcLoc {
  std::string file;
  std::string function;
  uint32_t line = 0;
  uint32_t column = 0;

  /// "file.cpp:42" - what race reports print.
  std::string ToString() const;
};

/// Interns the site (`file`, `line`, `column`) in the shared table, returning
/// its process-wide dense id. `file` is the key by pointer, so it must stay
/// valid and must be the same pointer on every call for one site
/// (source_location's file_name() is); `function` is copied on the site's
/// first intern only. Thread-safe; takes the table's lock.
PcId InternSite(const char* file, uint32_t line, uint32_t column,
                const char* function);

namespace detail {

// The per-thread pc cache: 64 sets of 4 ways. Trivial and zero-initialized,
// so the TLS block holds it with no init guard. Four ways, not one: with
// one slot per set, two sites of one loop body that hash alike evict each
// other on every access and send each intern to the shared lock.
struct PcCacheSlot {
  uintptr_t key;  // the site's record address with bit 0 set; 0 = empty
  PcId id;
};
inline constexpr size_t kPcCacheWays = 4;
inline constexpr int kPcCacheSetBits = 6;
struct PcCacheSet {
  PcCacheSlot way[kPcCacheWays];
};
extern constinit thread_local PcCacheSet tls_pc_cache[size_t{1} << kPcCacheSetBits];

/// The cache miss: InternSite of `loc`'s fields, cached in `set` under
/// `key`. Out of line, so the hit path stays a leaf.
PcId InternMiss(PcCacheSet& set, uintptr_t key, const std::source_location& loc);

}  // namespace detail

/// Interns `loc`: its shared-table id, through the calling thread's cache.
inline PcId InternSrcLoc(const std::source_location& loc) {
  static_assert(sizeof(std::source_location) == sizeof(uintptr_t),
                "the pc cache keys a source_location by its one record pointer");
  // Records are pointer-aligned, so setting bit 0 keeps keys distinct and
  // makes none of them 0, an empty slot's key (a default-constructed
  // source_location has a null record).
  const uintptr_t key = std::bit_cast<uintptr_t>(loc) | 1;
  // Multiplicative hashing: records are 24 bytes apart, so the low bits of
  // neighbouring sites repeat; the top bits of the product spread them.
  detail::PcCacheSet& set =
      detail::tls_pc_cache[(key * 0x9e3779b97f4a7c15ULL) >> (64 - detail::kPcCacheSetBits)];
  for (const detail::PcCacheSlot& slot : set.way) {
    if (slot.key == key) return slot.id;
  }
  return detail::InternMiss(set, key, loc);
}

/// Reverse lookup; ids are never recycled. Returns a stable reference.
const SrcLoc& LookupSrcLoc(PcId id);

/// Number of interned sites (tests).
size_t SrcLocCount();

}  // namespace sword::somp
