#include "somp/srcloc.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace sword::somp {
namespace {

struct SiteKey {
  const char* file;  // source_location file_name pointers are stable per site
  uint32_t line;
  uint32_t column;
  friend bool operator==(const SiteKey&, const SiteKey&) = default;
};

struct SiteKeyHash {
  size_t operator()(const SiteKey& k) const {
    uint64_t h = reinterpret_cast<uintptr_t>(k.file);
    h = h * 0x9e3779b97f4a7c15ULL + k.line;
    h = h * 0x9e3779b97f4a7c15ULL + k.column;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

struct GlobalTable {
  std::shared_mutex mutex;
  std::unordered_map<SiteKey, PcId, SiteKeyHash> index;
  std::deque<SrcLoc> locs;  // deque: stable references across growth
};

GlobalTable& Table() {
  static GlobalTable table;
  return table;
}

// The per-thread pc cache: 64 sets of 4 ways, 256 slots in all. Trivial and
// zero-initialized, so the TLS block holds it with no init guard; an empty
// slot has a null file, which no real site has. Four ways, not one: with
// one slot per set, two sites of one loop body that hash alike evict each
// other on every access and send each intern to the shared lock.
struct CacheSlot {
  const char* file;
  uint32_t line;
  uint32_t column;
  PcId id;
};
constexpr size_t kCacheWays = 4;
constexpr PcId kNoPc = ~PcId{0};
constexpr int kCacheSetBits = 6;
struct CacheSet {
  CacheSlot way[kCacheWays];
};
constinit thread_local CacheSet tls_pc_cache[size_t{1} << kCacheSetBits] = {};

CacheSet& CacheSetOf(const char* file, uint32_t line, uint32_t column) {
  // Fibonacci hashing: the top bits of the product spread nearby lines and
  // columns of one file over the sets.
  const uint64_t x = reinterpret_cast<uintptr_t>(file) ^
                     (static_cast<uint64_t>(line) << 16) ^ column;
  return tls_pc_cache[(x * 0x9e3779b97f4a7c15ULL) >> (64 - kCacheSetBits)];
}

/// The cache miss: asks the shared table for the site's id, which it
/// assigns on the site's first intern from any thread, and caches it in
/// `set`. Kept out of line so the hit path stays a leaf.
[[gnu::noinline]] PcId InternMiss(CacheSet& set, const SiteKey& key,
                                  const char* function) {
  GlobalTable& table = Table();
  PcId id;
  {
    std::shared_lock lock(table.mutex);
    auto it = table.index.find(key);
    id = it != table.index.end() ? it->second : kNoPc;
  }
  if (id == kNoPc) {
    std::unique_lock lock(table.mutex);
    if (auto it = table.index.find(key); it != table.index.end()) {
      id = it->second;
    } else {
      id = static_cast<PcId>(table.locs.size());
      table.locs.push_back(SrcLoc{key.file, function, key.line, key.column});
      table.index.emplace(key, id);
    }
  }
  // The new site enters way 0 and the set's oldest leaves.
  std::copy_backward(set.way, set.way + kCacheWays - 1, set.way + kCacheWays);
  set.way[0] = CacheSlot{key.file, key.line, key.column, id};
  return id;
}

}  // namespace

std::string SrcLoc::ToString() const {
  // Strip the directory part; reports stay readable.
  const size_t slash = file.rfind('/');
  const std::string base = slash == std::string::npos ? file : file.substr(slash + 1);
  return base + ":" + std::to_string(line);
}

PcId InternSite(const char* file, uint32_t line, uint32_t column,
                const char* function) {
  CacheSet& set = CacheSetOf(file, line, column);
  for (const CacheSlot& slot : set.way) {
    if (slot.file == file && slot.line == line && slot.column == column) {
      return slot.id;
    }
  }
  return InternMiss(set, SiteKey{file, line, column}, function);
}

const SrcLoc& LookupSrcLoc(PcId id) {
  GlobalTable& table = Table();
  std::shared_lock lock(table.mutex);
  return table.locs.at(id);
}

size_t SrcLocCount() {
  GlobalTable& table = Table();
  std::shared_lock lock(table.mutex);
  return table.locs.size();
}

}  // namespace sword::somp
