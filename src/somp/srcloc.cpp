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

}  // namespace

std::string SrcLoc::ToString() const {
  // Strip the directory part; reports stay readable.
  const size_t slash = file.rfind('/');
  const std::string base = slash == std::string::npos ? file : file.substr(slash + 1);
  return base + ":" + std::to_string(line);
}

PcId InternSite(const char* file, uint32_t line, uint32_t column,
                const char* function) {
  const SiteKey key{file, line, column};
  GlobalTable& table = Table();
  {
    std::shared_lock lock(table.mutex);
    if (auto it = table.index.find(key); it != table.index.end()) return it->second;
  }
  std::unique_lock lock(table.mutex);
  if (auto it = table.index.find(key); it != table.index.end()) return it->second;
  const PcId id = static_cast<PcId>(table.locs.size());
  table.locs.push_back(SrcLoc{file, function, line, column});
  table.index.emplace(key, id);
  return id;
}

namespace detail {

constinit thread_local PcCacheSet tls_pc_cache[size_t{1} << kPcCacheSetBits] = {};

PcId InternMiss(PcCacheSet& set, uintptr_t key, const std::source_location& loc) {
  const PcId id = InternSite(loc.file_name(), loc.line(), loc.column(), loc.function_name());
  // The new site enters way 0 and the set's oldest leaves.
  std::copy_backward(set.way, set.way + kPcCacheWays - 1, set.way + kPcCacheWays);
  set.way[0] = PcCacheSlot{key, id};
  return id;
}

}  // namespace detail

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
