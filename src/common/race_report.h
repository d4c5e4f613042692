// Race report record shared by the online HB baseline (src/hb) and the SWORD
// offline analyzer (src/offline).
//
// Reports are deduplicated by unordered source-location pair: the same code
// pair racing on many addresses (every element of an array) is one report,
// which is how the paper counts races in Tables II and IV.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace sword {

struct RaceReport {
  uint32_t pc1 = 0;        // interned source location of the first access
  uint32_t pc2 = 0;        // ... and the conflicting one
  uint64_t address = 0;    // a witness address they share
  uint8_t size1 = 0;
  uint8_t size2 = 0;
  bool write1 = false;
  bool write2 = false;

  /// Order-insensitive dedup key over the code pair.
  uint64_t Key() const {
    const uint32_t a = std::min(pc1, pc2);
    const uint32_t b = std::max(pc1, pc2);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  /// The canonical total order over reports: the code pair as oriented, the
  /// access kinds and sizes, then the witness address. The address comes
  /// last, so which orientation and kinds win never depends on where the
  /// race happened to be witnessed.
  auto OrderKey() const {
    return std::make_tuple(pc1, pc2, write1, write2, size1, size2, address);
  }

  /// Renders via a pc -> "file:line" resolver.
  std::string ToString(const std::function<std::string(uint32_t)>& pc_name) const {
    std::string out = "data race: ";
    out += write1 ? "write" : "read";
    out += " of " + std::to_string(int(size1)) + " bytes at " + pc_name(pc1);
    out += " vs ";
    out += write2 ? "write" : "read";
    out += " of " + std::to_string(int(size2)) + " bytes at " + pc_name(pc2);
    out += " (addr 0x";
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(address));
    out += buf;
    out += ")";
    return out;
  }
};

/// Dedup accumulator: one report per code pair, listed where the pair first
/// appeared. Of the reports offered for a pair it keeps the least under
/// RaceReport::OrderKey, so the kept report depends only on which reports
/// were offered, not on the order a schedule offered them in.
class RaceReportSet {
 public:
  /// Returns true if the set changed: a new code pair, or a report ordering
  /// before the one kept for its pair, which it replaces in place.
  bool Add(const RaceReport& report) {
    const auto [it, inserted] = index_.try_emplace(report.Key(), reports_.size());
    if (inserted) {
      reports_.push_back(report);
      return true;
    }
    RaceReport& kept = reports_[it->second];
    if (!(report.OrderKey() < kept.OrderKey())) return false;
    kept = report;
    return true;
  }

  const std::vector<RaceReport>& reports() const { return reports_; }
  size_t size() const { return reports_.size(); }
  bool Contains(uint32_t pc1, uint32_t pc2) const {
    RaceReport probe;
    probe.pc1 = pc1;
    probe.pc2 = pc2;
    return index_.count(probe.Key()) > 0;
  }

  void Clear() {
    index_.clear();
    reports_.clear();
  }

 private:
  std::map<uint64_t, size_t> index_;  // code pair -> its slot in reports_
  std::vector<RaceReport> reports_;
};

}  // namespace sword
