#include "oracle/brute_force_check.h"

#include <algorithm>
#include <tuple>

#include "oracle/overlap_oracle.h"

namespace sword::oracle {
namespace {

auto Canonical(const RaceReport& r) {
  return std::make_tuple(r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1,
                         r.write2);
}

}  // namespace

std::vector<RaceReport> BruteForceRaces(const itree::FrozenIntervalSet& a,
                                        const itree::FrozenIntervalSet& b,
                                        const itree::MutexSetTable& mutexes,
                                        BruteForceStats* stats) {
  BruteForceStats local;
  BruteForceStats& st = stats ? *stats : local;
  const bool a_first = a.size() <= b.size();

  std::vector<RaceReport> reports;
  for (size_t i = 0; i < a.size(); i++) {
    for (size_t j = 0; j < b.size(); j++) {
      const itree::AccessNode& x = a.node(i);
      const itree::AccessNode& y = b.node(j);
      if (!ilp::RangesTouch(x.interval, y.interval)) continue;
      st.node_pairs_ranged++;
      if (!x.key.is_write() && !y.key.is_write()) continue;
      if (x.key.is_atomic() && y.key.is_atomic()) continue;
      if (mutexes.Intersects(x.key.mutexset, y.key.mutexset)) continue;

      st.decisions++;
      const auto witness = a_first ? IntersectDiophantine(x.interval, y.interval)
                                   : IntersectDiophantine(y.interval, x.interval);
      if (!witness) continue;

      RaceReport report;
      report.pc1 = x.key.pc;
      report.pc2 = y.key.pc;
      report.size1 = x.key.size;
      report.size2 = y.key.size;
      report.write1 = x.key.is_write();
      report.write2 = y.key.is_write();
      report.address = witness->address;
      reports.push_back(report);
    }
  }

  std::sort(reports.begin(), reports.end(),
            [](const RaceReport& l, const RaceReport& r) {
              return Canonical(l) < Canonical(r);
            });
  const auto last = std::unique(reports.begin(), reports.end(),
                                [](const RaceReport& l, const RaceReport& r) {
                                  return Canonical(l) == Canonical(r);
                                });
  st.duplicates_suppressed += static_cast<uint64_t>(reports.end() - last);
  reports.erase(last, reports.end());
  return reports;
}

}  // namespace sword::oracle
