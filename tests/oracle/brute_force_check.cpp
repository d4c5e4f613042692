#include "oracle/brute_force_check.h"

#include <algorithm>
#include <tuple>

namespace sword::oracle {
namespace {

auto Canonical(const RaceReport& r) {
  return std::make_tuple(r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1,
                         r.write2, static_cast<uint8_t>(r.confidence));
}

}  // namespace

std::vector<RaceReport> BruteForceRaces(const itree::FrozenIntervalSet& a,
                                        const itree::FrozenIntervalSet& b,
                                        const itree::MutexSetTable& mutexes,
                                        ilp::OverlapEngine engine,
                                        uint64_t solver_step_budget,
                                        BruteForceStats* stats) {
  BruteForceStats local;
  BruteForceStats& st = stats ? *stats : local;
  ilp::OverlapOptions options;
  options.engine = engine;
  options.budget.max_steps = solver_step_budget;
  options.allow_fastpath = false;
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
      const ilp::OverlapResult overlap =
          a_first ? ilp::IntersectBounded(x.interval, y.interval, options)
                  : ilp::IntersectBounded(y.interval, x.interval, options);
      if (overlap.verdict == ilp::OverlapVerdict::kDisjoint) continue;

      RaceReport report;
      report.pc1 = x.key.pc;
      report.pc2 = y.key.pc;
      report.size1 = x.key.size;
      report.size2 = y.key.size;
      report.write1 = x.key.is_write();
      report.write2 = y.key.is_write();
      if (overlap.verdict == ilp::OverlapVerdict::kOverlap) {
        report.address = overlap.witness.address;
      } else {
        st.bailouts++;
        report.address = std::max(x.interval.lo(), y.interval.lo());
        report.confidence = RaceConfidence::kUnproven;
      }
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
