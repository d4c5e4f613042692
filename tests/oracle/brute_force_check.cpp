#include "oracle/brute_force_check.h"

#include <algorithm>
#include <map>

#include "oracle/overlap_oracle.h"
#include "osl/label.h"

namespace sword::oracle {

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
      if (!x.key.is_write() && !y.key.is_write()) continue;
      st.node_pairs_ranged++;
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
              return l.OrderKey() < r.OrderKey();
            });
  const auto last = std::unique(reports.begin(), reports.end(),
                                [](const RaceReport& l, const RaceReport& r) {
                                  return l.OrderKey() == r.OrderKey();
                                });
  st.duplicates_suppressed += static_cast<uint64_t>(reports.end() - last);
  reports.erase(last, reports.end());
  return reports;
}

std::set<uint64_t> BruteForceRaceKeys(const offline::TraceStore& store) {
  struct Segment {
    osl::Label label;
    std::vector<itree::AccessNode> nodes;
  };
  struct Region {
    std::vector<Segment> segments;
    uint64_t failed = 0;
  };
  itree::MutexSetTable mutexes;
  std::map<uint32_t, Region> regions;
  for (uint32_t t = 0; t < store.thread_count(); t++) {
    const offline::ThreadTrace& thread = store.threads()[t];
    for (const trace::IntervalMeta& meta : thread.meta.intervals) {
      if (meta.label.pairs().empty()) continue;
      Region& region = regions[meta.label.pairs().front().offset];
      Segment& segment = region.segments.emplace_back();
      segment.label = meta.label;
      itree::MutexSetId held = mutexes.Intern(
          std::vector<itree::MutexId>(meta.lockset.begin(), meta.lockset.end()));
      auto add = [&](uint64_t addr, const trace::RawEvent& e) {
        itree::AccessKey key;
        key.pc = e.pc;
        key.flags = e.flags;
        key.size = e.size;
        key.mutexset = held;
        segment.nodes.push_back({{addr, 0, 1, e.size}, key, 1});
      };
      const Status s = thread.log->StreamRange(
          meta.data_begin, meta.data_size, [&](const trace::RawEvent& e) {
            switch (e.kind) {
              case trace::EventKind::kMutexAcquire:
                held = mutexes.WithMutex(held, static_cast<itree::MutexId>(e.addr));
                break;
              case trace::EventKind::kMutexRelease:
                held = mutexes.WithoutMutex(held, static_cast<itree::MutexId>(e.addr));
                break;
              case trace::EventKind::kAccess:
                add(e.addr, e);
                break;
              case trace::EventKind::kAccessRun:
                for (uint64_t k = 0; k < e.count; k++) add(e.addr + k * e.stride, e);
                break;
            }
          });
      if (!s.ok()) region.failed++;
    }
  }

  // Segments with equal labels are never concurrent, so comparing segment
  // by segment finds what comparing (thread, label) groups finds.
  std::set<uint64_t> keys;
  for (auto& [offset, region] : regions) {
    if (region.failed == region.segments.size()) continue;
    std::vector<itree::FrozenIntervalSet> frozen;
    for (Segment& segment : region.segments) {
      std::stable_sort(segment.nodes.begin(), segment.nodes.end(),
                       [](const itree::AccessNode& l, const itree::AccessNode& r) {
                         return l.interval.lo() < r.interval.lo();
                       });
      frozen.push_back(itree::FrozenIntervalSet::FromSorted(std::move(segment.nodes)));
    }
    for (size_t i = 0; i < frozen.size(); i++) {
      for (size_t j = i + 1; j < frozen.size(); j++) {
        if (!osl::Concurrent(region.segments[i].label, region.segments[j].label)) {
          continue;
        }
        for (const RaceReport& r : BruteForceRaces(frozen[i], frozen[j], mutexes)) {
          keys.insert(r.Key());
        }
      }
    }
  }
  return keys;
}

}  // namespace sword::oracle
