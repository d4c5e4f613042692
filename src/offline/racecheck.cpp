#include "offline/racecheck.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace sword::offline {
namespace {

/// Decides one candidate node pair and collects any resulting report.
/// `x` comes from the smaller ("outer") side, `y` from the larger; the
/// a_smaller flag maps them back onto the caller's (a, b) argument order, so
/// report fields follow the arguments while the overlap witness is always
/// taken smaller side first.
class PairDecider {
 public:
  PairDecider(const itree::MutexSetTable& mutexes, bool a_smaller,
              CheckStats* stats)
      : mutexes_(mutexes), a_smaller_(a_smaller), stats_(stats) {}

  void Decide(const itree::AccessNode& x, const itree::AccessNode& y) {
    // The sweep never visits a read-read pair: two reads cannot race.
    assert(x.key.is_write() || y.key.is_write());
    if (stats_) stats_->node_pairs_ranged++;

    // Filter: two atomics synchronize with each other.
    if (x.key.is_atomic() && y.key.is_atomic()) return;
    // Filter: common lock.
    if (mutexes_.Intersects(x.key.mutexset, y.key.mutexset)) return;

    // Exact strided intersection (the ILP constraint of SIII-B).
    const auto witness = ilp::Intersect(x.interval, y.interval);
    if (stats_) stats_->fastpath_hits++;
    if (!witness) return;

    RaceReport report;
    report.pc1 = a_smaller_ ? x.key.pc : y.key.pc;
    report.pc2 = a_smaller_ ? y.key.pc : x.key.pc;
    report.size1 = a_smaller_ ? x.key.size : y.key.size;
    report.size2 = a_smaller_ ? y.key.size : x.key.size;
    report.write1 = a_smaller_ ? x.key.is_write() : y.key.is_write();
    report.write2 = a_smaller_ ? y.key.is_write() : x.key.is_write();
    report.address = witness->address;
    reports_.push_back(report);
  }

  /// Sorts collected reports into the canonical order (RaceReport::OrderKey)
  /// and emits them with exact duplicates suppressed (summarized runs
  /// re-colliding across node pairs otherwise inflate the report stream).
  /// The sort makes the emitted stream - and therefore the downstream
  /// deterministic merge - independent of the sweep's enumeration order.
  void Emit(FunctionRef<void(const RaceReport&)> on_race) {
    std::sort(reports_.begin(), reports_.end(),
              [](const RaceReport& l, const RaceReport& r) {
                return l.OrderKey() < r.OrderKey();
              });
    const RaceReport* prev = nullptr;
    for (const RaceReport& report : reports_) {
      if (prev && prev->OrderKey() == report.OrderKey()) {
        if (stats_) stats_->duplicates_suppressed++;
        continue;
      }
      prev = &report;
      if (stats_) stats_->races_found++;
      on_race(report);
    }
  }

 private:
  const itree::MutexSetTable& mutexes_;
  const bool a_smaller_;
  CheckStats* stats_;
  std::vector<RaceReport> reports_;
};

/// The governor's breach flag is polled per candidate pair: cheap (one
/// relaxed load) yet bounds the abort latency by a single overlap query, so a
/// runaway bucket stops promptly after its deadline.
inline bool Cancelled(const CheckLimits& limits) {
  return limits.cancel && limits.cancel->load(std::memory_order_relaxed);
}

}  // namespace

void CheckFrozenPair(const itree::FrozenIntervalSet& a,
                     const itree::FrozenIntervalSet& b,
                     const itree::MutexSetTable& mutexes,
                     FunctionRef<void(const RaceReport&)> on_race,
                     CheckStats* stats, const CheckLimits& limits) {
  if (a.Empty() || b.Empty()) return;
  const bool a_smaller = a.size() <= b.size();
  const itree::FrozenIntervalSet& outer = a_smaller ? a : b;
  const itree::FrozenIntervalSet& inner = a_smaller ? b : a;

  PairDecider decider(mutexes, a_smaller, stats);
  // Sort-merge both sets once; every range-touching pair with a write
  // surfaces in O(size(a) + size(b) + matches) with sequential access.
  itree::SweepMatchingPairs(
      outer, inner,
      [&](uint32_t outer_idx, uint32_t inner_idx) {
        if (Cancelled(limits)) return false;
        decider.Decide(outer.node(outer_idx), inner.node(inner_idx));
        return true;
      },
      limits.cancel);
  decider.Emit(on_race);
}

}  // namespace sword::offline
