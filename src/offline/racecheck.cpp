#include "offline/racecheck.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace sword::offline {
namespace {

/// Canonical total order over reports. Collected reports are sorted under
/// this order before emitting, which makes the emitted stream - and
/// therefore the downstream deterministic merge - independent of pair
/// enumeration order (sweep vs gallop).
auto ReportKey(const RaceReport& r) {
  return std::make_tuple(r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1,
                         r.write2, static_cast<uint8_t>(r.confidence));
}

/// Decides one candidate node pair and collects any resulting report.
/// `x` comes from the smaller ("outer") side, `y` from the larger; the
/// a_smaller flag maps them back onto the caller's (a, b) argument order so
/// report fields do not depend on which side was iterated.
class PairDecider {
 public:
  PairDecider(const itree::MutexSetTable& mutexes, ilp::OverlapEngine engine,
              bool a_smaller, CheckStats* stats, const CheckLimits& limits)
      : mutexes_(mutexes), a_smaller_(a_smaller), stats_(stats) {
    options_.engine = engine;
    options_.budget.max_steps = limits.solver_step_budget;
    options_.allow_fastpath = limits.use_fastpath;
  }

  void Decide(const itree::AccessNode& x, const itree::AccessNode& y) {
    if (stats_) stats_->node_pairs_ranged++;

    // Filter: at least one write.
    if (!x.key.is_write() && !y.key.is_write()) return;
    // Filter: two atomics synchronize with each other.
    if (x.key.is_atomic() && y.key.is_atomic()) return;
    // Filter: common lock.
    if (mutexes_.Intersects(x.key.mutexset, y.key.mutexset)) return;

    // Exact strided intersection (the ILP constraint of SIII-B): the
    // closed-form fast paths when enabled, the general engine - under the
    // per-query step budget - otherwise.
    const ilp::OverlapResult overlap =
        ilp::IntersectBounded(x.interval, y.interval, options_);
    if (stats_) {
      if (overlap.via_fastpath) stats_->fastpath_hits++;
      else stats_->solver_calls++;
    }
    if (overlap.verdict == ilp::OverlapVerdict::kDisjoint) return;

    RaceReport report;
    report.pc1 = a_smaller_ ? x.key.pc : y.key.pc;
    report.pc2 = a_smaller_ ? y.key.pc : x.key.pc;
    report.size1 = a_smaller_ ? x.key.size : y.key.size;
    report.size2 = a_smaller_ ? y.key.size : x.key.size;
    report.write1 = a_smaller_ ? x.key.is_write() : y.key.is_write();
    report.write2 = a_smaller_ ? y.key.is_write() : x.key.is_write();
    if (overlap.verdict == ilp::OverlapVerdict::kOverlap) {
      report.address = overlap.witness.address;
    } else {
      // Budget exhausted: the pair MAY overlap. Report it - conservatively
      // sound - tagged unproven, with the range-intersection start as the
      // best available address hint (no proven shared byte exists).
      if (stats_) stats_->solver_bailouts++;
      report.address = std::max(x.interval.lo(), y.interval.lo());
      report.confidence = RaceConfidence::kUnproven;
    }
    reports_.push_back(report);
  }

  /// Sorts collected reports into the canonical order and emits them with
  /// exact duplicates suppressed (summarized runs re-colliding across node
  /// pairs otherwise inflate the report stream).
  void Emit(FunctionRef<void(const RaceReport&)> on_race) {
    std::sort(reports_.begin(), reports_.end(),
              [](const RaceReport& l, const RaceReport& r) {
                return ReportKey(l) < ReportKey(r);
              });
    const RaceReport* prev = nullptr;
    for (const RaceReport& report : reports_) {
      if (prev && ReportKey(*prev) == ReportKey(report)) {
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
  ilp::OverlapOptions options_;
  const bool a_smaller_;
  CheckStats* stats_;
  std::vector<RaceReport> reports_;
};

/// The governor's breach flag is polled per candidate pair: cheap (one
/// relaxed load) yet bounds the abort latency by a single solver query, so a
/// runaway bucket stops promptly after its deadline.
inline bool Cancelled(const CheckLimits& limits) {
  return limits.cancel && limits.cancel->load(std::memory_order_relaxed);
}

// When one frozen set is at least this many times smaller than the other,
// CheckFrozenPair gallops (per-node O(log M) queries into the big set)
// instead of sweeping: the sweep's O(M + M') merge would be dominated by
// walking the big side for a handful of outer nodes.
constexpr size_t kGallopRatio = 8;

}  // namespace

void CheckFrozenPair(const itree::FrozenIntervalSet& a,
                     const itree::FrozenIntervalSet& b,
                     const itree::MutexSetTable& mutexes,
                     ilp::OverlapEngine engine,
                     FunctionRef<void(const RaceReport&)> on_race,
                     CheckStats* stats, const CheckLimits& limits) {
  if (a.Empty() || b.Empty()) return;
  const bool a_smaller = a.size() <= b.size();
  const itree::FrozenIntervalSet& outer = a_smaller ? a : b;
  const itree::FrozenIntervalSet& inner = a_smaller ? b : a;

  PairDecider decider(mutexes, engine, a_smaller, stats, limits);
  if (inner.size() / outer.size() >= kGallopRatio) {
    // Gallop: the outer side is tiny; per-node binary-search queries into
    // the big frozen set beat a linear merge of both.
    for (size_t i = 0; i < outer.size(); i++) {
      if (Cancelled(limits)) break;
      if (!inner.QueryRange(outer.lo(i), outer.hi(i), [&](uint32_t inner_idx) {
            if (Cancelled(limits)) return false;
            decider.Decide(outer.node(i), inner.node(inner_idx));
            return true;
          })) {
        break;
      }
    }
  } else {
    // Sweep: sort-merge both sets once; every range-touching pair surfaces
    // in O(size(a) + size(b) + matches) with sequential access. Only pairs
    // with a write reach Decide; read-read pairs, which Decide would drop at
    // its first filter, are just counted - and only when the sweep ran to
    // the end, so a stopped bucket never reports a partial count.
    const itree::SweepResult sweep = itree::SweepMatchingPairs(
        outer, inner,
        [&](uint32_t outer_idx, uint32_t inner_idx) {
          if (Cancelled(limits)) return false;
          decider.Decide(outer.node(outer_idx), inner.node(inner_idx));
          return true;
        },
        limits.cancel);
    if (stats && sweep.completed) {
      stats->node_pairs_ranged += sweep.read_read_pairs;
    }
  }
  decider.Emit(on_race);
}

}  // namespace sword::offline
