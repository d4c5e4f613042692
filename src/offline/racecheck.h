// Summary-vs-summary race checking (paper SIII-B, Fig. 5).
//
// Given the frozen interval summaries of two CONCURRENT barrier intervals,
// every range-touching node pair is checked:
//   1. cheap filters: read-read pairs cannot race (the sweep never visits
//      them), nor can atomic-atomic pairs; intersecting mutex sets mean
//      common lock protection;
//   2. exact strided-address intersection - range overlap alone is NOT
//      sufficient for strided accesses (Fig. 4) - decided in closed form
//      (ilp::Intersect);
//   3. surviving pairs are data races, reported at the two source locations.
//
// CheckFrozenPair enumerates the candidate pairs with one sort-merge sweep
// over the two sets (O(M + M' + matches), sequential memory) that visits
// only range-touching pairs with at least one write; those are the pairs
// node_pairs_ranged counts. Each pair's reports are buffered and emitted in
// one canonical order with exact duplicates suppressed, so the output does
// not depend on the enumeration order.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/function_ref.h"
#include "common/race_report.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/mutexset.h"

namespace sword::offline {

struct CheckStats {
  uint64_t node_pairs_ranged = 0;   // range-touching pairs with a write
  uint64_t fastpath_hits = 0;       // exact (closed-form) intersection decisions
  uint64_t races_found = 0;         // emitted reports, before global dedup
  uint64_t duplicates_suppressed = 0;  // identical reports dropped pre-merge
};

/// Caps the resource governor imposes on one summary-pair comparison.
struct CheckLimits {
  /// When non-null and set (by the watchdog on a deadline/memory breach),
  /// the comparison stops at the next node pair (the sweep also polls it
  /// per start event, so read-only stretches stop too). Races already
  /// reported stand. The bucket is accounted as governed in AnalysisStats.
  const std::atomic<bool>* cancel = nullptr;
};

/// Compares the frozen summaries of two concurrent barrier intervals;
/// reports every racing node pair through `on_race` (a non-owning view).
/// Thread-safe for concurrent calls on distinct set pairs (the mutex table
/// is shared and thread-safe). The sort-merge sweep enumerates the
/// range-touching pairs with a write in O(M + M' + matches). Reports are
/// emitted in a canonical sorted order with exact duplicates suppressed, so
/// the output is deterministic.
void CheckFrozenPair(const itree::FrozenIntervalSet& a,
                     const itree::FrozenIntervalSet& b,
                     const itree::MutexSetTable& mutexes,
                     FunctionRef<void(const RaceReport&)> on_race,
                     CheckStats* stats = nullptr, const CheckLimits& limits = {});

}  // namespace sword::offline
