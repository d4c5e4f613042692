// Summary-vs-summary race checking (paper SIII-B, Fig. 5).
//
// Given the frozen interval summaries of two CONCURRENT barrier intervals,
// every range-touching node pair is checked:
//   1. cheap filters: read-read pairs and atomic-atomic pairs cannot race;
//      intersecting mutex sets mean common lock protection;
//   2. exact strided-address intersection - range overlap alone is NOT
//      sufficient for strided accesses (Fig. 4) - via the closed-form fast
//      paths (when enabled) with the ILP/Diophantine engine as fallback;
//   3. surviving pairs are data races, reported at the two source locations.
//
// CheckFrozenPair enumerates the range-touching pairs with a sort-merge
// sweep over the two sets (O(M + M' + matches), sequential memory), or,
// when one set is much smaller, with galloping per-node queries into the
// bigger one. The gallop hands every range-touching pair to filter 1; the
// sweep hands over only pairs with at least one write and merely counts the
// read-read ones, which filter 1 would drop anyway. Both counts go into
// node_pairs_ranged, so the stats do not depend on the enumeration. Each
// pair's reports are buffered and emitted in one canonical order with exact
// duplicates suppressed, so the output does not depend on it either.
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
  uint64_t node_pairs_ranged = 0;   // range-touching pairs, read-read included
  uint64_t solver_calls = 0;        // general-engine intersection decisions
  uint64_t fastpath_hits = 0;       // closed-form intersection decisions
  uint64_t solver_bailouts = 0;     // queries whose step budget ran out
  uint64_t races_found = 0;         // emitted reports, before global dedup
  uint64_t duplicates_suppressed = 0;  // identical reports dropped pre-merge
};

/// Caps the resource governor imposes on one summary-pair comparison.
struct CheckLimits {
  /// Per-overlap-query solver step budget; 0 = unlimited. An exhausted
  /// query reports the node pair as an UNPROVEN race (sound: never dropped).
  uint64_t solver_step_budget = 0;
  /// When non-null and set (by the watchdog on a deadline/memory breach),
  /// the comparison stops at the next node pair (the sweep also polls it
  /// per start event, so read-only stretches stop too). Races already
  /// reported stand; read-read pairs a stopped sweep counted are not added
  /// to node_pairs_ranged. The bucket is accounted as governed in
  /// AnalysisStats.
  const std::atomic<bool>* cancel = nullptr;
  /// Try the closed-form fast paths before the general engine (exact; the
  /// verdicts and witnesses are engine-identical). Off by default so that
  /// direct callers get the pure-engine baseline; the analyzer turns it on
  /// unless --no-fastpath.
  bool use_fastpath = false;
};

/// Compares the frozen summaries of two concurrent barrier intervals;
/// reports every racing node pair through `on_race` (a non-owning view).
/// Thread-safe for concurrent calls on distinct set pairs (the mutex table
/// is shared and thread-safe). The sort-merge sweep enumerates range-touching
/// pairs in O(M + M' + matches), deciding only those with a write and
/// counting the read-read ones; when one set is >= 8x smaller it instead
/// gallops - per-node O(log M) queries into the big set - so tiny-vs-huge
/// comparisons don't pay a full linear merge. Reports are emitted in a
/// canonical sorted order with exact duplicates suppressed, so the output is
/// deterministic.
void CheckFrozenPair(const itree::FrozenIntervalSet& a,
                     const itree::FrozenIntervalSet& b,
                     const itree::MutexSetTable& mutexes,
                     ilp::OverlapEngine engine,
                     FunctionRef<void(const RaceReport&)> on_race,
                     CheckStats* stats = nullptr, const CheckLimits& limits = {});

}  // namespace sword::offline
