// Tree-vs-tree race checking (paper SIII-B, Fig. 5).
//
// Given the interval summaries of two CONCURRENT barrier intervals, every
// node of one side is checked against the range-overlapping nodes of the
// other:
//   1. cheap filters: read-read pairs and atomic-atomic pairs cannot race;
//      intersecting mutex sets mean common lock protection;
//   2. exact strided-address intersection - range overlap alone is NOT
//      sufficient for strided accesses (Fig. 4) - via the closed-form fast
//      paths (when enabled) with the ILP/Diophantine engine as fallback;
//   3. surviving pairs are data races, reported at the two source locations.
//
// Two enumeration back ends produce the identical candidate-pair set:
//   - CheckTreePair: the legacy path, per-node QueryRange on the pointer
//     red-black tree (kept as the A/B baseline, reachable via --no-sweep);
//   - CheckFrozenPair: the default path, a sort-merge sweep over two frozen
//     flat sets (O(M + M' + matches), sequential memory), switching to
//     galloping per-node queries when one set is much smaller.
// The tree and gallop paths hand every range-touching pair to filter 1. The
// sweep hands over only pairs with at least one write and merely counts the
// read-read ones, which filter 1 would drop anyway; the count goes into
// node_pairs_ranged, so the stats match the other paths exactly.
// Both buffer each pair's reports and emit them in one canonical order with
// exact duplicates suppressed, so the confirmed-race output is byte-for-byte
// independent of which back end enumerated the pairs.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/function_ref.h"
#include "common/race_report.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/interval_tree.h"
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

/// Caps the resource governor imposes on one tree-pair comparison.
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

/// Compares two interval trees from concurrent barrier intervals; reports
/// every racing node pair through `on_race` (a non-owning view). Thread-safe
/// for concurrent calls on distinct tree pairs (the mutex table is shared
/// and thread-safe). Reports are emitted in a canonical sorted order with
/// exact duplicates suppressed, so the output is deterministic and identical
/// to CheckFrozenPair on the frozen forms of the same trees.
void CheckTreePair(const itree::IntervalTree& a, const itree::IntervalTree& b,
                   const itree::MutexSetTable& mutexes,
                   ilp::OverlapEngine engine,
                   FunctionRef<void(const RaceReport&)> on_race,
                   CheckStats* stats = nullptr, const CheckLimits& limits = {});

/// Same contract as CheckTreePair, over frozen flat sets: the sort-merge
/// sweep enumerates range-touching pairs in O(M + M' + matches), deciding
/// only those with a write and counting the read-read ones; when one
/// set is >= 8x smaller it instead gallops - per-node O(log M) queries into
/// the big set - so tiny-vs-huge comparisons don't pay a full linear merge.
void CheckFrozenPair(const itree::FrozenIntervalSet& a,
                     const itree::FrozenIntervalSet& b,
                     const itree::MutexSetTable& mutexes,
                     ilp::OverlapEngine engine,
                     FunctionRef<void(const RaceReport&)> on_race,
                     CheckStats* stats = nullptr, const CheckLimits& limits = {});

}  // namespace sword::offline
