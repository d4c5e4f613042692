// Test-only references for offline::CheckFrozenPair and offline::Analyze.
//
// BruteForceRaces pairs every node of one set with every node of the other -
// no range pruning, no sweep - and each pair goes through the same three
// filters (a write on either side, not two atomics, disjoint mutex sets)
// and then the per-offset Diophantine oracle (oracle/overlap_oracle.h), not
// the production closed form, so the two decide independently.
// The collected reports are sorted into the canonical order
// (RaceReport::OrderKey, which the checker emits in) and
// exact duplicates dropped. It shares nothing with the checker's
// enumeration, so agreement on random inputs is evidence that the sweep
// visits exactly the pairs it must.
//
// BruteForceRaceKeys runs BruteForceRaces over a whole trace with every
// access expanded to its own node - no summarization, no run folding, no
// dedup - and returns the code pairs that race.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/race_report.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/mutexset.h"
#include "offline/tracestore.h"

namespace sword::oracle {

/// What the brute-force pass counted, in CheckStats' terms.
struct BruteForceStats {
  uint64_t node_pairs_ranged = 0;  // range-touching pairs with a write
  uint64_t decisions = 0;          // ranged pairs that passed the filters
  uint64_t duplicates_suppressed = 0;
};

/// The races CheckFrozenPair(a, b, ...) must emit, in emission order. The
/// witness address depends on argument order, so each pair is decided with
/// the smaller set's node first (ties: `a`), as the checker does.
std::vector<RaceReport> BruteForceRaces(const itree::FrozenIntervalSet& a,
                                        const itree::FrozenIntervalSet& b,
                                        const itree::MutexSetTable& mutexes,
                                        BruteForceStats* stats = nullptr);

/// The RaceReport::Key() of every code pair offline::Analyze must report on
/// `store`: per top-level region, every two segments with concurrent labels
/// are compared element by element. Segments stream as in
/// the analyzer (locksets recovered from mutex events; a salvage store keeps
/// whatever a damaged segment streamed), and a region none of whose segments
/// streamed is skipped, as the analyzer skips it.
std::set<uint64_t> BruteForceRaceKeys(const offline::TraceStore& store);

}  // namespace sword::oracle
