// Test-only reference for offline::CheckFrozenPair.
//
// Every node of one set is paired with every node of the other - no range
// pruning, no sweep, no gallop - and each pair goes through the same three
// filters (a write on either side, not two atomics, disjoint mutex sets)
// and then the per-offset Diophantine oracle (oracle/overlap_oracle.h), not
// the production closed form, so the two decide independently.
// The collected reports are sorted into the checker's canonical order and
// exact duplicates dropped. It shares nothing with the checker's
// enumeration, so agreement on random inputs is evidence that the sweep and
// the gallop visit exactly the pairs they must.
#pragma once

#include <cstdint>
#include <vector>

#include "common/race_report.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/mutexset.h"

namespace sword::oracle {

/// What the brute-force pass counted, in CheckStats' terms.
struct BruteForceStats {
  uint64_t node_pairs_ranged = 0;  // pairs whose [lo,hi] byte ranges touch
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

}  // namespace sword::oracle
