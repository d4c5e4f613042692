// Cross-run race aggregation for the serve daemon.
//
// Fleet reality: the same racy code pair shows up in many runs, and the
// operator wants ONE row per code pair with a run count, not a thousand
// copies. The aggregator keys on RaceReport::Key() (the unordered pc pair,
// the same identity sword-offline dedups by).
//
// Determinism is the design constraint. The daemon may finish runs in any
// order, die, restart, and replay verdicts from its ledger in yet another
// order - and the aggregate must come out identical every time, because the
// soak test diffs it against a clean single-shot baseline. So every merge
// rule is order-free:
//   - the sample report for a pair comes from the lexicographically
//     smallest run name that reported it;
//   - counts are additive over the set of distinct runs;
//   - rendering walks pairs in key order.
// Re-adding a run (restart replay, watch-dir rescan) with the same trace
// fingerprint is a no-op; a CHANGED fingerprint replaces the old verdict -
// the run was re-traced, and stale races must not linger.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/race_report.h"
#include "common/status.h"

namespace sword::serve {

/// One run's final, canonical analysis outcome.
struct RunVerdict {
  std::string run;                // run name (trace-dir basename); unique
  uint64_t fingerprint = 0;       // trace fingerprint (dedups re-adds)
  Status status;                  // final analysis status
  bool salvaged = false;          // analyzed under salvage policy
  std::vector<RaceReport> races;  // the run's deduped report list, in order
};

class ReportAggregator {
 public:
  /// Merges one verdict. Same run + same fingerprint = no-op (returns
  /// false); same run + new fingerprint replaces the old verdict.
  bool AddRun(const RunVerdict& verdict);

  /// One aggregated row per racing code pair.
  struct Site {
    RaceReport sample;       // from the lexicographically-min run
    std::string sample_run;  // which run the sample came from
    uint64_t runs = 0;       // distinct runs reporting this pair
  };

  /// Pairs in key order - the deterministic output surface.
  std::vector<Site> Sites() const;

  size_t run_count() const { return runs_.size(); }
  size_t site_count() const { return sites_.size(); }
  uint64_t races_total() const;  // sum of per-run race-list lengths

  /// Stable JSON for the control socket / --json snapshots:
  /// {"runs":N,"sites":[{"pc1":..,"pc2":..,"runs":..,"sample_run":"..",
  ///  "address":"..",...}]}
  std::string RenderJson() const;

 private:
  void MergeVerdict(const RunVerdict& verdict);
  void Rebuild();

  // Verdicts by run name: the source of truth. Sites are derived, so a
  // replaced verdict triggers a full rebuild (runs are few, races fewer).
  std::map<std::string, RunVerdict> runs_;
  std::map<uint64_t, Site> sites_;
};

}  // namespace sword::serve
