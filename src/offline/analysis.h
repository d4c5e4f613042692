// The SWORD offline analysis driver (paper SIII-B).
//
// Pipeline, per the paper:
//   1. read meta files; recover the concurrency structure from the stored
//      offset-span labels (synchronization recovery);
//   2. bucket barrier intervals by top-level region - intervals of different
//      top-level regions are provably sequential (the root label pair
//      orders them, OSL case 2), so only intra-bucket pairs are candidates;
//   3. per bucket: judge every label pair (OSL - no happens-before, hence no
//      Fig. 1 masking), then stream each (thread, label) group's events
//      from the log files once (decompressing one frame at a time) to
//      fingerprint them; of the groups a concurrent pair names, one leader
//      per distinct fingerprint re-streams its segments from saved decode
//      cursors, recovers locksets from the acquire/release events, and
//      summarizes its accesses into strided intervals
//      (itree::StreamingSetBuilder), frozen into one sorted flat interval
//      set - the paper's interval tree, built by sorted append instead of
//      balanced insertion. Followers share their leader's set;
//   4. for every CONCURRENT label pair, compare the two frozen sets (one
//      sweep over the range-touching pairs with a write) with the exact
//      closed-form overlap check;
//   5. deduplicate races by source-location pair.
//
// Buckets are processed one at a time so resident memory is bounded by the
// largest top-level region, not the whole execution; within a bucket, set
// comparisons fan out across `threads` checker threads (the paper's
// distributed mode - Table III's MT column is the per-bucket maximum).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>

#include "common/fsutil.h"
#include "common/memtrack.h"
#include "common/race_report.h"
#include "common/status.h"
#include "offline/checker_pool.h"
#include "offline/tracestore.h"

namespace sword::offline {

struct AnalysisConfig {
  uint32_t threads = 1;  // checker threads for summary-pair comparisons

  // Distributed sharding (the paper's cluster mode: "we distributed the
  // offline analysis across a cluster of nodes"). Buckets - top-level
  // regions - are the unit of distribution because no race can span two of
  // them; shard i of n analyzes buckets with ordinal % n == i, and the
  // union of all shards' reports equals the full analysis.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;

  // --- Resource governor (all 0 = ungoverned, the historical behavior).
  // Production analyses run for hours; these caps guarantee that one
  // pathological bucket degrades the answer (with exact accounting in
  // AnalysisStats and the report's integrity section) instead of hanging
  // or OOM-killing the whole run.
  /// Wall-clock budget per bucket. On breach the watchdog aborts ONLY that
  /// bucket (races already found stand) and counts it in
  /// `buckets_deadline_exceeded`.
  uint32_t bucket_deadline_ms = 0;
  /// Cap on one bucket's summarized interval-tree footprint (its fingerprint
  /// leaders' builders). On breach the bucket is abandoned mid-build and
  /// counted in `buckets_memory_capped`.
  uint64_t max_tree_bytes = 0;

  // --- Checkpoint/resume (see offline/journal.h).
  /// When non-empty, append a progress record to this journal after every
  /// completed bucket. Append failures degrade (counted in stats), never
  /// abort the analysis.
  std::string journal_path;
  /// Replay completed buckets from `journal_path` instead of re-analyzing
  /// them, then continue journaling new buckets. The journal's header must
  /// match this run's shard key, governor knobs, and trace fingerprint.
  bool resume = false;
};

struct AnalysisStats {
  uint64_t intervals = 0;            // meta records analyzed
  uint64_t buckets = 0;              // top-level regions
  /// Summaries actually built: one per fingerprint leader. Groups no
  /// concurrent pair names and dedup followers are decoded (counted in
  /// raw_events) but never summarized, so they add to neither count.
  uint64_t trees_built = 0;
  uint64_t tree_nodes = 0;           // nodes of those summaries
  uint64_t raw_events = 0;           // events streamed from logs
  uint64_t label_pairs_checked = 0;  // OSL concurrency judgments
  uint64_t concurrent_pairs = 0;     // pairs that proceeded to tree compare
  uint64_t node_pairs_ranged = 0;    // range-touching pairs with a write
  uint64_t fastpath_hits = 0;   // exact (closed-form) intersection decisions
  uint64_t solver_calls = 0;    // always 0; read only by e2ebench/bench.cpp
  /// Repeated-subtrace memoization: groups that reused another
  /// group's frozen set because their canonical event streams fingerprinted
  /// identically, and the summarized-node bytes that sharing avoided.
  uint64_t dedup_hits = 0;
  uint64_t dedup_bytes_saved = 0;
  /// Identical (pc, pc, address) reports dropped before the deterministic
  /// merge (summarized runs re-colliding across node pairs).
  uint64_t duplicates_suppressed = 0;
  /// The three split each bucket's time without double counting. Build:
  /// the fingerprint pass, the leader partition and the summarize pass's
  /// streaming share. Freeze: the summarize pass's share spent freezing
  /// (its wall clock is split in the proportion its workers spent streaming
  /// and freezing). Compare: the label-pair judgment and the set compares.
  double build_seconds = 0;
  double freeze_seconds = 0;
  double compare_seconds = 0;
  double total_seconds = 0;
  /// Longest single-bucket time: the paper's distributed-analysis (MT)
  /// latency proxy - with one node per region, the slowest region bounds
  /// the wall clock.
  double max_bucket_seconds = 0;
  /// Largest per-bucket tree footprint: the node arenas of the bucket's
  /// summarized leaders, plus any builder a governor stopped. Accumulated
  /// during the summarize pass and reset at bucket close so the governor can
  /// act on it mid-bucket; `peak_tree_bucket` names the offending bucket
  /// ordinal.
  uint64_t peak_tree_bytes = 0;
  uint64_t peak_tree_bucket = 0;

  // Resource-governor accounting (see AnalysisConfig). A governed bucket is
  // degraded honestly: counted here and surfaced in the report's integrity
  // section, while the process exits normally.
  uint64_t buckets_deadline_exceeded = 0;  // aborted by the wall-clock watchdog
  uint64_t buckets_memory_capped = 0;      // abandoned at the tree-byte cap

  // Checkpoint/resume accounting (see offline/journal.h).
  uint64_t buckets_resumed = 0;          // replayed from the journal
  uint64_t journal_records_dropped = 0;  // torn-tail records ignored on resume
  uint64_t journal_bytes = 0;            // journal bytes appended by this run
  uint64_t journal_write_failures = 0;   // appends that failed (bucket re-analyzed on resume)
  double journal_seconds = 0;            // wall clock spent appending records

  // Degraded-analysis accounting: what the analysis could NOT use, so a
  // salvage run reports races from the surviving data without pretending
  // the data was whole. All zero on a clean trace.
  uint64_t segments_skipped = 0;    // meta records whose events failed to stream
  uint64_t buckets_skipped = 0;     // regions where every segment failed
  uint64_t events_missing = 0;      // claimed by meta but never streamed
  uint64_t bytes_skipped_read = 0;  // logical bytes the reader skipped (holes)
  /// Barrier intervals traced under a non-zero degradation-governor level
  /// (or with shed accesses). Races found in them are real; their event
  /// lists may be subsets, so absence of a race there is not proof.
  uint64_t intervals_degraded = 0;
  uint64_t degraded_events_dropped = 0;  // sum of those intervals' shed counts
  TraceIntegrity integrity;         // store-open damage, copied at Analyze()
};

struct AnalysisResult {
  /// Strict store: first failure (analysis aborted there). Salvage store:
  /// Ok unless EVERY bucket failed - partial damage degrades the stats, not
  /// the status.
  Status status;
  /// First per-segment/per-bucket failure in a salvage run, preserved even
  /// when `status` stays Ok. Ok when nothing failed.
  Status first_error;
  RaceReportSet races;
  AnalysisStats stats;
};

/// Injected environment for an Analyzer. Both hooks default to the real
/// thing; the serve daemon injects a fault backend (deterministic ENOSPC on
/// journal appends) and a controllable clock (deterministic stats timing in
/// tests). Neither hook can change WHAT races are found - only how progress
/// is persisted and how elapsed time is measured.
struct AnalyzerEnv {
  /// Write layer for journal creation/appends. Null = real filesystem.
  FileBackend* fs = nullptr;
  /// Monotonic nanosecond clock for the stats timers. Null = steady_clock.
  std::function<uint64_t()> now_ns;
  /// Optional ledger charged with each bucket's summarization footprint
  /// (builder bytes plus frozen-set bytes) and released at bucket close.
  /// Null = no external accounting. Lets benchmarks pin the per-bucket
  /// summarization peak; charging NEVER changes what races are found (cap
  /// failures are ignored here - the analysis governor is `max_tree_bytes`).
  MemoryScope* mem = nullptr;
};

/// A reentrant analysis engine: owns the persistent checker pool so a
/// long-lived caller (the serve daemon) pays thread spawn/join once, not per
/// run. One Analyzer may be shared by many runs; Analyze() calls are
/// serialized internally because CheckerPool::ParallelFor is not reentrant.
/// No global or static state - two Analyzer instances never interfere.
class Analyzer {
 public:
  explicit Analyzer(uint32_t threads = 1, AnalyzerEnv env = {});

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Runs the full pipeline on `store`. `config.threads` is ignored in favor
  /// of the pool this Analyzer was built with. Thread-safe; concurrent calls
  /// queue on an internal mutex.
  AnalysisResult Analyze(const TraceStore& store,
                         const AnalysisConfig& config = {});

  uint32_t threads() const { return threads_; }

 private:
  const uint32_t threads_;
  AnalyzerEnv env_;
  std::mutex mutex_;  // serializes Analyze: the pool is not reentrant
  // Persistent across Analyze calls (the expensive part: thread start/join).
  // Frame caches stay per-call: they key on log-reader addresses, which a
  // freed store's allocator may hand to the next store.
  std::optional<CheckerPool> pool_;
};

/// One-shot convenience used by sword-offline: builds a throwaway Analyzer
/// with `config.threads` workers. Byte-identical output to the class form.
AnalysisResult Analyze(const TraceStore& store, const AnalysisConfig& config = {});

}  // namespace sword::offline
