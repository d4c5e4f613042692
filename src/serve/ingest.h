// Incremental trace ingest for the serve daemon.
//
// A fleet run's trace directory is a moving target: the traced application
// is still appending to sword_t<k>.log and checkpointing sword_t<k>.meta
// while the daemon watches. The ingestor's job is to decide, per run, where
// it is in its lifecycle:
//
//   kGrowing  - files are still changing (or too young to tell). The
//               ingestor probes the metas through the salvage decoder at
//               barrier-interval granularity: a torn tail is expected here,
//               not damage, so probes never fail a run for being mid-write.
//   kSettled  - the directory has not changed for `quiesce_polls`
//               consecutive polls, or the writer dropped a `sword.done`
//               marker. Only a settled run gets the canonical analysis -
//               the one whose verdict must be byte-identical run over run.
//   kFailed   - reads kept failing hard past the retry budget. The service
//               quarantines the run with a counted reason.
//
// All reads go through a FileBackend, the same layer the journal and the
// ledger write through: the real filesystem, or a testing::FaultFile that
// injects deterministic transient/hard/slow read faults from the same
// FaultPlan string the write path uses
// (`read_transient=K;read_fail@F+C;read_slow=USEC@F+C`). Transient failures
// are retried with bounded exponential backoff governed by the injected
// clock; hard failures are counted and eventually fatal.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/status.h"
#include "serve/clock.h"

namespace sword::serve {

struct IngestConfig {
  /// Total attempts per read, including the first (transient errors only).
  uint32_t max_read_attempts = 5;
  /// Base retry backoff; doubles per retry, capped. The ingestor does not
  /// sleep - it re-arms and tells the caller when the next attempt is due,
  /// so a single service thread can interleave many backed-off runs.
  uint64_t backoff_base_ns = 1'000'000;
  uint64_t backoff_max_ns = 64'000'000;
  /// Consecutive unchanged polls before a run counts as settled.
  uint32_t quiesce_polls = 3;
  /// Hard read failures tolerated across a run's lifetime before kFailed.
  uint32_t max_hard_failures = 3;
};

enum class IngestState : uint8_t { kGrowing = 0, kSettled = 1, kFailed = 2 };

const char* IngestStateName(IngestState s);

/// One poll's outcome, for the service's accounting.
struct IngestPollStats {
  uint64_t polls = 0;
  uint64_t reads = 0;
  uint64_t read_retries = 0;        // transient errors absorbed by backoff
  uint64_t hard_failures = 0;
  uint64_t intervals_seen = 0;      // barrier-interval high-water mark
  uint64_t bytes_seen = 0;          // directory size high-water mark
  uint64_t live_probes = 0;         // salvage meta decodes on a growing run
};

/// Watches one trace directory. Drive with Poll(now) from the service tick;
/// between polls the ingestor holds no file handles, so a run directory can
/// vanish or be replaced without wedging anything.
class RunIngestor {
 public:
  /// `fs` null = the real filesystem.
  RunIngestor(std::string dir, const IngestConfig& config, FileBackend* fs,
              ClockFn now = {});

  /// One observation of the directory. Cheap when nothing changed; does a
  /// salvage meta probe when something did. Returns the state after the
  /// poll. Honors retry backoff: a call before the backoff deadline is a
  /// no-op returning the current state.
  IngestState Poll();

  IngestState state() const { return state_; }
  const std::string& dir() const { return dir_; }
  const IngestPollStats& stats() const { return stats_; }
  const Status& last_error() const { return last_error_; }
  /// True once `sword.done` exists or quiesce_polls unchanged polls passed.
  bool settled() const { return state_ == IngestState::kSettled; }

 private:
  /// Reads `path` through the backend with the transient-retry budget.
  /// Hard failures and exhausted budgets count toward the run's failure
  /// allowance.
  Result<Bytes> ReadWithRetry(const std::string& path);

  /// Fingerprints the directory: per-thread log/meta sizes summed. A
  /// changed fingerprint resets the quiesce streak.
  Result<uint64_t> Fingerprint();

  /// Decodes every present meta through the salvage decoder and counts
  /// intervals - the barrier-interval granularity probe. A torn tail is
  /// fine; a hard read failure is not.
  void LiveProbe();

  std::string dir_;
  IngestConfig config_;
  FileBackend* fs_;
  ClockFn now_;

  IngestState state_ = IngestState::kGrowing;
  IngestPollStats stats_;
  Status last_error_;
  uint64_t last_fingerprint_ = 0;
  uint32_t unchanged_polls_ = 0;
  uint32_t hard_failures_ = 0;
  // Backoff arming: 0 = not backing off.
  uint64_t next_attempt_ns_ = 0;
  uint64_t backoff_ns_ = 0;
};

}  // namespace sword::serve
