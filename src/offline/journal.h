// The analysis progress journal: what makes `sword-offline` survivable.
//
// The offline phase is where SWORD spends hours on production traces
// (Table III), and before this journal existed a SIGKILL or OOM at hour
// three discarded every bucket already analyzed. The journal checkpoints
// analysis progress at the natural unit - the bucket (top-level region;
// no race spans buckets) - so `sword-offline --resume` replays completed
// buckets from disk and re-analyzes only what is missing, producing a
// report bit-identical to an uninterrupted run.
//
// On-disk shape (one file per shard, `sword_analysis_<I>of<N>.journal`
// inside the trace directory):
//
//   header record   - written ONCE via fsutil write-temp+rename (atomic:
//                     a crash during creation leaves either no journal or
//                     a complete header, never a torn one). Carries the
//                     shard key, the result-affecting analysis knobs, and
//                     a fingerprint of the trace, so a journal can never
//                     be replayed against the wrong trace or config.
//   bucket records  - APPENDED after each bucket completes. Each is
//                     self-framed like a log frame (magic | size | crc64 |
//                     payload): a record torn by mid-append death fails
//                     its checksum, is dropped on load, and its bucket is
//                     simply re-analyzed. Every record carries the bucket
//                     ordinal, the races that bucket contributed (in the
//                     analyzer's deterministic merge order), its governor
//                     flags, and its additive stats deltas.
//
// The journal is an optimization, never a source of wrong answers: any
// subset of valid records resumes correctly, because the analyzer walks
// buckets in ordinal order and replays or re-analyzes each independently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/race_report.h"
#include "common/status.h"

namespace sword::offline {

constexpr uint32_t kJournalHeaderMagic = 0x53574148;  // "SWAH"
constexpr uint32_t kJournalBucketMagic = 0x53574142;  // "SWAB"
// v2: header binds the overlap fast-path switch; bucket records carry
// fastpath_hits and duplicates_suppressed. v3: header binds the store's
// salvage policy - a salvage analysis skips damaged segments with
// accounting, so replaying its buckets under a strict open (or vice versa)
// would silently diverge. v4: header binds use_dedup - its race output is
// byte-identical but its stats are not, so replaying across modes would
// fold the wrong deltas; bucket records carry dedup_hits/dedup_bytes_saved.
// v5: the header drops the bytes of the retired offline ablations (tree
// compare, tree build, run expansion). v6: one exact overlap decision - the
// header drops the engine byte, the fast-path switch and the solver step
// budget; bucket records drop the solver call and bail-out counts, and a
// race's flag byte keeps only the two write bits. v7: dedup is always on -
// the header drops the use_dedup byte, and a bucket record's
// node_pairs_ranged counts only range-touching pairs with a write. v8: the
// layout is v7's, but a bucket record's trees_built, tree_nodes and
// tree_bytes count only the fingerprint leaders the analyzer summarized.
// Older journals are refused (their stats cannot be folded faithfully into a
// current run).
constexpr uint8_t kJournalVersion = 8;

/// Identifies what a journal belongs to: shard key + the analysis knobs
/// that change results + a cheap fingerprint of the trace itself. Resume
/// refuses a journal whose header does not match the current run exactly -
/// mixing configs would make "resume equals clean" silently false.
struct JournalHeader {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint8_t salvage = 0;                // store opened with salvage policy
  uint64_t bucket_deadline_ms = 0;
  uint64_t max_tree_bytes = 0;
  // Trace fingerprint.
  uint32_t thread_count = 0;
  uint64_t total_intervals = 0;
  uint64_t total_log_bytes = 0;

  friend bool operator==(const JournalHeader&, const JournalHeader&) = default;
};

/// One completed bucket: its contributed races and additive stat deltas.
struct JournalBucketRecord {
  uint64_t ordinal = 0;

  // Governor outcome flags.
  static constexpr uint8_t kDeadlineExceeded = 1 << 0;
  static constexpr uint8_t kMemoryCapped = 1 << 1;
  static constexpr uint8_t kBucketSkipped = 1 << 2;  // salvage: no segment streamed
  uint8_t flags = 0;

  /// Races by which this bucket changed the global report set, in the
  /// analyzer's deterministic merge order. Replaying them with
  /// RaceReportSet::Add in record order reproduces the clean run's set
  /// exactly - content and order.
  std::vector<RaceReport> races;

  // Additive AnalysisStats deltas for this bucket.
  uint64_t trees_built = 0;
  uint64_t tree_nodes = 0;
  uint64_t raw_events = 0;
  uint64_t label_pairs_checked = 0;
  uint64_t concurrent_pairs = 0;
  uint64_t node_pairs_ranged = 0;
  uint64_t fastpath_hits = 0;
  uint64_t dedup_hits = 0;
  uint64_t dedup_bytes_saved = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t segments_skipped = 0;
  uint64_t events_missing = 0;
  uint64_t bytes_skipped_read = 0;
  uint64_t tree_bytes = 0;  // bucket tree footprint (drives peak accounting)
};

struct JournalLoadResult {
  JournalHeader header;
  std::vector<JournalBucketRecord> records;  // valid records, file order
  uint64_t valid_bytes = 0;       // prefix length covered by valid records
  uint64_t records_dropped = 0;   // torn/corrupt tail records discarded
};

/// Canonical journal path for a shard, under the trace directory.
std::string JournalPathFor(const std::string& trace_dir, uint32_t shard_index,
                           uint32_t shard_count);

/// Compact wire form of a race list (the journal's bucket-record layout),
/// shared with the serve ledger so both sides replay races byte-for-byte
/// through one serializer.
void SerializeRaceList(const std::vector<RaceReport>& races, ByteWriter& w);
Status ParseRaceList(ByteReader& r, uint64_t payload_bound,
                     std::vector<RaceReport>* out);

/// Appends bucket records to a journal file. Append failures are counted,
/// not fatal: a bucket whose record never landed is re-analyzed on resume,
/// so a full disk degrades checkpoint granularity, not correctness.
class JournalWriter {
 public:
  /// Starts a fresh journal: atomically writes the header (temp + rename),
  /// truncating any previous journal at `path`. `backend` is the write
  /// layer (null = real filesystem); the serve daemon injects a fault
  /// backend here so ENOSPC-on-journal chaos is reproducible.
  static Result<JournalWriter> Create(const std::string& path,
                                      const JournalHeader& header,
                                      FileBackend* backend = nullptr);

  /// Continues an existing journal after a successful Load: truncates the
  /// torn tail (if any) at `valid_bytes`, then appends after it.
  static Result<JournalWriter> Continue(const std::string& path,
                                        uint64_t valid_bytes,
                                        FileBackend* backend = nullptr);

  Status AppendBucket(const JournalBucketRecord& record);

  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t write_failures() const { return write_failures_; }
  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::string path, FileBackend* backend)
      : path_(std::move(path)), backend_(backend) {}

  std::string path_;
  FileBackend* backend_;  // never null after Create/Continue
  uint64_t bytes_appended_ = 0;
  uint64_t write_failures_ = 0;
};

/// Parses a journal file: header first, then bucket records until the file
/// ends or a record fails its frame checks (torn tail - everything after is
/// dropped and counted). Fails only when the file is missing/unreadable or
/// the HEADER is invalid; damaged bucket records degrade, not fail.
Result<JournalLoadResult> LoadJournal(const std::string& path);

}  // namespace sword::offline
