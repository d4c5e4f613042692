// Loading of a SWORD trace directory (one .log + .meta pair per thread) into
// the structures the analyzer walks.
//
// Two opening disciplines:
//  - strict (default): any damage - corrupt frame, missing file, meta record
//    pointing past the log - fails the open. Right for tests and CI.
//  - salvage (StoreOptions::salvage): the production-postmortem mode. Logs
//    are opened with the reader's salvage policy (resynchronize past
//    corruption), metas tolerate a torn tail, missing files are counted
//    instead of fatal, and implausible meta records are rejected
//    individually. Everything recovered is analyzable; everything lost is
//    accounted for in TraceIntegrity.
//
// Meta records are validated against the log with the same distrust applied
// to frame headers: a record whose claimed byte range or event count cannot
// fit the log it points into is rejected (strict: the whole open fails)
// rather than trusted downstream. In salvage mode a range that merely runs
// past the log's end is KEPT - that is the expected shape of a killed run,
// and the reader clamps and accounts for the missing tail at stream time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/meta.h"
#include "trace/reader.h"

namespace sword::offline {

struct StoreOptions {
  bool salvage = false;
};

/// Aggregate damage report for a store (all threads). All zero / false for a
/// healthy strict open.
struct TraceIntegrity {
  bool salvaged = false;  // store was opened in salvage mode
  // From the log readers (sums over threads; see trace::SalvageStats).
  uint64_t frames_ok = 0;
  uint64_t frames_corrupt = 0;
  uint64_t frames_unaddressable = 0;
  uint64_t gap_frames = 0;
  uint64_t events_dropped_at_record = 0;
  uint64_t bytes_dropped_at_record = 0;
  uint64_t resyncs = 0;
  uint64_t bytes_skipped = 0;
  uint64_t truncated_tail_bytes = 0;
  // From the meta files.
  uint64_t meta_records_dropped = 0;   // lost to a torn meta tail
  uint64_t meta_records_rejected = 0;  // failed plausibility validation
  uint64_t threads_missing_meta = 0;
  uint64_t threads_missing_log = 0;
  // Fatal-signal sealing. A sealed run is NOT damage: the sealer's whole
  // point is that everything recorded up to the crash is trustworthy. The
  // report surfaces it so nobody mistakes a sealed trace for a full run.
  bool crash_sealed = false;   // any thread's meta carries the sealed flag
  uint8_t crash_signo = 0;     // the sealing signal (last nonzero seen)
  uint64_t crash_markers = 0;  // in-band "SWCR" markers across all logs
  // Degradation-governor loss (sums over threads' v5 metas). Unlike a
  // crash seal this IS loss - shed accesses mean races can be missed (never
  // invented) - so it participates in clean().
  uint64_t degraded_dropped = 0;         // accesses shed by the governor
  uint64_t degradation_transitions = 0;  // recorded level changes
  // Static pre-filter accounting (sums over threads' v6 metas), nonzero
  // only in traces from versions that had a pre-filter. Elided accesses
  // are NOT loss: that writer appended compact footprint receipts that
  // make the decoded stream address-equivalent to the uninstrumented one,
  // so elision never participates in clean(). elided_lost counts elided
  // accesses whose receipts could NOT be written (no open segment at flush
  // time) - that IS loss and is folded into clean().
  uint64_t elided_accesses = 0;
  uint64_t elided_lost = 0;

  bool clean() const {
    return frames_corrupt == 0 && frames_unaddressable == 0 &&
           gap_frames == 0 && resyncs == 0 && bytes_skipped == 0 &&
           truncated_tail_bytes == 0 && events_dropped_at_record == 0 &&
           meta_records_dropped == 0 && meta_records_rejected == 0 &&
           threads_missing_meta == 0 && threads_missing_log == 0 &&
           degraded_dropped == 0 && elided_lost == 0;
  }
};

/// One thread's collected data: its parsed meta file and an open streaming
/// reader over its log file.
struct ThreadTrace {
  uint32_t tid = 0;
  trace::MetaFile meta;
  std::unique_ptr<trace::LogReader> log;
  trace::SalvageStats salvage;  // what salvage found in THIS thread's log
};

class TraceStore {
 public:
  /// Opens pairwise (log_paths[i], meta_paths[i]). An empty meta path means
  /// "known missing" (salvage mode only).
  static Result<TraceStore> Open(const std::vector<std::string>& log_paths,
                                 const std::vector<std::string>& meta_paths,
                                 const StoreOptions& options = {});

  /// Opens every sword_t<k>.{log,meta} pair in `dir`, k = 0,1,2,...
  /// In salvage mode a missing meta (or log) does not stop the enumeration.
  static Result<TraceStore> OpenDir(const std::string& dir,
                                    const StoreOptions& options = {});

  const std::vector<ThreadTrace>& threads() const { return threads_; }
  size_t thread_count() const { return threads_.size(); }

  /// Damage found while opening (all zeroes for a clean trace).
  const TraceIntegrity& integrity() const { return integrity_; }

  uint64_t TotalIntervals() const;
  uint64_t TotalLogBytes() const;  // compressed, on disk

 private:
  std::vector<ThreadTrace> threads_;
  TraceIntegrity integrity_;
};

}  // namespace sword::offline
