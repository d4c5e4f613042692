// The serve daemon's durable memory: one append-only file of finished-run
// verdicts under the state directory.
//
// Restart recovery is the whole point. A daemon that is kill -9'd
// mid-aggregation comes back, replays the ledger, and its aggregate equals
// what it was - byte-identical per-run verdicts - because each record holds
// the run's complete canonical outcome (race list in the journal's wire
// form via SerializeRaceList, status, trace fingerprint, quarantine
// reason). Runs recorded here are never re-analyzed on restart unless
// their trace fingerprint changed.
//
// The file is a common/record_log.h record log, like the analysis journal:
// a record torn by mid-append death fails its checksum, is dropped on load
// with accounting, and its run is simply re-analyzed after restart. Appends
// go through the injected FileBackend so the chaos harness can ENOSPC the
// ledger deterministically - a failed append degrades restart granularity,
// never correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fsutil.h"
#include "common/record_log.h"
#include "common/status.h"
#include "serve/aggregate.h"

namespace sword::serve {

constexpr uint32_t kLedgerHeaderMagic = 0x53575348;  // "SWSH"
constexpr uint32_t kLedgerRunMagic = 0x53575352;     // "SWSR"
constexpr uint8_t kLedgerVersion = 1;

/// One finished run: its verdict plus how it finished. quarantine != 0
/// means the run was contained, not analyzed; its race list is empty.
struct LedgerRecord {
  RunVerdict verdict;
  std::string dir;         // trace directory (restart re-registration)
  uint8_t quarantine = 0;  // QuarantineReason ordinal, 0 = clean finish
};

struct LedgerLoadResult {
  std::vector<LedgerRecord> records;  // valid records, file order
  uint64_t valid_bytes = 0;           // prefix covered by valid records
  uint64_t records_dropped = 0;       // torn/corrupt tail records discarded
};

/// Parses a ledger file. Fails only when the file is unreadable or the
/// header is invalid; damaged run records degrade with accounting.
Result<LedgerLoadResult> LoadLedger(const std::string& path);

class LedgerWriter {
 public:
  /// Opens `path` for appending: creates it (atomic header write) when
  /// absent, otherwise truncates any torn tail at `valid_bytes` from a
  /// prior Load. `backend` null = real filesystem.
  static Result<LedgerWriter> Open(const std::string& path,
                                   uint64_t valid_bytes,
                                   FileBackend* backend = nullptr);

  /// Appends one finished run. Failures are counted, not fatal: a missing
  /// record only means that run is re-analyzed after a restart.
  Status Append(const LedgerRecord& record);

  uint64_t append_failures() const { return log_.append_failures(); }
  const std::string& path() const { return log_.path(); }

 private:
  explicit LedgerWriter(RecordLog log) : log_(std::move(log)) {}

  RecordLog log_;
};

}  // namespace sword::serve
