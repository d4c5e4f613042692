// The append-only record log that the analysis journal, the serve verdict
// ledger and the trace meta file (SWM7) are all written as: one header
// record, then records appended one at a time.
//
// Every record is framed the way the trace log frames blocks
// (compress/frame.h idiom):
//
//   magic (u32) | payload size (varu64) | fnv1a64(payload) (u64) | payload
//
// The checksum is validated before any payload byte is trusted, so a record
// torn by mid-append death never half-applies: the loader returns the valid
// prefix, and counts the tail it dropped. The header is written once with
// write-temp + rename, so creation is all-or-nothing. Appends go through a
// FileBackend; AppendWithRetry rolls a failed append back to the file's
// previous size, so a full disk costs the record, never the records after
// it. The owners (offline/journal.h, serve/ledger.h, trace/meta.h) only
// encode and parse payloads.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/function_ref.h"
#include "common/status.h"

namespace sword {

/// What tells one record-log file type from another.
struct RecordLogFormat {
  const char* name;       // "journal", "ledger": prefixes error messages
  uint32_t header_magic;  // the first record's magic
  uint32_t record_magic;  // every later record's magic
};

/// Appends one framed record (magic | size | checksum | payload) to `out`.
void FrameRecord(uint32_t magic, const Bytes& payload, ByteWriter& out);

struct RecordLogLoad {
  uint64_t valid_bytes = 0;      // prefix length covered by valid records
  uint64_t records_dropped = 0;  // torn/corrupt tail records discarded
};

/// Walks the record log held in `data`: the header payload goes to
/// `header`, then each record payload to `record`, in order, until the bytes
/// end or a record fails its frame checks or `record` rejects it. That
/// record and everything after it are dropped and counted. Fails only when
/// the header frame is damaged (kCorruptData) or `header` rejects its
/// payload (that status).
Result<RecordLogLoad> WalkRecordLog(const Bytes& data,
                                    const RecordLogFormat& format,
                                    FunctionRef<Status(const Bytes&)> header,
                                    FunctionRef<Status(const Bytes&)> record);

/// WalkRecordLog over the file at `path`; also fails when it is unreadable.
Result<RecordLogLoad> LoadRecordLog(const std::string& path,
                                    const RecordLogFormat& format,
                                    FunctionRef<Status(const Bytes&)> header,
                                    FunctionRef<Status(const Bytes&)> record);

/// Appends framed records to one record-log file. Append failures are
/// counted and returned, never fatal to the owner: a record that never
/// landed only costs what it would have saved.
class RecordLog {
 public:
  /// Starts a fresh log: atomically writes the header record (temp +
  /// rename), replacing any previous file at `path`. `backend` is the write
  /// layer (null = real filesystem).
  static Result<RecordLog> Create(const std::string& path,
                                  const RecordLogFormat& format,
                                  const Bytes& header,
                                  FileBackend* backend = nullptr);

  /// Continues an existing log after a successful load: truncates the torn
  /// tail (if any) at `valid_bytes`, then appends after it.
  static Result<RecordLog> Continue(const std::string& path,
                                    const RecordLogFormat& format,
                                    uint64_t valid_bytes,
                                    FileBackend* backend = nullptr);

  Status Append(const Bytes& payload);

  /// Bytes this writer put in the file (the header, when it created it).
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t append_failures() const { return append_failures_; }
  const std::string& path() const { return path_; }

 private:
  RecordLog(std::string path, uint32_t record_magic, FileBackend* backend)
      : path_(std::move(path)), record_magic_(record_magic), backend_(backend) {}

  std::string path_;
  uint32_t record_magic_;
  FileBackend* backend_;  // never null after Create/Continue
  uint64_t bytes_appended_ = 0;
  uint64_t append_failures_ = 0;
};

}  // namespace sword
