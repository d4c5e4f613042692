// Filesystem helpers for the trace log/meta files: whole-file read/write, a
// pluggable file backend (so tests can inject I/O faults below the flush
// pipeline, the journal, the serve ledger and ingest), crash-consistent
// atomic file replacement, and a self-cleaning temporary directory for tests
// and benches.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace sword {

/// The raw file layer the trace pipeline, the journal, the serve ledger and
/// the serve daemon's ingest sit on. One implementation talks to the real
/// filesystem; sword::testing::FaultFile wraps it to inject deterministic
/// failures (ENOSPC, EINTR, short writes, bit flips, crash-style truncation,
/// failed and slow reads). Methods are single-attempt: transient errors
/// (kUnavailable) and short writes are reported to the caller, which owns
/// the retry policy - that keeps retries testable instead of buried.
class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Appends up to `n` bytes to `path`, creating it if needed. `*written`
  /// (required) receives how many bytes actually reached the file, which on
  /// failure may be any prefix of `n` - exactly the short-write case a
  /// crashed or signal-interrupted writer leaves behind. Error codes:
  /// kUnavailable = transient (EINTR/EAGAIN), retry; kNoSpace = ENOSPC.
  virtual Status Append(const std::string& path, const uint8_t* data, size_t n,
                        size_t* written) = 0;

  /// Replaces `path`'s contents wholesale (truncate + write).
  virtual Status WriteWhole(const std::string& path, const Bytes& data) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Truncates `path` to `size` bytes. AppendWithRetry uses this to roll
  /// back a partial append so a failed record never leaves a torn tail.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// Flushes `path`'s data to stable storage (fsync). kUnavailable =
  /// transient (EINTR), retry.
  virtual Status Sync(const std::string& path) = 0;

  /// Reads all of `path`. kUnavailable = transient, retry; other codes are
  /// hard failures.
  virtual Result<Bytes> ReadWhole(const std::string& path) = 0;

  /// `path`'s size in bytes.
  virtual Result<uint64_t> Size(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;
};

/// The process-wide real-filesystem backend.
FileBackend& RealFileBackend();

/// Retry policy for transient append failures. Retries apply to
/// kUnavailable errors and to short writes (continuing from the written
/// prefix); kNoSpace and hard I/O errors are surfaced immediately.
struct RetryPolicy {
  uint32_t max_attempts = 5;   // total attempts, including the first
  uint32_t backoff_us = 200;   // base backoff; doubles per retry, capped
  uint32_t max_backoff_us = 10 * 1000;
};

struct AppendOutcome {
  Status status;
  /// Bytes that reached the file; on failure, the prefix that landed
  /// before it was rolled back.
  size_t written = 0;
  uint32_t retries = 0; // extra attempts beyond the first
};

/// The ONE transient-failure retry loop every backend interaction in the
/// flush pipeline goes through (append, fsync): tracks attempts against
/// `policy`, sleeps the bounded exponential backoff between them, and counts
/// the retries it granted. Historically the write path had this logic inline
/// while fsync/close handled EINTR ad hoc; unifying them here is what makes
/// the retry counters in FlusherStats mean the same thing everywhere.
class TransientRetry {
 public:
  explicit TransientRetry(const RetryPolicy& policy) : policy_(policy) {}

  /// Returns true if `status` is transient (kUnavailable) and the attempt
  /// budget allows another try; sleeps the current backoff before returning.
  bool ShouldRetry(const Status& status);

  uint32_t retries() const { return retries_; }

 private:
  const RetryPolicy policy_;
  uint32_t attempts_ = 0;
  uint32_t retries_ = 0;
  uint32_t backoff_us_ = 0;  // initialized from policy on first retry
};

/// Appends with retry-on-transient-failure per `policy`. Short successful
/// writes continue from the written prefix without consuming an attempt's
/// backoff. Gives up with the last error once attempts are exhausted, and
/// then truncates the file back to the size the backend reported before the
/// append: a torn record would cost a reader every record after it, which
/// is far worse than the one record lost.
AppendOutcome AppendWithRetry(FileBackend& backend, const std::string& path,
                              const uint8_t* data, size_t n,
                              const RetryPolicy& policy = {});

struct SyncOutcome {
  Status status;
  uint32_t retries = 0;  // extra attempts beyond the first
};

/// backend.Sync(path) through the same TransientRetry loop as the append
/// path (EINTR on fsync retries with bounded exponential backoff). Note
/// close(2) is deliberately NOT retried anywhere: on Linux the descriptor is
/// freed even when close fails with EINTR, so a retry could close an
/// unrelated freshly-opened descriptor.
SyncOutcome SyncWithRetry(FileBackend& backend, const std::string& path,
                          const RetryPolicy& policy = {});

/// Crash-consistent whole-file replacement: writes `path`.tmp, then renames
/// it over `path`. A reader (or a rebooted machine) sees either the old or
/// the new contents, never a torn mix - this is how the record logs
/// (journal, ledger, trace meta) create their header record.
Status WriteFileAtomic(const std::string& path, const Bytes& data,
                       FileBackend* backend = nullptr);

Status WriteFile(const std::string& path, const Bytes& data);
Status AppendFile(const std::string& path, const uint8_t* data, size_t n);
Result<Bytes> ReadFileBytes(const std::string& path);
/// Reads n bytes starting at byte `offset`; fails if the range is past EOF.
Result<Bytes> ReadFileRange(const std::string& path, uint64_t offset, uint64_t n);
Result<uint64_t> FileSize(const std::string& path);
bool FileExists(const std::string& path);
Status RemoveFile(const std::string& path);
/// Truncates the file to `n` bytes (crash/corruption simulation in tests).
Status TruncateFile(const std::string& path, uint64_t n);

/// Creates `path` and any missing parents; ok if it already exists.
Status MakeDirs(const std::string& path);

/// Creates a unique directory under the system temp dir; removes it (and all
/// contents) on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "sword");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace sword
