// Deterministic fault-injecting FileBackend for tests and chaos runs.
//
// FaultFile wraps another backend (the real filesystem by default) and
// injects failures keyed on the cumulative number of bytes appended through
// it or on call numbers — not on wall-clock time — so every fault test is
// exactly reproducible. The byte-stream and call-numbered write faults
// below see only appends to non-meta files: an append to a `*.meta` path,
// like a whole-file write, gets only the transient knob, and is not counted
// in bytes_written() or append_calls(). Write-path faults:
//   - TransientErrors(k): next k Append calls fail with kUnavailable before
//     writing anything (EINTR/EAGAIN simulation; exercises retry).
//   - ShortWrites(max): each Append call writes at most `max` bytes,
//     reporting the short count (exercises continue-from-prefix logic).
//   - EnospcAfterBytes(n): appends succeed until the cumulative stream
//     offset reaches n, then fail with kNoSpace after writing the prefix
//     that still fits (exercises drop-with-accounting).
//   - EnospcAppends(from, count): an ENOSPC *storm*: append CALLS numbered
//     [from, from+count) (1-based) fail with kNoSpace writing nothing, then
//     the disk "clears" and later appends succeed — the shape that drives
//     the degradation governor down and back up.
//   - FailAfterBytes(n, code): like EnospcAfterBytes but with an arbitrary
//     error code, and the failing call writes nothing past offset n.
//   - FlipBit(offset, mask): XORs `mask` into the byte at stream offset
//     `offset` as it passes through (silent corruption).
//   - TruncateAfterBytes(n): bytes past stream offset n are reported as
//     written but never reach the file (crash-style torn tail: the process
//     believed the write happened).
//   - SlowAppends(usec, from, count): append calls [from, from+count) sleep
//     `usec` before touching the base backend (slow/hung device; drives the
//     flusher's latency EWMA and the enqueue watchdog).
//   - SyncTransientErrors(k): next k Sync calls fail with kUnavailable
//     (EINTR on fsync; exercises the unified retry helper).
//   - RaiseAtAppend(signo, nth): delivers `signo` to the calling thread at
//     the start of the nth append (1-based) — crash exactly at a chosen I/O
//     point, for the fatal-signal sealing tests.
// Read-path faults, numbered by ReadWhole calls (1-based; Size and Exists
// probes pass through uncounted, so a test can aim faults at data reads):
//   - TransientReads(k): next k reads fail with kUnavailable.
//   - FailReads(from, count): reads [from, from+count) fail with kIoError.
//   - SlowReads(usec, from, count): reads [from, from+count) that do not
//     fail sleep `usec` first.
// All knobs compose; Reset() clears them and the counters.
//
// FaultPlan packages a set of knobs as a replayable one-line spec (the
// `--fault-plan` flag): semicolon/comma-separated ops, e.g.
//   "transient=3;short=512;enospc@8192"
//   "slow=2000@4+16;enospc_calls@6+10"
//   "raise=segv@5"    "seed=42"
// `seed=N` expands deterministically into a pseudo-random combination of the
// other ops, so a CI sweep can explore plans while any failure replays from
// the plan string alone.
//
// Read-side ops — `read_transient=K`, `read_fail@FROM+COUNT`,
// `read_slow=USEC@FROM+COUNT` — ride in the same plan string. Only the
// serve daemon's ingest reads through the backend, so they are the faults
// its `--fault-plan` aims at trace reads; they are not FaultKind bits, and
// a plan's kinds() stays the write-path faults a chaos run must see fire.
// A number that does not fit its field, and a FROM+COUNT window whose end
// passes 2^64, make the op invalid.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/fsutil.h"

namespace sword {
namespace testing {

/// One bit per kind of write-path fault, for FaultFile::fired() and
/// FaultPlan::kinds(): a chaos run can check that every fault its plan names
/// took effect, instead of passing on a trace too small to reach it.
enum FaultKind : uint32_t {
  kFaultTransient = 1u << 0,
  kFaultShortWrite = 1u << 1,
  kFaultFailAtBytes = 1u << 2,  // EnospcAfterBytes and FailAfterBytes
  kFaultEnospcStorm = 1u << 3,
  kFaultTruncate = 1u << 4,
  kFaultFlip = 1u << 5,
  kFaultSlow = 1u << 6,
  kFaultSyncTransient = 1u << 7,
  kFaultRaise = 1u << 8,
  kFaultAllocFail = 1u << 9,  // delivered by the BufferPool, not FaultFile
};

class FaultFile final : public FileBackend {
 public:
  explicit FaultFile(FileBackend* base = nullptr)
      : base_(base ? base : &RealFileBackend()) {}

  // --- knobs (call before the writes they should affect) ---
  void TransientErrors(uint32_t count);
  void ShortWrites(size_t max_bytes_per_call);
  void EnospcAfterBytes(uint64_t n);
  void EnospcAppends(uint64_t from_call, uint64_t count);
  void FailAfterBytes(uint64_t n, ErrorCode code);
  void FlipBit(uint64_t stream_offset, uint8_t mask);
  void TruncateAfterBytes(uint64_t n);
  void SlowAppends(uint32_t usec, uint64_t from_call, uint64_t count);
  void SyncTransientErrors(uint32_t count);
  void RaiseAtAppend(int signo, uint64_t nth_call);
  void TransientReads(uint32_t count);
  void FailReads(uint64_t from_call, uint64_t count);
  void SlowReads(uint32_t usec, uint64_t from_call, uint64_t count);
  void Reset();

  /// Cumulative bytes the caller believes were appended (includes bytes
  /// swallowed by TruncateAfterBytes).
  uint64_t bytes_written() const;
  /// Bytes silently dropped by TruncateAfterBytes.
  uint64_t bytes_lost() const;
  /// Non-meta append calls observed (successful or not).
  uint64_t append_calls() const;
  /// FaultKind bits of the write-path faults that took effect at least once.
  uint32_t fired() const;
  /// ReadWhole calls observed, and the transient and hard read failures
  /// injected into them.
  uint64_t read_calls() const;
  uint64_t read_transients_injected() const;
  uint64_t read_failures_injected() const;

  // --- FileBackend ---
  Status Append(const std::string& path, const uint8_t* data, size_t n,
                size_t* written) override;
  Status WriteWhole(const std::string& path, const Bytes& data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Sync(const std::string& path) override;
  Result<Bytes> ReadWhole(const std::string& path) override;
  Result<uint64_t> Size(const std::string& path) override;
  bool Exists(const std::string& path) override;

 private:
  struct BitFlip {
    uint64_t offset;
    uint8_t mask;
  };

  /// Consumes one transient error for `path` if any are left: the only
  /// fault meta appends and whole-file writes see.
  Status TransientOnly(const std::string& path);

  FileBackend* base_;
  mutable std::mutex mu_;
  uint32_t transient_left_ = 0;
  size_t short_write_max_ = 0;       // 0 = off
  uint64_t fail_at_ = UINT64_MAX;    // cumulative-offset threshold
  ErrorCode fail_code_ = ErrorCode::kNoSpace;
  uint64_t storm_from_ = 0;          // ENOSPC storm window (append calls)
  uint64_t storm_count_ = 0;
  uint64_t truncate_at_ = UINT64_MAX;
  uint32_t slow_usec_ = 0;           // slow-append window (append calls)
  uint64_t slow_from_ = 0;
  uint64_t slow_count_ = 0;
  uint32_t sync_transient_left_ = 0;
  int raise_signo_ = 0;              // signal at the nth append call
  uint64_t raise_at_call_ = 0;
  std::vector<BitFlip> flips_;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_lost_ = 0;
  uint64_t append_calls_ = 0;
  uint32_t fired_ = 0;
  uint32_t read_transient_left_ = 0;
  uint64_t read_fail_from_ = 0, read_fail_count_ = 0;
  uint32_t read_slow_usec_ = 0;
  uint64_t read_slow_from_ = 0, read_slow_count_ = 0;
  uint64_t read_calls_ = 0;
  uint64_t read_transients_injected_ = 0;
  uint64_t read_failures_injected_ = 0;
};

/// A parsed `--fault-plan`. Backend faults apply to a FaultFile; the pool
/// fault applies to the flusher's BufferPool (allocation failure at the Nth
/// acquire) — both deterministic, so any plan replays exactly.
struct FaultPlan {
  std::string spec;  // the original string (the replay artifact)

  uint32_t transient = 0;
  uint32_t sync_transient = 0;
  size_t short_writes = 0;
  uint64_t enospc_after_bytes = UINT64_MAX;
  uint64_t io_fail_after_bytes = UINT64_MAX;
  uint64_t storm_from = 0, storm_count = 0;
  uint64_t truncate_after_bytes = UINT64_MAX;
  uint64_t flip_offset = UINT64_MAX;
  uint8_t flip_mask = 0;
  uint32_t slow_usec = 0;
  uint64_t slow_from = 0, slow_count = 0;
  int raise_signo = 0;
  uint64_t raise_at_call = 0;
  /// Pool acquire calls [from, from+count) (1-based) fail (empty buffer).
  uint64_t alloc_fail_from = 0, alloc_fail_count = 0;

  // --- Read-side faults. Call numbering counts FaultFile::ReadWhole calls
  // (the serve daemon's ingest reads), 1-based, like the append windows.
  /// Next `read_transient` read calls fail with kUnavailable (retryable).
  uint32_t read_transient = 0;
  /// Read calls [from, from+count) fail hard with kIoError.
  uint64_t read_fail_from = 0, read_fail_count = 0;
  /// Read calls [from, from+count) sleep `read_slow_usec` first.
  uint32_t read_slow_usec = 0;
  uint64_t read_slow_from = 0, read_slow_count = 0;

  /// Applies every backend-level fault, read and write, to `file`.
  void ApplyTo(FaultFile& file) const;
  /// FaultKind bits of the write-path faults this plan injects.
  uint32_t kinds() const;

  bool empty() const { return spec.empty(); }
};

/// Parses a fault-plan spec (see the header comment for the grammar).
/// `seed=N` ops expand into a deterministic combination derived from N.
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

}  // namespace testing
}  // namespace sword
