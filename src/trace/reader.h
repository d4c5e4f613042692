// Streaming log-file reader (paper SIII-B).
//
// Log files can be far larger than memory; the analyzer therefore never loads
// one wholesale. On open, the reader scans only the frame HEADERS to build an
// index mapping logical (decompressed) offsets to file offsets. Reading an
// interval's byte range then decompresses just the overlapping frames, one at
// a time, and hands the visitor their events a block at a time - the paper's
// "streaming algorithm that reads access information from log files in small
// chunks".
//
// Frames self-tag their payload format (the frame magic, see
// compress/frame.h): v1 frames hold fixed 16-byte events and can be sliced
// at any event boundary; v2/v3 frames hold delta-coded variable-length
// events whose decoder state starts fresh at the frame boundary, so a
// mid-frame range is served by decoding from the frame start (or a saved
// DecodeCursor) and discarding the prefix. Either way events are decoded a
// block at a time into a stack buffer and handed on as spans. One file may
// mix formats; the reader dispatches per frame.
//
// One walk indexes every log: it parses each frame header through
// compress/frame's ParseFrameHeader from a small window and never holds more
// than one frame. Strict mode (the default) reads no payload at open and
// fails at the first defect. Salvage mode (SalvagePolicy) - for a run killed
// mid-flush or a disk that flipped bits - also checks each payload checksum
// and RESYNCHRONIZES instead of failing: on a bad header, checksum mismatch,
// or truncated tail it scans forward for the next frame magic and keeps
// indexing, recording what it skipped in SalvageStats. The offset-trust
// rules (docs/FORMAT.md) decide whether the frames after a hole still have
// known logical offsets: a corrupt frame whose claimed size lands on a valid
// next frame keeps the logical stream addressable (known-size hole); an
// unparseable header does not, and every frame after it becomes
// "unaddressable" - decodable for sword-dump --verify but excluded from
// interval reads. `sword-dump --verify` is the same salvage walk, reported
// frame by frame.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/status.h"
#include "trace/event.h"

namespace sword::trace {

/// Bounded LRU cache of decompressed frames. A frame typically holds MANY
/// barrier intervals (128K events per 2 MB frame vs a few hundred events per
/// interval in region-heavy programs like LULESH); without a cache every
/// interval read would decompress its whole frame again. The byte cap keeps
/// a long analysis from retaining every frame it ever touched - the cache
/// holds a few frames, not the trace. One cache per analyzer thread keeps
/// reads lock-free; entries are keyed by (reader identity, frame offset) so
/// one cache may serve several threads' logs.
class FrameCache {
 public:
  /// Default cap: a handful of 2 MB frames.
  static constexpr size_t kDefaultMaxBytes = 8 * 1024 * 1024;

  explicit FrameCache(size_t max_bytes = kDefaultMaxBytes) : max_bytes_(max_bytes) {}

  /// Returns the cached decompressed frame, bumping it to most-recent, or
  /// null. Counts a hit on success (the caller counts the miss via Insert).
  const Bytes* Lookup(const void* reader, uint64_t logical_begin);

  /// Inserts a decompressed frame (evicting least-recently-used entries past
  /// the byte cap; the newest entry always stays) and returns a pointer to
  /// the cached copy, valid until the next Lookup/Insert.
  const Bytes* Insert(const void* reader, uint64_t logical_begin, Bytes data);

  size_t entry_count() const { return entries_.size(); }
  size_t byte_size() const { return bytes_; }
  size_t max_bytes() const { return max_bytes_; }

  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  struct Entry {
    const void* reader;
    uint64_t logical_begin;
    Bytes data;
  };

  size_t max_bytes_;
  size_t bytes_ = 0;
  std::list<Entry> entries_;  // front = most recently used
};

/// How to treat damage found while opening/streaming a log.
struct SalvagePolicy {
  /// Off (default): any corruption fails the open/read - the right behavior
  /// for tests and healthy traces. The open checks every header and reads
  /// no payload; a payload bit flip fails the first read that touches it.
  /// On: the open also verifies every payload checksum, then resynchronizes
  /// past damage and keeps going, accounting for every byte skipped.
  bool enabled = false;
};

/// What salvage found (all zero for a clean log).
struct SalvageStats {
  uint64_t frames_ok = 0;
  uint64_t frames_corrupt = 0;           // bad header/checksum regions
  uint64_t frames_unaddressable = 0;     // parseable but logical offset unknown
  uint64_t gap_frames = 0;               // record-time drop markers seen
  uint64_t events_dropped_at_record = 0; // from gap frames
  uint64_t bytes_dropped_at_record = 0;  // logical bytes, from gap frames
  uint64_t resyncs = 0;                  // forward scans for the next magic
  uint64_t bytes_skipped = 0;            // file bytes passed over by resyncs
  uint64_t truncated_tail_bytes = 0;     // incomplete final frame
  /// In-band fatal-signal crash markers ("SWCR") seen. A marker is honest
  /// evidence, not damage: it occupies zero logical bytes and does not make
  /// the log unclean — the trace simply ENDS there.
  uint64_t crash_markers = 0;
  uint8_t crash_signo = 0;               // signo of the last marker seen

  bool clean() const {
    return frames_corrupt == 0 && frames_unaddressable == 0 &&
           gap_frames == 0 && resyncs == 0 && bytes_skipped == 0 &&
           truncated_tail_bytes == 0;
  }
};

/// One frame (or damaged region) seen by the log walk, in file order.
struct FrameRecord {
  uint64_t index = 0;        // ordinal in the walk
  uint64_t file_offset = 0;
  uint64_t encoded_size = 0; // on-disk bytes (skipped bytes for bad regions)
  uint64_t raw_size = 0;     // decompressed size (0 if unknown)
  uint8_t payload_format = 0;  // kTraceFormatV*; 0 for gaps/unknown
  std::string codec;
  bool is_gap = false;
  uint64_t dropped_events = 0;
  bool is_crash = false;        // fatal-signal crash marker ("SWCR")
  uint8_t crash_signo = 0;
  bool offset_trusted = false;  // logical_begin is meaningful
  uint64_t logical_begin = 0;
  Status status;  // ok, or why the frame is corrupt
};

/// Resumable decode position inside one delta-coded (v2/v3) frame. The
/// codec state is only valid from a frame's start, so a plain StreamRange
/// re-decodes the frame's prefix on every call - quadratic when many small
/// segments share one frame. A caller that walks a log in mostly-ascending
/// order (the offline streaming build) threads one cursor through its calls
/// instead: each call resumes where the previous one stopped and only
/// re-decodes from the frame start when the walk jumps backwards.
struct DecodeCursor {
  uint64_t frame_begin = 0;  // logical_begin of the frame the state is for
  uint64_t pos = 0;          // logical position the state is valid at
  uint64_t byte_offset = 0;  // offset into the decompressed frame at `pos`
  EventCodecState state;
  bool valid = false;
};

class LogReader {
 public:
  /// Walks the frame headers and builds the offset index. The default
  /// (strict) policy fails on a corrupt header or truncated file; with
  /// salvage enabled it also verifies payloads and resynchronizes past
  /// damage instead, recording it in salvage_stats().
  static Result<LogReader> Open(const std::string& path,
                                const SalvagePolicy& policy = {});

  /// Decompresses the frames covering logical range [begin, begin+size) and
  /// hands their events to `fn` in order, up to kDecodeBlockEvents at a
  /// time, as DecodeDeltaBlock decodes them. At most one decompressed frame
  /// is held in memory at a time. With `cache`, frames decompressed by
  /// previous calls (through the same cache) are reused. With `cursor`, a
  /// delta-coded frame resumes decoding from the cursor's position when the
  /// range starts at or after it (see DecodeCursor); event output and error
  /// behavior are identical either way.
  ///
  /// A range edge inside an event is an error ("range not event-aligned"),
  /// as is a decode error; either way the events before it are delivered
  /// first. In strict mode a range touching a hole (corrupt frame,
  /// record-time gap, truncated tail) is an error. In salvage mode the
  /// hole's overlap is added to `*bytes_skipped` (when provided) and
  /// streaming continues with the surviving frames.
  Status StreamBlocks(uint64_t begin, uint64_t size,
                      FunctionRef<void(std::span<const RawEvent>)> fn,
                      FrameCache* cache = nullptr,
                      uint64_t* bytes_skipped = nullptr,
                      DecodeCursor* cursor = nullptr) const;

  /// StreamBlocks, one event per call of `fn`.
  Status StreamRange(uint64_t begin, uint64_t size,
                     FunctionRef<void(const RawEvent&)> fn,
                     FrameCache* cache = nullptr,
                     uint64_t* bytes_skipped = nullptr,
                     DecodeCursor* cursor = nullptr) const;

  /// Convenience: materializes a range (tests, small intervals).
  Status ReadRange(uint64_t begin, uint64_t size, std::vector<RawEvent>* out) const;

  /// The salvage walk of Open, reported: calls `fn` per frame (and per
  /// damaged region) in file order; the records tile the file. Never fails
  /// on corruption - damage is reported in the records and the returned
  /// stats, which equal Open(path, salvage).salvage_stats(). Powers
  /// `sword-dump --verify`.
  static Result<SalvageStats> VerifyLog(const std::string& path,
                                        FunctionRef<void(const FrameRecord&)> fn);

  uint64_t total_logical_bytes() const { return total_logical_; }
  size_t frame_count() const { return frames_.size(); }

  /// Sum of the encoded (on-disk) sizes of the intact frames overlapping
  /// logical range [begin, begin+size). A frame shared by several ranges
  /// counts fully toward each - this reports what the decoder must touch to
  /// stream the range, not an exclusive allocation. Powers
  /// `sword-dump --segments`' compression-ratio column.
  uint64_t CompressedBytesForRange(uint64_t begin, uint64_t size) const;
  const SalvageStats& salvage_stats() const { return stats_; }
  bool salvage_enabled() const { return policy_.enabled; }

 private:
  enum class FrameState : uint8_t {
    kOk,       // intact, streamable
    kCorrupt,  // known-size hole: checksum failed but the size is trusted
    kGap,      // record-time drop marker: events never reached the disk
    kCrash,    // fatal-signal crash marker: zero logical bytes, trace ends
  };

  struct FrameIndex {
    uint64_t logical_begin;  // first logical byte in this frame
    uint64_t raw_size;       // decompressed size (hole size for kCorrupt/kGap)
    uint64_t file_offset;    // where the frame starts in the file
    uint64_t file_size;      // encoded frame size
    uint8_t payload_format;  // event encoding (kTraceFormatV*)
    FrameState state;
  };

  LogReader() = default;

  std::string path_;
  std::vector<FrameIndex> frames_;
  uint64_t total_logical_ = 0;
  SalvagePolicy policy_;
  SalvageStats stats_;
};

}  // namespace sword::trace
