// Per-thread meta-data file (paper Table I).
//
// Each line of a thread's meta file describes one barrier-interval segment:
// which parallel region it belongs to, its position in the concurrency
// structure, and where its event data lives in the thread's log file. The
// paper's columns are all here - pid, ppid, bid, offset, span, level,
// data_begin, size - plus the full serialized offset-span label (the paper
// reconstructs it from the ppid chain; storing it directly is equivalent and
// self-contained) and the lockset held when the segment opened (so lock
// ownership that spans a buffer flush or barrier is never lost).
//
// "Segment" vs "interval": with nested parallelism, lane 0 of an inner team
// runs on the same OS thread as its parent, so a parent's barrier interval
// can be split around the nested region into multiple segments. Segments of
// one interval share (region, phase, label); the analyzer may treat them
// independently because equal labels yield identical concurrency judgments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "osl/label.h"
#include "trace/event.h"

namespace sword::trace {

struct IntervalMeta {
  uint64_t region = 0;          // pid: parallel region id
  uint64_t parent_region = 0;   // ppid (kNoParent at the outermost level)
  uint64_t phase = 0;           // bid: barrier interval index within region
  osl::Label label;             // full offset-span label of this interval
  uint32_t level = 0;           // nesting depth (1 = outermost)
  uint32_t lane = 0;            // thread num within the team
  uint64_t data_begin = 0;      // logical byte offset into the log stream
  uint64_t data_size = 0;       // bytes of event data in this segment
  uint64_t event_count = 0;     // events in this segment (0 in v1 metas)
  /// Highest degradation-governor level active while this segment was open
  /// (record v3; 0 = full tracing). Non-zero means the segment's event list
  /// may be a SUBSET of the accesses that actually happened: races found in
  /// it are still real, but absence of a race is not proof.
  uint32_t degradation_level = 0;
  /// Accesses the writer dropped from THIS segment because of degradation
  /// (sampling / summary-only), record v3. Exact count, so offline
  /// accounting can reconcile observed + dropped totals.
  uint64_t degraded_dropped = 0;
  /// Accesses a static pre-filter elided from THIS segment (record v4).
  /// Traces written by earlier versions covered each elided access with an
  /// exact footprint receipt in the segment's event data, so this is not
  /// loss. The current writer has no pre-filter and always writes 0.
  uint64_t elided = 0;
  std::vector<uint32_t> lockset;  // mutexes held when the segment opened

  static constexpr uint64_t kNoParent = ~0ULL;

  /// Table I "offset" column: innermost label pair offset.
  uint32_t TableOffset() const { return label.pairs().back().offset; }
  /// Table I "span" column: innermost label pair span.
  uint32_t TableSpan() const { return label.pairs().back().span; }

  /// Events in this segment. v2 metas record the count explicitly (required
  /// for variable-length event encodings); v1 metas derive it from the fixed
  /// 16-byte event size.
  uint64_t EventCount() const {
    return event_count ? event_count : data_size / kEventBytes;
  }

  /// `version` is the RECORD format: 1 omits event_count, 2 records it,
  /// 3 adds degradation_level + degraded_dropped, 4 adds elided.
  void Serialize(ByteWriter& w, uint8_t version = 4) const;
  static Status Deserialize(ByteReader& r, IntervalMeta* out, uint8_t version = 4);

  /// One Table-I-style text line (debugging and the quickstart example).
  std::string ToString() const;
};

/// One degradation-governor level change, recorded in v5 metas so offline
/// reports can annotate which barrier intervals ran under reduced fidelity.
struct DegradationTransition {
  uint8_t level = 0;        // level entered (trace::governor level ordinal)
  uint8_t reason = 0;       // GovernorReason bitmask that triggered it
  uint64_t interval = 0;    // interval-record ordinal open/next at the time

  bool operator==(const DegradationTransition& o) const {
    return level == o.level && reason == o.reason && interval == o.interval;
  }
};

/// Whole meta file: header + interval records.
struct MetaFile {
  uint32_t thread_id = 0;  // dense SWORD thread id (not an OS id)
  /// Event-encoding format of the companion .log file (kTraceFormatV*).
  /// Informational: the log's frames are self-tagging; tools print this.
  uint8_t log_format = kTraceFormatV2;
  /// v5 metas: this checkpoint was written by the fatal-signal sealer while
  /// the process was dying of `seal_signo`. The trace ends at the last
  /// sealed barrier interval; everything recorded is trustworthy, nothing
  /// after it exists.
  bool crash_sealed = false;
  uint8_t seal_signo = 0;
  /// Record-time loss (v3 metas): events/logical bytes the flusher had to
  /// discard for this thread's log (ENOSPC etc). Mirrors the log's gap
  /// frames so the loss is visible even from the meta alone.
  uint64_t events_dropped = 0;
  uint64_t bytes_dropped = 0;
  /// Accesses observed OUTSIDE any barrier-interval segment (v4 metas):
  /// counted and dropped by the writer instead of silently corrupting the
  /// open segment's (data_begin, size) accounting.
  uint64_t accesses_dropped = 0;
  /// Total accesses the degradation governor told the writer to shed
  /// (v5 metas). Sum over intervals[i].degraded_dropped plus any shed while
  /// no segment was open.
  uint64_t degraded_dropped = 0;
  /// Accesses a static pre-filter elided (v6 metas). Sum over
  /// intervals[i].elided. Informational, not loss: each elided access has
  /// an exact footprint receipt in the log. Read for traces from earlier
  /// versions; the current writer always writes 0.
  uint64_t elided_accesses = 0;
  /// Elided accesses whose receipt could not be emitted (v6 metas). This IS
  /// potential loss and is accounted like degradation for soundness. Always
  /// 0 from the current writer.
  uint64_t elided_lost = 0;
  /// Governor level changes, in order (v5 metas).
  std::vector<DegradationTransition> transitions;
  std::vector<IntervalMeta> intervals;

  /// Always writes the current (v6) meta format.
  Bytes Encode() const;
  /// Decodes v1 ("SWMF") through v6 ("SWM6") meta files.
  ///
  /// With `salvage`, a record-level parse failure keeps the cleanly-decoded
  /// prefix instead of failing the whole file (a crashed run's checkpoint
  /// can be torn mid-record despite the atomic rename if the filesystem
  /// itself was damaged); `*records_dropped` receives how many of the
  /// header's claimed records could not be recovered.
  static Status Decode(const Bytes& data, MetaFile* out, bool salvage = false,
                       uint64_t* records_dropped = nullptr);
};

/// Everything EncodeMetaHeader needs. Kept as a struct so the writer's
/// incremental checkpoints and MetaFile::Encode share one serializer.
struct MetaHeaderInfo {
  uint32_t thread_id = 0;
  uint8_t log_format = kTraceFormatV2;
  bool crash_sealed = false;
  uint8_t seal_signo = 0;
  uint64_t events_dropped = 0;
  uint64_t bytes_dropped = 0;
  uint64_t accesses_dropped = 0;
  uint64_t degraded_dropped = 0;
  uint64_t elided_accesses = 0;
  uint64_t elided_lost = 0;
  const std::vector<DegradationTransition>* transitions = nullptr;
  uint64_t record_count = 0;
};

/// Serializes the v5 meta header (everything before the interval records).
/// Shared by MetaFile::Encode and the writer's incremental checkpoints,
/// which append pre-serialized records after it.
void EncodeMetaHeader(ByteWriter& w, const MetaHeaderInfo& info);

constexpr uint32_t kMetaMagic = 0x53574d46;    // "SWMF" (meta format v1)
constexpr uint32_t kMetaMagicV2 = 0x53574d32;  // "SWM2" (meta format v2)
constexpr uint32_t kMetaMagicV3 = 0x53574d33;  // "SWM3" (meta format v3)
constexpr uint32_t kMetaMagicV4 = 0x53574d34;  // "SWM4" (meta format v4)
constexpr uint32_t kMetaMagicV5 = 0x53574d35;  // "SWM5" (meta format v5)
constexpr uint32_t kMetaMagicV6 = 0x53574d36;  // "SWM6" (meta format v6)

/// v5 header flag bits (the byte at kMetaFlagsOffset).
constexpr uint8_t kMetaFlagCrashSealed = 0x01;

/// Fixed byte offsets of the v5 flags and seal-signo bytes. The fatal-signal
/// sealer publishes a pre-serialized meta image built with
/// crash_sealed=true / signo=0 and, inside the handler, only needs to patch
/// the one signo byte at kMetaSealSignoOffset — no serialization runs in
/// signal context. Keep these in sync with EncodeMetaHeader.
constexpr size_t kMetaFlagsOffset = 4;
constexpr size_t kMetaSealSignoOffset = 5;

}  // namespace sword::trace
