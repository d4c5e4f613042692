// Trace event encoding.
//
// Each thread's log file is a sequence of compressed frames whose
// decompressed payload is a stream of events. Offsets in the meta file are
// *logical* (decompressed-stream) byte offsets, so the writer knows every
// interval's position without waiting for compression, and the reader can
// skip frames using only their headers (paper SIII-B's streaming reads).
//
// Three payload formats exist, tagged by the frame magic (compress/frame.h):
//
//   v1 - a dense array of fixed 16-byte events (the original layout).
//   v2 - variable-length events: one packed tag byte (kind / flags / size
//        code), a varint pc, and the ADDRESS DELTA against the previous
//        access in the same frame as a zigzag varint. Typical access events
//        take 3-5 bytes instead of 16 before compression, and the delta
//        stream compresses far better (strided loops become runs of
//        identical bytes). Delta state resets at every frame boundary, so
//        frames stay independently decodable.
//   v3 - v2 plus the kAccessRun kind: one event standing for `count`
//        accesses at base, base+stride, ..., base+(count-1)*stride with
//        equal size/flags/pc - the shape every `parallel for` sweep
//        produces. The writer's coalescer emits runs; the offline analyzer
//        materializes them directly as strided intervals without
//        per-element expansion. Kinds 0-2 encode byte-identically to v2.
//
// Event kinds:
//   kAccess        - one instrumented load/store; addr/size/flags/pc
//   kMutexAcquire  - lock id in `addr`
//   kMutexRelease  - lock id in `addr`
//   kAccessRun     - coalesced strided run (v3 frames only)
// Barrier and region boundaries are not log events: they are exactly the
// meta-file interval boundaries (Table I).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace sword::trace {

/// Trace event-encoding format versions (the frame magic carries the tag).
constexpr uint8_t kTraceFormatV1 = 1;
constexpr uint8_t kTraceFormatV2 = 2;
constexpr uint8_t kTraceFormatV3 = 3;

enum class EventKind : uint8_t {
  kAccess = 0,
  kMutexAcquire = 1,
  kMutexRelease = 2,
  kAccessRun = 3,  // v3 only; the reserved v2 kind, so v2 decoders reject it
};

struct RawEvent {
  EventKind kind = EventKind::kAccess;
  uint8_t flags = 0;   // somp::AccessFlags for kAccess/kAccessRun
  uint8_t size = 0;    // access size in bytes for kAccess/kAccessRun
  uint32_t pc = 0;     // interned source location for kAccess/kAccessRun
  uint64_t addr = 0;   // address for kAccess(Run); mutex id for kMutex*
  uint64_t stride = 0; // kAccessRun: element spacing in bytes (>= 1)
  uint64_t count = 1;  // kAccessRun: number of elements (>= 2)

  static RawEvent Access(uint64_t addr, uint8_t size, uint8_t flags, uint32_t pc) {
    RawEvent e;
    e.kind = EventKind::kAccess;
    e.flags = flags;
    e.size = size;
    e.pc = pc;
    e.addr = addr;
    return e;
  }
  static RawEvent Run(uint64_t base, uint64_t stride, uint64_t count,
                      uint8_t size, uint8_t flags, uint32_t pc) {
    RawEvent e;
    e.kind = EventKind::kAccessRun;
    e.flags = flags;
    e.size = size;
    e.pc = pc;
    e.addr = base;
    e.stride = stride;
    e.count = count;
    return e;
  }
  static RawEvent MutexAcquire(uint32_t mutex) {
    RawEvent e;
    e.kind = EventKind::kMutexAcquire;
    e.addr = mutex;
    return e;
  }
  static RawEvent MutexRelease(uint32_t mutex) {
    RawEvent e;
    e.kind = EventKind::kMutexRelease;
    e.addr = mutex;
    return e;
  }

  friend bool operator==(const RawEvent&, const RawEvent&) = default;
};

// ---------------------------------------------------------------- format v1

/// Encoded size of one v1 event in the log stream.
constexpr uint64_t kEventBytes = 16;

/// Writes the 16-byte little-endian v1 encoding of `e` at `out` and returns
/// the end of what it wrote.
uint8_t* EncodeEvent(const RawEvent& e, uint8_t* out);

/// Appends the v1 encoding of `e` (EncodeEvent into `w`'s buffer).
void EncodeEvent(const RawEvent& e, ByteWriter& w);

/// Decodes one v1 event; fails on truncation or unknown kind.
Status DecodeEvent(ByteReader& r, RawEvent* out);

// ---------------------------------------------------------------- format v2

/// Upper bound on one v2 event's encoded size: tag (1) + extended flags (1)
/// + explicit size varint (2) + pc varint (5) + address-delta varint (10).
constexpr uint64_t kMaxEventBytesV2 = 19;

/// Delta-coder state: the previous ACCESS address seen in the current frame.
/// Encoder and decoder must carry matching state and reset it at every frame
/// boundary (the writer resets on flush; frames stay self-contained).
struct EventCodecState {
  uint64_t prev_addr = 0;
};

/// Writes the variable-length v2/v3 encoding of `e` at `out`, updating
/// `state`, and returns the end of what it wrote: at most kMaxEventBytesV2
/// bytes for kinds 0-2, kMaxEventBytesV3 for a kAccessRun. This is the one
/// delta encoder; the writer calls it straight into its buffer's headroom,
/// and the ByteWriter forms below wrap it. Kinds 0-2 encode identically in
/// both formats, so the encoder needs no format: only a v3 frame may hold a
/// kAccessRun.
uint8_t* EncodeDeltaEvent(const RawEvent& e, EventCodecState& state, uint8_t* out);

/// Appends the v2 encoding of `e` (a kind 0-2 event), updating `state`.
void EncodeEventV2(const RawEvent& e, EventCodecState& state, ByteWriter& w);

// ---------------------------------------------------------------- format v3

/// Upper bound on one v3 event's encoded size: the v2 bound plus a run's
/// stride and count varints (10 each).
constexpr uint64_t kMaxEventBytesV3 = kMaxEventBytesV2 + 20;

/// Appends the variable-length v3 encoding of `e`, updating `state`. Kinds
/// 0-2 encode exactly as v2; kAccessRun adds varint stride and count after
/// the base-address delta, and advances `prev_addr` to the LAST element's
/// address so a continuation right after the run still gets a small delta.
void EncodeEventV3(const RawEvent& e, EventCodecState& state, ByteWriter& w);

/// Events per decoded block: the most DecodeDeltaBlock decodes per call, and
/// the most LogReader::StreamBlocks hands its sink at once.
constexpr size_t kDecodeBlockEvents = 256;

/// A delta-coded (v2/v3) payload being decoded: the undecoded rest
/// [pos, end) and the codec state valid at `pos`.
struct DeltaStream {
  const uint8_t* pos;
  const uint8_t* end;
  uint8_t format;  // kTraceFormatV2 or kTraceFormatV3
  EventCodecState state;
};

/// The one v2/v3 event decoder. Decodes events from `in` into
/// `out[0, max)`, starting events only while `in.pos < limit` (limit <=
/// in.end), and sets `*decoded` to how many it wrote; `in` advances past
/// them. The last event may end past `limit` - the caller decides what an
/// event straddling its limit means. Fails on truncation (an event running
/// past `in.end`), a reserved tag layout, a run (kind 3) in a v2 frame, or
/// an implausible run (count < 2, stride 0, or an extent that overflows the
/// address space); then `*decoded` counts the good events before the bad
/// one and `in` stops at the bad event's first byte. One status per block:
/// the loop carries no per-event Status, and `out` needs no initialization.
Status DecodeDeltaBlock(DeltaStream& in, const uint8_t* limit, RawEvent* out,
                        size_t max, size_t* decoded);

}  // namespace sword::trace
