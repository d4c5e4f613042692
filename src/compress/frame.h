// Framed compressed-block format: the on-disk unit of the trace log files.
//
// Each buffer flush produces one frame:
//   magic (u32) | codec name (len-prefixed) | raw_size (varu64)
//   | payload_size (varu64) | fnv1a64(payload) (u64) | payload bytes
//
// The magic doubles as the PAYLOAD FORMAT version tag: "SWDF" frames carry
// format-v1 payloads (fixed 16-byte events), "SWF2" frames carry format-v2
// payloads (delta/varint events, see src/trace/event.h), "SW3F" frames carry
// format-v3 payloads (v2 plus coalesced run events). Readers dispatch per
// frame, so one log file may legally mix versions (e.g. a trace resumed by a
// newer writer).
//
// The v3 magic is deliberately NOT "SWF3": that string is one bit away from
// "SWF2", and because v3 payloads are a superset of v2 a bit-flipped v2
// header would decode cleanly as v3 - the checksum only covers the payload,
// so the corruption would go unnoticed. "SW3F" keeps every magic at Hamming
// distance >= 2 from every other, so a single bit flip always lands on an
// invalid magic and is caught.
//
// Frames are self-describing so the offline streaming reader can walk a log
// file frame by frame, decompress each into a bounded scratch buffer, and
// never hold more than one decompressed frame in memory (paper SIII-B:
// "streaming algorithm that reads access information from log files in small
// chunks").
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "compress/compressor.h"

namespace sword {

constexpr uint32_t kFrameMagic = 0x53574446;    // "SWDF": format-v1 payload
constexpr uint32_t kFrameMagicV2 = 0x53574632;  // "SWF2": format-v2 payload
constexpr uint32_t kFrameMagicV3 = 0x53573346;  // "SW3F": format-v3 payload
constexpr uint32_t kFrameMagicGap = 0x53574750; // "SWGP": drop marker, no payload
// "SWCR": crash marker appended by the fatal-signal sealer. Like the other
// magics it keeps Hamming distance >= 2 from every sibling ('C'^'G' and
// 'R'^'P' are each one bit vs "SWGP", everything else is farther), so a
// single bit flip can never turn one marker kind into another.
constexpr uint32_t kFrameMagicCrash = 0x53574352;

/// Hard cap on a frame's decompressed size. Writers flush one bounded trace
/// buffer per frame (2 MB by default), so any header claiming more than this
/// is corrupt. The checksum only covers the payload, so raw_size must be
/// sanity-checked before it sizes an allocation.
constexpr uint64_t kMaxFrameRawBytes = 64ull << 20;

/// Compresses `data` with `codec` and appends a complete frame to `out`.
/// When the codec's payload is not smaller than `n`, the frame stores `data`
/// under the "raw" codec instead, so a frame never costs more than the input
/// plus its header. `payload_format` selects the magic (1, 2, or 3).
/// `scratch` optionally provides reusable compression staging (see
/// CompressScratch): the compressed payload is built in scratch->payload
/// instead of a fresh allocation.
Status WriteFrame(const Compressor& codec, const uint8_t* data, size_t n, Bytes* out,
                  uint8_t payload_format = 1, CompressScratch* scratch = nullptr);

/// Appends a gap frame to `out`: a drop marker the flusher writes after it
/// had to discard data (ENOSPC). It records how many logical (decompressed)
/// bytes and events went missing so every later frame's logical offset stays
/// trustworthy. Layout:
///   kFrameMagicGap (u32) | raw_bytes (varu64) | event_count (varu64)
///   | fnv1a64(the two varints) (u64)
void WriteGapFrame(Bytes* out, uint64_t raw_bytes, uint64_t event_count);

/// Byte size of a crash-marker frame. The layout is FIXED so the fatal-signal
/// handler can emit one with a single write(2) of a pre-staged buffer:
///   kFrameMagicCrash (u32 LE) | signo (u8) | fnv1a64(&signo, 1) (u64 LE)
/// No varints: the handler must not run variable-length encoders, and the
/// reader must be able to tell a torn marker from a complete one by length.
constexpr size_t kCrashMarkerBytes = 4 + 1 + 8;

/// Serializes a crash marker for signal `signo` into `out[kCrashMarkerBytes]`.
/// Async-signal-safe: writes only to the caller's buffer, no allocation.
void EncodeCrashMarker(uint8_t signo, uint8_t out[kCrashMarkerBytes]);

/// Appends a crash-marker frame to `out` (testing/tooling path; the in-signal
/// path uses EncodeCrashMarker + raw write).
void WriteCrashMarkerFrame(Bytes* out, uint8_t signo);

struct FrameView {
  uint8_t payload_format = 1;   // event encoding version (from the magic)
  uint64_t raw_size = 0;        // decompressed payload size (gap: bytes lost)
  uint64_t frame_size = 0;      // total encoded frame size in bytes
  bool is_gap = false;          // drop marker; `data` is empty
  uint64_t dropped_events = 0;  // gap frames only
  bool is_crash = false;        // crash marker; `data` is empty, raw_size 0
  uint8_t crash_signo = 0;      // crash markers only
  Bytes data;                   // decompressed payload
};

/// Reads and decompresses one frame starting at reader's position. Verifies
/// the checksum. On success the reader is positioned at the next frame.
Status ReadFrame(ByteReader& reader, FrameView* out);

/// Parses only the frame header to learn sizes without decompressing.
/// Leaves the reader positioned past the whole frame.
Status SkipFrame(ByteReader& reader, uint64_t* raw_size,
                 uint8_t* payload_format = nullptr);

}  // namespace sword
