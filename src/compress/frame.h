// Framed compressed-block format: the on-disk unit of the trace log files.
//
// Each buffer flush produces one frame:
//   magic (u32) | codec name (len-prefixed) | raw_size (varu64)
//   | payload_size (varu64) | checksum(payload) (u64) | payload bytes
//
// The magic doubles as the PAYLOAD FORMAT version tag: "SWDF" frames carry
// format-v1 payloads (fixed 16-byte events), "SWF2" frames carry format-v2
// payloads (delta/varint events, see src/trace/event.h), "SW3H" and the
// legacy "SW3F" frames carry format-v3 payloads (v2 plus coalesced run
// events). It also names the payload checksum: "SW3H" frames carry the
// word-wide WordHash64 (common/bytes.h), every other magic FNV-1a. Writers
// emit "SW3H" for v3; "SW3F" is read only. Readers dispatch per frame, so
// one log file may legally mix versions (e.g. a trace resumed by a newer
// writer). Two marker kinds share the stream: "SWGP" gap frames and "SWCR"
// crash markers, both header-only.
//
// No v3 magic is "SWF3": that string is one bit away from "SWF2", and
// because v3 payloads are a superset of v2 a bit-flipped v2 header would
// decode cleanly as v3 - the checksum only covers the payload, so the
// corruption would go unnoticed. "SW3F" and "SW3H" keep every magic at
// Hamming distance >= 2 from every other, so a single bit flip always lands
// on an invalid magic and is caught.
//
// This module owns the frame grammar: ParseFrameHeader is the one reader of
// header fields, IsFrameMagic the one magic test and FrameHasher the one map
// from a magic to its checksum, for every frame kind. The log reader
// (trace/reader.h) walks a file by parsing each header from a small window,
// so it never holds more than one frame in memory (paper SIII-B: "streaming
// algorithm that reads access information from log files in small chunks").
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "compress/compressor.h"

namespace sword {

constexpr uint32_t kFrameMagic = 0x53574446;    // "SWDF": format-v1 payload
constexpr uint32_t kFrameMagicV2 = 0x53574632;  // "SWF2": format-v2 payload
constexpr uint32_t kFrameMagicV3 = 0x53573346;  // "SW3F": format-v3, FNV (legacy)
constexpr uint32_t kFrameMagicV3Word = 0x53573348;  // "SW3H": format-v3, word hash
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

/// The checksum a frame with `magic` carries over the bytes it covers:
/// WordHash64 for "SW3H" data frames, fnv1a64 for every other magic - the
/// legacy data frames, the gap and crash markers, and the records of the
/// record log (common/record_log.h). Feed it in chunks of any size. A test
/// that re-seals a damaged frame goes through this, never a hash directly.
class FrameHasher {
 public:
  explicit FrameHasher(uint32_t magic);
  void Update(const uint8_t* data, size_t n);
  uint64_t Digest() const;

 private:
  bool word_ = false;
  WordHasher word_hasher_;
  uint64_t fnv_ = Fnv1a64(nullptr, 0);
};

/// One-shot FrameHasher.
uint64_t FrameChecksum(uint32_t magic, const uint8_t* data, size_t n);

/// Compresses `data` with `codec` and appends a complete frame to `out`.
/// When the codec's payload is not smaller than `n`, the frame stores `data`
/// under the "raw" codec instead, so a frame never costs more than the input
/// plus its header. `payload_format` selects the magic (1, 2, or 3; v3
/// writes "SW3H").
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

/// Longest codec name a header may carry. Every registered name is three
/// bytes; a longer length prefix is damage, and bounding it bounds the header.
constexpr size_t kMaxCodecNameBytes = 16;

/// ParseFrameHeader never reads past this many bytes from a frame's start:
/// magic (4) + name length varint (10) + name (16) + two size varints (20)
/// + checksum (8) = 58, and the gap and crash bodies are shorter still. A
/// walker that parses from a window this wide sees every parseable header.
constexpr size_t kMaxFrameHeaderBytes = 64;

/// True if `p[0..4)` holds one of the six frame magics (data v1, v2 and the
/// two v3 ones, gap, crash), in their little-endian on-disk encoding.
bool IsFrameMagic(const uint8_t* p);

/// Everything a frame header says. Gap and crash markers are header-only
/// (payload_size 0, header_size is the whole frame).
struct FrameHeader {
  uint32_t magic = 0;          // names the checksum (FrameHasher)
  uint8_t payload_format = 0;  // 1-3 for data frames, 0 for markers
  bool is_gap = false;         // "SWGP" drop marker
  bool is_crash = false;       // "SWCR" fatal-signal crash marker
  std::string codec;           // data frames only
  uint64_t raw_size = 0;       // decompressed size; gap: logical bytes lost
  uint64_t payload_size = 0;   // encoded payload bytes after the header
  uint64_t checksum = 0;       // FrameChecksum(magic, payload), data frames only
  uint64_t dropped_events = 0; // gap frames only
  uint8_t crash_signo = 0;     // crash markers only
  uint64_t header_size = 0;    // 0 until the frame's extent is known

  uint64_t frame_size() const { return header_size + payload_size; }
};

/// Parses one frame header at `reader`'s position and checks every fact the
/// header alone can prove: a known magic, a codec name no longer than
/// kMaxCodecNameBytes, raw_size <= kMaxFrameRawBytes, the gap and crash
/// body checksums, a registered codec, and - for the identity codec -
/// raw_size == payload_size. It does not touch the payload, so it cannot
/// tell whether the payload fits the file or matches its checksum.
///
/// On success the reader sits at the payload start (for markers: the next
/// frame). On failure `header_size` tells the caller how much survived:
/// nonzero only for the two checks that need the size fields to have parsed
/// (unknown codec, raw size mismatch), so the frame's claimed extent is
/// still known - salvage uses it to test for a known-size hole. For a raw
/// size mismatch `raw_size` is set to `payload_size`: the identity codec's
/// payload IS its data, so that is the trustworthy logical extent.
Status ParseFrameHeader(ByteReader& reader, FrameHeader* out);

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

/// Reads one whole frame at reader's position: ParseFrameHeader, then the
/// payload checksum, then decompression. On success the reader is
/// positioned at the next frame.
Status ReadFrame(ByteReader& reader, FrameView* out);

}  // namespace sword
