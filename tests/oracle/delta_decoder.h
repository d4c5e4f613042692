// Test-only reference for the v2/v3 event decoder and the range reader.
//
// Production decodes delta-coded payloads a block at a time
// (trace::DecodeDeltaBlock, trace::LogReader::StreamBlocks). These are the
// per-event forms they replaced, kept as the oracle a differential fuzz test
// checks them against: DecodeDeltaEvent decodes one event through the
// bounds-checked ByteReader getters, and ReferenceStreamRange is the
// per-event range walk over intact frames, with the same slice rules and
// decode-cursor resumption.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/function_ref.h"
#include "common/status.h"
#include "trace/event.h"
#include "trace/reader.h"

namespace sword::oracle {

/// Decodes one v2 or v3 event of a frame whose payload format is `format`
/// (kTraceFormatV2 or kTraceFormatV3), updating `state`. Fails on
/// truncation, a reserved tag layout, a run (kind 3) in a v2 frame, or an
/// implausible run (count < 2, stride 0, or an extent that overflows the
/// address space).
Status DecodeDeltaEvent(ByteReader& r, uint8_t format, trace::EventCodecState& state,
                        trace::RawEvent* out);

/// Runs the production decoder, trace::DecodeDeltaBlock, over a whole
/// payload into `out`, keeping the events decoded before any failure.
Status DecodeBlocks(const Bytes& payload, uint8_t format,
                    std::vector<trace::RawEvent>* out);

/// One intact decompressed delta-coded frame of a log.
struct ReferenceFrame {
  uint64_t logical_begin = 0;
  uint8_t format = trace::kTraceFormatV3;
  Bytes data;
};

/// What trace::LogReader::StreamRange does in strict mode on a log of
/// intact v2/v3 `frames` (ascending, contiguous), one event at a time.
Status ReferenceStreamRange(const std::vector<ReferenceFrame>& frames, uint64_t begin,
                            uint64_t size,
                            FunctionRef<void(const trace::RawEvent&)> fn,
                            trace::DecodeCursor* cursor = nullptr);

}  // namespace sword::oracle
