#include "oracle/delta_decoder.h"

#include <algorithm>

namespace sword::oracle {

using trace::EventKind;
using trace::RawEvent;

namespace {

constexpr uint8_t kInlineFlagsMask = 0x03;  // write | atomic
constexpr uint8_t kSizeCodeExplicit = 0;
constexpr uint8_t kSizeCodeExtended = 15;

/// Decodes the flags/size/pc/addr-delta payload shared by kAccess and
/// kAccessRun, given the already-consumed tag byte.
Status DecodeAccessPayload(uint8_t tag, ByteReader& r, RawEvent* out,
                           int64_t* delta) {
  const uint8_t code = tag >> 4;
  uint64_t size = 0;
  uint8_t flags = (tag >> 2) & kInlineFlagsMask;
  if (code == kSizeCodeExtended) {
    SWORD_RETURN_IF_ERROR(r.GetU8(&flags));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&size));
  } else if (code == kSizeCodeExplicit) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&size));
  } else if (code <= 8) {
    size = 1ull << (code - 1);
  } else {
    return Status::Corrupt("reserved event size code");
  }
  if (size > 0xff) return Status::Corrupt("event size out of range");

  uint64_t pc;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&pc));
  if (pc > 0xffffffffull) return Status::Corrupt("event pc out of range");
  SWORD_RETURN_IF_ERROR(r.GetVarI64(delta));

  out->flags = flags;
  out->size = static_cast<uint8_t>(size);
  out->pc = static_cast<uint32_t>(pc);
  return Status::Ok();
}

Status DecodeMutexPayload(uint8_t tag, ByteReader& r, RawEvent* out) {
  if ((tag & ~0x03u) != 0) return Status::Corrupt("nonzero mutex tag bits");
  uint64_t id;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&id));
  out->flags = 0;
  out->size = 0;
  out->pc = 0;
  out->addr = id;
  return Status::Ok();
}

}  // namespace

Status DecodeDeltaEvent(ByteReader& r, uint8_t format, trace::EventCodecState& state,
                        RawEvent* out) {
  uint8_t tag;
  SWORD_RETURN_IF_ERROR(r.GetU8(&tag));
  const uint8_t kind = tag & 0x03;
  out->kind = static_cast<EventKind>(kind);
  out->stride = 0;
  out->count = 1;

  if (out->kind == EventKind::kMutexAcquire ||
      out->kind == EventKind::kMutexRelease) {
    return DecodeMutexPayload(tag, r, out);
  }
  const bool run = out->kind == EventKind::kAccessRun;
  if (run && format < trace::kTraceFormatV3) return Status::Corrupt("unknown event kind");

  int64_t delta;
  SWORD_RETURN_IF_ERROR(DecodeAccessPayload(tag, r, out, &delta));
  out->addr = state.prev_addr + static_cast<uint64_t>(delta);

  if (run) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->stride));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->count));
    if (out->count < 2) return Status::Corrupt("run count below 2");
    if (out->stride == 0) return Status::Corrupt("run stride zero");
    if (out->stride > (UINT64_MAX - out->addr) / (out->count - 1)) {
      return Status::Corrupt("run extent overflows address space");
    }
    state.prev_addr = out->addr + (out->count - 1) * out->stride;
  } else {
    state.prev_addr = out->addr;
  }
  return Status::Ok();
}

Status DecodeBlocks(const Bytes& payload, uint8_t format, std::vector<RawEvent>* out) {
  trace::DeltaStream in{payload.data(), payload.data() + payload.size(), format, {}};
  RawEvent block[trace::kDecodeBlockEvents];
  while (in.pos < in.end) {
    size_t n = 0;
    const Status s =
        trace::DecodeDeltaBlock(in, in.end, block, trace::kDecodeBlockEvents, &n);
    out->insert(out->end(), block, block + n);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ReferenceStreamRange(const std::vector<ReferenceFrame>& frames, uint64_t begin,
                            uint64_t size, FunctionRef<void(const RawEvent&)> fn,
                            trace::DecodeCursor* cursor) {
  if (size == 0) return Status::Ok();
  const uint64_t total =
      frames.empty() ? 0 : frames.back().logical_begin + frames.back().data.size();
  const uint64_t end = begin + size;
  if (end > total) return Status::Corrupt("range past end of log");

  // First frame whose logical range may overlap [begin, end).
  auto it = std::upper_bound(frames.begin(), frames.end(), begin,
                             [](uint64_t v, const ReferenceFrame& f) {
                               return v < f.logical_begin;
                             });
  if (it != frames.begin()) --it;

  for (; it != frames.end() && it->logical_begin < end; ++it) {
    const uint64_t frame_lo = it->logical_begin;
    const uint64_t frame_hi = frame_lo + it->data.size();
    const uint64_t slice_lo = std::max(begin, frame_lo);
    const uint64_t slice_hi = std::min(end, frame_hi);
    if (slice_hi <= slice_lo) continue;  // zero-size frame or no overlap

    // Decode from the frame start, or from a cursor at or before the slice,
    // discarding events before the slice.
    uint64_t base = 0;
    trace::EventCodecState state;
    uint64_t pos = frame_lo;
    if (cursor && cursor->valid && cursor->frame_begin == frame_lo &&
        cursor->pos <= slice_lo && cursor->byte_offset <= it->data.size() &&
        cursor->pos == frame_lo + cursor->byte_offset) {
      base = cursor->byte_offset;
      state = cursor->state;
      pos = cursor->pos;
    }
    if (cursor) cursor->valid = false;  // re-validated on a clean finish
    ByteReader events(it->data.data() + base, it->data.size() - base);
    while (pos < slice_hi && !events.AtEnd()) {
      RawEvent e;
      SWORD_RETURN_IF_ERROR(DecodeDeltaEvent(events, it->format, state, &e));
      const uint64_t next = frame_lo + base + events.position();
      if (next <= slice_lo) {
        pos = next;
        continue;  // wholly before the range
      }
      if (pos < slice_lo || next > slice_hi) {
        return Status::Invalid("range not event-aligned");
      }
      fn(e);
      pos = next;
    }
    if (cursor) {
      cursor->frame_begin = frame_lo;
      cursor->pos = pos;
      cursor->byte_offset = base + events.position();
      cursor->state = state;
      cursor->valid = true;
    }
  }
  return Status::Ok();
}

}  // namespace sword::oracle
