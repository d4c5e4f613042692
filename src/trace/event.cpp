#include "trace/event.h"

#include <cassert>

namespace sword::trace {
namespace {

template <typename T>
uint8_t* StoreLE(T v, uint8_t* out) {
  for (size_t i = 0; i < sizeof(T); i++) out[i] = static_cast<uint8_t>(v >> (8 * i));
  return out + sizeof(T);
}

}  // namespace

uint8_t* EncodeEvent(const RawEvent& e, uint8_t* out) {
  out[0] = static_cast<uint8_t>(e.kind);
  out[1] = e.flags;
  out[2] = e.size;
  out[3] = 0;  // reserved
  return StoreLE(e.addr, StoreLE(e.pc, out + 4));
}

void EncodeEvent(const RawEvent& e, ByteWriter& w) {
  uint8_t b[kEventBytes];
  w.PutRaw(b, static_cast<size_t>(EncodeEvent(e, b) - b));
}

Status DecodeEvent(ByteReader& r, RawEvent* out) {
  uint8_t kind, flags, size, pad;
  SWORD_RETURN_IF_ERROR(r.GetU8(&kind));
  SWORD_RETURN_IF_ERROR(r.GetU8(&flags));
  SWORD_RETURN_IF_ERROR(r.GetU8(&size));
  SWORD_RETURN_IF_ERROR(r.GetU8(&pad));
  SWORD_RETURN_IF_ERROR(r.GetU32(&out->pc));
  SWORD_RETURN_IF_ERROR(r.GetU64(&out->addr));
  if (kind > static_cast<uint8_t>(EventKind::kMutexRelease)) {
    return Status::Corrupt("unknown event kind");
  }
  out->kind = static_cast<EventKind>(kind);
  out->flags = flags;
  out->size = size;
  out->stride = 0;
  out->count = 1;
  return Status::Ok();
}

// v2/v3 tag byte layout:
//   bits 0-1  kind (0 access, 1 acquire, 2 release; 3 reserved in v2,
//             kAccessRun in v3)
// for kAccess (and v3 kAccessRun, which shares the access layout):
//   bit 2     write flag   (somp::kAccessWrite)
//   bit 3     atomic flag  (somp::kAccessAtomic)
//   bits 4-7  size code: 1..8 -> size = 1 << (code-1); 0 -> explicit varint
//             size follows; 15 -> "extended": a full flags byte then a
//             varint size follow (future-proofing for flags beyond the two
//             bits above); 9..14 reserved (rejected)
// for kMutex*: bits 2-7 must be zero.
//
// Then, for kAccess: varint pc, zigzag-varint (addr - prev_access_addr).
// For kAccessRun (v3): varint pc, zigzag-varint (base - prev_access_addr),
// varint stride, varint count; prev advances to the LAST element's address.
// For kMutex*: varint mutex id (absolute - lock ids are small and unordered,
// deltas would not help).
namespace {

constexpr uint8_t kInlineFlagsMask = 0x03;  // write | atomic
constexpr uint8_t kSizeCodeExplicit = 0;
constexpr uint8_t kSizeCodeExtended = 15;

/// Size code for power-of-two sizes 1..128, else kSizeCodeExplicit.
uint8_t SizeCode(uint8_t size) {
  if (size == 0 || (size & (size - 1)) != 0) return kSizeCodeExplicit;
  return static_cast<uint8_t>(__builtin_ctz(size) + 1);  // 1..8
}

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

uint8_t* EncodeDeltaEvent(const RawEvent& e, EventCodecState& state, uint8_t* out) {
  if (e.kind == EventKind::kMutexAcquire || e.kind == EventKind::kMutexRelease) {
    *out++ = static_cast<uint8_t>(e.kind);
    return EncodeVarU64(e.addr, out);
  }
  // The tag plus the optional extended-flags / explicit-size prefix shared by
  // kAccess and kAccessRun.
  const bool extended = (e.flags & ~kInlineFlagsMask) != 0;
  const uint8_t code = extended ? kSizeCodeExtended : SizeCode(e.size);
  *out++ = static_cast<uint8_t>(static_cast<uint8_t>(e.kind) |
                                ((e.flags & kInlineFlagsMask) << 2) | (code << 4));
  if (extended) {
    *out++ = e.flags;
    out = EncodeVarU64(e.size, out);
  } else if (code == kSizeCodeExplicit) {
    out = EncodeVarU64(e.size, out);
  }
  out = EncodeVarU64(e.pc, out);
  out = EncodeVarI64(static_cast<int64_t>(e.addr - state.prev_addr), out);
  if (e.kind == EventKind::kAccessRun) {
    out = EncodeVarU64(e.stride, out);
    out = EncodeVarU64(e.count, out);
    state.prev_addr = e.addr + (e.count - 1) * e.stride;
  } else {
    state.prev_addr = e.addr;
  }
  return out;
}

void EncodeEventV3(const RawEvent& e, EventCodecState& state, ByteWriter& w) {
  uint8_t b[kMaxEventBytesV3];
  w.PutRaw(b, static_cast<size_t>(EncodeDeltaEvent(e, state, b) - b));
}

void EncodeEventV2(const RawEvent& e, EventCodecState& state, ByteWriter& w) {
  assert(e.kind != EventKind::kAccessRun && "runs exist in v3 frames only");
  EncodeEventV3(e, state, w);
}

Status DecodeDeltaEvent(ByteReader& r, uint8_t format, EventCodecState& state,
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
  if (run && format < kTraceFormatV3) return Status::Corrupt("unknown event kind");

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

}  // namespace sword::trace
