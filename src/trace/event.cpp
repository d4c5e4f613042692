#include "trace/event.h"

#include <bit>
#include <cassert>
#include <cstring>

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

/// Reads one LEB128 varint at `p` (not past `end`) into `v` and advances
/// `p`; returns null, or on failure the ByteReader's message for it and
/// leaves `p` alone.
const char* ReadVarSlow(const uint8_t*& p, const uint8_t* end, uint64_t& v) {
  const uint8_t* q = p;
  uint64_t r = 0;
  for (int shift = 0;; shift += 7) {
    if (q >= end) return "truncated varint";
    if (shift >= 64) return "varint overflow";
    const uint8_t byte = *q++;
    r |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) break;
  }
  p = q;
  v = r;
  return nullptr;
}

inline const char* ReadVar(const uint8_t*& p, const uint8_t* end, uint64_t& v) {
  if (p < end && *p < 0x80) [[likely]] {
    v = *p++;
    return nullptr;
  }
  if (end - p >= 8) [[likely]] {
    // Branch-free for up to 8 bytes: the lowest clear continuation bit ends
    // the varint, so a varint length the branch predictor cannot guess (a
    // random address delta) costs no misprediction.
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
    const uint64_t stops = ~w & 0x8080808080808080ULL;
    if (stops != 0) {
      uint64_t x = w & (((stops & (0 - stops)) << 1) - 1) & 0x7f7f7f7f7f7f7f7fULL;
      x = ((x & 0x7f007f007f007f00ULL) >> 1) | (x & 0x007f007f007f007fULL);
      x = ((x & 0x3fff00003fff0000ULL) >> 2) | (x & 0x00003fff00003fffULL);
      x = ((x & 0x0fffffff00000000ULL) >> 4) | (x & 0x000000000fffffffULL);
      p += (__builtin_ctzll(stops) >> 3) + 1;
      v = x;
      return nullptr;
    }
  }
  return ReadVarSlow(p, end, v);
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

Status DecodeDeltaBlock(DeltaStream& in, const uint8_t* limit, RawEvent* out,
                        size_t max, size_t* decoded) {
  // Locals, not `in`'s fields: the byte-wide stores into `out` could alias
  // them and force a reload per event.
  const uint8_t* p = in.pos;
  const uint8_t* const end = in.end;
  uint64_t prev = in.state.prev_addr;
  const bool runs = in.format >= kTraceFormatV3;
  const char* error = nullptr;
  size_t n = 0;
  for (; n < max && p < limit; ++n) {
    const uint8_t* q = p;
    const uint8_t tag = *q++;  // p < limit <= end
    const uint8_t kind = tag & 0x03;
    if (kind == static_cast<uint8_t>(EventKind::kMutexAcquire) ||
        kind == static_cast<uint8_t>(EventKind::kMutexRelease)) {
      uint64_t id;
      if ((tag & ~0x03u) != 0) {
        error = "nonzero mutex tag bits";
        break;
      }
      if ((error = ReadVar(q, end, id))) break;
      out[n] = RawEvent{static_cast<EventKind>(kind), 0, 0, 0, id, 0, 1};
      p = q;
      continue;
    }
    const bool run = kind == static_cast<uint8_t>(EventKind::kAccessRun);
    if (run && !runs) {
      error = "unknown event kind";
      break;
    }
    const uint8_t code = tag >> 4;
    uint8_t flags = (tag >> 2) & kInlineFlagsMask;
    uint64_t size;
    if (code - 1u < 8u) {
      size = 1ull << (code - 1);
    } else if (code == kSizeCodeExplicit) {
      if ((error = ReadVar(q, end, size))) break;
    } else if (code == kSizeCodeExtended) {
      if (q >= end) {
        error = "truncated u8";
        break;
      }
      flags = *q++;
      if ((error = ReadVar(q, end, size))) break;
    } else {
      error = "reserved event size code";
      break;
    }
    if (size > 0xff) {
      error = "event size out of range";
      break;
    }
    uint64_t pc, zigzag;
    if ((error = ReadVar(q, end, pc))) break;
    if (pc > 0xffffffffull) {
      error = "event pc out of range";
      break;
    }
    if ((error = ReadVar(q, end, zigzag))) break;
    const uint64_t addr = prev + ((zigzag >> 1) ^ (~(zigzag & 1) + 1));
    uint64_t stride = 0, count = 1;
    if (run) {
      if ((error = ReadVar(q, end, stride)) || (error = ReadVar(q, end, count))) break;
      if (count < 2) {
        error = "run count below 2";
        break;
      }
      if (stride == 0) {
        error = "run stride zero";
        break;
      }
      if (stride > (UINT64_MAX - addr) / (count - 1)) {
        error = "run extent overflows address space";
        break;
      }
      prev = addr + (count - 1) * stride;
    } else {
      prev = addr;
    }
    out[n] = RawEvent{static_cast<EventKind>(kind), flags, static_cast<uint8_t>(size),
                      static_cast<uint32_t>(pc), addr, stride, count};
    p = q;
  }
  in.pos = p;
  in.state.prev_addr = prev;
  *decoded = n;
  return error ? Status::Corrupt(error) : Status::Ok();
}

}  // namespace sword::trace
