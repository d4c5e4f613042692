#include "compress/frame.h"

#include "compress/codecs.h"

namespace sword {
namespace {

struct DataMagic {
  uint32_t magic;
  uint8_t payload_format;
  bool word_hash;  // payload checksum: WordHash64, else fnv1a64
  bool written;    // the magic WriteFrame emits for its format
};

/// The data-frame magics. Writer, parser and FrameHasher all map magics
/// through this one table.
constexpr DataMagic kDataMagics[] = {
    {kFrameMagic, 1, false, true},
    {kFrameMagicV2, 2, false, true},
    {kFrameMagicV3, 3, false, false},
    {kFrameMagicV3Word, 3, true, true},
};

uint32_t LoadMagic(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// The table row of a data-frame magic, or null.
const DataMagic* FindDataMagic(uint32_t magic) {
  for (const DataMagic& m : kDataMagics) {
    if (m.magic == magic) return &m;
  }
  return nullptr;
}

}  // namespace

FrameHasher::FrameHasher(uint32_t magic) {
  const DataMagic* m = FindDataMagic(magic);
  word_ = m != nullptr && m->word_hash;
}

void FrameHasher::Update(const uint8_t* data, size_t n) {
  if (word_) {
    word_hasher_.Update(data, n);
  } else {
    fnv_ = Fnv1a64(data, n, fnv_);
  }
}

uint64_t FrameHasher::Digest() const { return word_ ? word_hasher_.Digest() : fnv_; }

uint64_t FrameChecksum(uint32_t magic, const uint8_t* data, size_t n) {
  FrameHasher h(magic);
  h.Update(data, n);
  return h.Digest();
}

bool IsFrameMagic(const uint8_t* p) {
  const uint32_t magic = LoadMagic(p);
  return FindDataMagic(magic) != nullptr || magic == kFrameMagicGap ||
         magic == kFrameMagicCrash;
}

Status ParseFrameHeader(ByteReader& reader, FrameHeader* out) {
  *out = FrameHeader{};
  const size_t start = reader.position();
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(reader.GetU32(&magic));
  out->magic = magic;

  if (magic == kFrameMagicCrash) {
    // signo u8 | u64 checksum over the signo byte. Fixed-length, so a torn
    // tail is caught by the bounds-checked reads alone.
    uint64_t checksum;
    SWORD_RETURN_IF_ERROR(reader.GetU8(&out->crash_signo));
    SWORD_RETURN_IF_ERROR(reader.GetU64(&checksum));
    if (FrameChecksum(magic, &out->crash_signo, 1) != checksum) {
      return Status::Corrupt("crash marker checksum mismatch");
    }
    out->is_crash = true;
    out->header_size = reader.position() - start;
    return Status::Ok();
  }

  if (magic == kFrameMagicGap) {
    // raw_bytes varu64 | event_count varu64 | u64 checksum over the two
    // varints' encoded bytes.
    const uint8_t* body = reader.cursor();
    SWORD_RETURN_IF_ERROR(reader.GetVarU64(&out->raw_size));
    SWORD_RETURN_IF_ERROR(reader.GetVarU64(&out->dropped_events));
    const size_t body_len = static_cast<size_t>(reader.cursor() - body);
    uint64_t checksum;
    SWORD_RETURN_IF_ERROR(reader.GetU64(&checksum));
    if (FrameChecksum(magic, body, body_len) != checksum) {
      return Status::Corrupt("gap frame checksum mismatch");
    }
    if (out->raw_size > kMaxFrameRawBytes) {
      return Status::Corrupt("implausible gap frame size");
    }
    out->is_gap = true;
    out->header_size = reader.position() - start;
    return Status::Ok();
  }

  const DataMagic* data_magic = FindDataMagic(magic);
  if (data_magic == nullptr) return Status::Corrupt("bad frame magic");
  out->payload_format = data_magic->payload_format;
  uint64_t name_len;
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(&name_len));
  if (name_len > kMaxCodecNameBytes) {
    return Status::Corrupt("implausible codec name length");
  }
  if (reader.remaining() < name_len) return Status::Corrupt("truncated string");
  out->codec.assign(reinterpret_cast<const char*>(reader.cursor()), name_len);
  SWORD_RETURN_IF_ERROR(reader.Skip(name_len));
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(&out->raw_size));
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(&out->payload_size));
  SWORD_RETURN_IF_ERROR(reader.GetU64(&out->checksum));
  if (out->raw_size > kMaxFrameRawBytes) {
    return Status::Corrupt("implausible frame raw size");
  }
  // The size fields parsed: the frame's claimed extent is known from here
  // on, even if a check below fails.
  out->header_size = reader.position() - start;
  if (FindCompressor(out->codec) == nullptr) {
    return Status::Corrupt("unknown codec in frame: " + out->codec);
  }
  // The checksum covers only the payload, so a damaged raw_size field would
  // otherwise verify. The identity codec gives one free cross-check.
  if (out->codec == GetRawCompressor()->Name() && out->raw_size != out->payload_size) {
    out->raw_size = out->payload_size;
    return Status::Corrupt("raw frame size disagrees with payload size");
  }
  return Status::Ok();
}

Status WriteFrame(const Compressor& codec, const uint8_t* data, size_t n, Bytes* out,
                  uint8_t payload_format, CompressScratch* scratch) {
  const DataMagic* magic = nullptr;
  for (const DataMagic& m : kDataMagics) {
    if (m.payload_format == payload_format && m.written) magic = &m;
  }
  if (magic == nullptr) return Status::Invalid("unknown frame payload format");
  Bytes local_payload;
  Bytes& payload = scratch ? scratch->payload : local_payload;
  payload.clear();
  SWORD_RETURN_IF_ERROR(codec.Compress(data, n, &payload, scratch));
  // A payload the codec could not shrink is worth less than the input
  // itself: store the input under the identity codec instead.
  const bool stored = payload.size() >= n;
  const char* name = stored ? GetRawCompressor()->Name() : codec.Name();
  const uint8_t* bytes = stored ? data : payload.data();
  const size_t size = stored ? n : payload.size();

  ByteWriter w(out);
  w.PutU32(magic->magic);
  w.PutString(name);
  w.PutVarU64(n);
  w.PutVarU64(size);
  w.PutU64(FrameChecksum(magic->magic, bytes, size));
  w.PutRaw(bytes, size);
  return Status::Ok();
}

void WriteGapFrame(Bytes* out, uint64_t raw_bytes, uint64_t event_count) {
  ByteWriter w(out);
  w.PutU32(kFrameMagicGap);
  const size_t body_start = out->size();
  w.PutVarU64(raw_bytes);
  w.PutVarU64(event_count);
  const size_t body_len = out->size() - body_start;
  w.PutU64(FrameChecksum(kFrameMagicGap, out->data() + body_start, body_len));
}

void EncodeCrashMarker(uint8_t signo, uint8_t out[kCrashMarkerBytes]) {
  out[0] = static_cast<uint8_t>(kFrameMagicCrash & 0xff);
  out[1] = static_cast<uint8_t>((kFrameMagicCrash >> 8) & 0xff);
  out[2] = static_cast<uint8_t>((kFrameMagicCrash >> 16) & 0xff);
  out[3] = static_cast<uint8_t>((kFrameMagicCrash >> 24) & 0xff);
  out[4] = signo;
  // FNV-1a over the one signo byte, unrolled so the in-signal path never
  // calls into Fnv1a64 (it is safe today, but keeping the handler's
  // dependency surface at zero is the point of the fixed layout).
  uint64_t h = 0xcbf29ce484222325ULL;
  h = (h ^ signo) * 0x100000001b3ULL;
  for (int i = 0; i < 8; ++i) out[5 + i] = static_cast<uint8_t>(h >> (8 * i));
}

void WriteCrashMarkerFrame(Bytes* out, uint8_t signo) {
  uint8_t marker[kCrashMarkerBytes];
  EncodeCrashMarker(signo, marker);
  out->insert(out->end(), marker, marker + kCrashMarkerBytes);
}

Status ReadFrame(ByteReader& reader, FrameView* out) {
  FrameHeader header;
  SWORD_RETURN_IF_ERROR(ParseFrameHeader(reader, &header));
  out->payload_format = header.payload_format;
  out->raw_size = header.raw_size;
  out->frame_size = header.frame_size();
  out->is_gap = header.is_gap;
  out->dropped_events = header.dropped_events;
  out->is_crash = header.is_crash;
  out->crash_signo = header.crash_signo;
  out->data.clear();
  if (header.is_gap || header.is_crash) return Status::Ok();

  if (reader.remaining() < header.payload_size) {
    return Status::Corrupt("truncated frame payload");
  }
  if (FrameChecksum(header.magic, reader.cursor(), header.payload_size) !=
      header.checksum) {
    return Status::Corrupt("frame checksum mismatch");
  }
  out->data.reserve(header.raw_size);
  SWORD_RETURN_IF_ERROR(FindCompressor(header.codec)->Decompress(
      reader.cursor(), header.payload_size, header.raw_size, &out->data));
  return reader.Skip(header.payload_size);
}

}  // namespace sword
