#include "compress/frame.h"

#include "compress/codecs.h"

namespace sword {
namespace {

/// Parses a gap frame body (magic already consumed): raw_bytes varu64 |
/// event_count varu64 | u64 checksum over the two varints' encoded bytes.
Status ReadGapBody(ByteReader& reader, uint64_t* raw_bytes,
                   uint64_t* event_count) {
  const size_t body_start = reader.position();
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(raw_bytes));
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(event_count));
  const size_t body_len = reader.position() - body_start;
  uint64_t checksum;
  SWORD_RETURN_IF_ERROR(reader.GetU64(&checksum));
  const uint8_t* body = reader.cursor() - 8 - body_len;
  if (Fnv1a64(body, body_len) != checksum) {
    return Status::Corrupt("gap frame checksum mismatch");
  }
  if (*raw_bytes > kMaxFrameRawBytes) {
    return Status::Corrupt("implausible gap frame size");
  }
  return Status::Ok();
}

/// Parses a crash-marker body (magic already consumed): signo u8 | u64
/// checksum over the signo byte. Fixed-length, so a torn tail is detected by
/// the bounds-checked reads alone.
Status ReadCrashBody(ByteReader& reader, uint8_t* signo) {
  SWORD_RETURN_IF_ERROR(reader.GetU8(signo));
  uint64_t checksum;
  SWORD_RETURN_IF_ERROR(reader.GetU64(&checksum));
  if (Fnv1a64(signo, 1) != checksum) {
    return Status::Corrupt("crash marker checksum mismatch");
  }
  return Status::Ok();
}

/// Parses a data-frame header. `magic` has already been consumed.
Status ReadFrameHeader(ByteReader& reader, uint32_t magic,
                       uint8_t* payload_format, std::string* codec_name,
                       uint64_t* raw_size, uint64_t* payload_size,
                       uint64_t* checksum) {
  if (magic == kFrameMagic) {
    *payload_format = 1;
  } else if (magic == kFrameMagicV2) {
    *payload_format = 2;
  } else if (magic == kFrameMagicV3) {
    *payload_format = 3;
  } else {
    return Status::Corrupt("bad frame magic");
  }
  SWORD_RETURN_IF_ERROR(reader.GetString(codec_name));
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(raw_size));
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(payload_size));
  SWORD_RETURN_IF_ERROR(reader.GetU64(checksum));
  if (*raw_size > kMaxFrameRawBytes) {
    return Status::Corrupt("implausible frame raw size");
  }
  if (reader.remaining() < *payload_size) return Status::Corrupt("truncated frame payload");
  return Status::Ok();
}

}  // namespace

Status WriteFrame(const Compressor& codec, const uint8_t* data, size_t n, Bytes* out,
                  uint8_t payload_format, CompressScratch* scratch) {
  if (payload_format < 1 || payload_format > 3) {
    return Status::Invalid("unknown frame payload format");
  }
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
  w.PutU32(payload_format == 1   ? kFrameMagic
           : payload_format == 2 ? kFrameMagicV2
                                 : kFrameMagicV3);
  w.PutString(name);
  w.PutVarU64(n);
  w.PutVarU64(size);
  w.PutU64(Fnv1a64(bytes, size));
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
  w.PutU64(Fnv1a64(out->data() + body_start, body_len));
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
  const size_t frame_start = reader.position();
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(reader.GetU32(&magic));
  out->is_gap = false;
  out->dropped_events = 0;
  out->is_crash = false;
  out->crash_signo = 0;
  if (magic == kFrameMagicCrash) {
    SWORD_RETURN_IF_ERROR(ReadCrashBody(reader, &out->crash_signo));
    out->payload_format = 0;
    out->is_crash = true;
    out->raw_size = 0;
    out->frame_size = reader.position() - frame_start;
    out->data.clear();
    return Status::Ok();
  }
  if (magic == kFrameMagicGap) {
    uint64_t raw_bytes, events;
    SWORD_RETURN_IF_ERROR(ReadGapBody(reader, &raw_bytes, &events));
    out->payload_format = 0;
    out->is_gap = true;
    out->dropped_events = events;
    out->raw_size = raw_bytes;
    out->frame_size = reader.position() - frame_start;
    out->data.clear();
    return Status::Ok();
  }
  std::string codec_name;
  uint64_t raw_size, payload_size, checksum;
  SWORD_RETURN_IF_ERROR(ReadFrameHeader(reader, magic, &out->payload_format,
                                        &codec_name, &raw_size, &payload_size,
                                        &checksum));

  const Compressor* codec = FindCompressor(codec_name);
  if (!codec) return Status::Corrupt("unknown codec in frame: " + codec_name);

  if (Fnv1a64(reader.cursor(), payload_size) != checksum) {
    return Status::Corrupt("frame checksum mismatch");
  }

  out->data.clear();
  out->data.reserve(raw_size);
  SWORD_RETURN_IF_ERROR(
      codec->Decompress(reader.cursor(), payload_size, raw_size, &out->data));
  SWORD_RETURN_IF_ERROR(reader.Skip(payload_size));
  out->raw_size = raw_size;
  out->frame_size = reader.position() - frame_start;
  return Status::Ok();
}

Status SkipFrame(ByteReader& reader, uint64_t* raw_size, uint8_t* payload_format) {
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic == kFrameMagicCrash) {
    uint8_t signo;
    SWORD_RETURN_IF_ERROR(ReadCrashBody(reader, &signo));
    *raw_size = 0;
    if (payload_format) *payload_format = 0;  // marker, no payload
    return Status::Ok();
  }
  if (magic == kFrameMagicGap) {
    uint64_t events;
    SWORD_RETURN_IF_ERROR(ReadGapBody(reader, raw_size, &events));
    if (payload_format) *payload_format = 0;  // 0 = gap marker, no payload
    return Status::Ok();
  }
  uint8_t format;
  std::string codec_name;
  uint64_t payload_size, checksum;
  SWORD_RETURN_IF_ERROR(ReadFrameHeader(reader, magic, &format, &codec_name,
                                        raw_size, &payload_size, &checksum));
  if (payload_format) *payload_format = format;
  return reader.Skip(payload_size);
}

}  // namespace sword
