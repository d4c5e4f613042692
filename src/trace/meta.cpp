#include "trace/meta.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/record_log.h"

namespace sword::trace {
namespace {

/// Reads a varint that must fit 32 bits: a larger value is damage, not a
/// value to truncate.
Status GetVarU32(ByteReader& r, uint32_t* out, const char* what) {
  uint64_t v;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&v));
  if (v > UINT32_MAX) {
    return Status::Corrupt(std::string(what) + " out of range in meta file");
  }
  *out = static_cast<uint32_t>(v);
  return Status::Ok();
}

Status GetLogFormat(ByteReader& r, uint8_t* out) {
  SWORD_RETURN_IF_ERROR(r.GetU8(out));
  if (*out < kTraceFormatV1 || *out > kTraceFormatV3) {
    return Status::Corrupt("unknown log format in meta file");
  }
  return Status::Ok();
}

constexpr RecordLogFormat kMetaLogFormat{"meta", kMetaMagicV7, kMetaRecordMagic};

/// What an SWM7 record after the header holds: its payload's first byte.
enum class MetaRecordKind : uint8_t {
  kInterval = 1,    // IntervalMeta, record v3
  kTransition = 2,  // level u8 | reason u8 | interval ordinal varint
  kTotals = 3,      // events, bytes, accesses, degraded dropped (varints)
  kSealed = 4,      // signo u8
};

/// SWM7 interval records use the record-v3 layout: no elision field.
constexpr uint8_t kSwm7RecordVersion = 3;

/// Frames one SWM7 record: its kind byte, then what `fill` writes.
template <typename Fill>
void FrameSwm7Record(MetaRecordKind kind, ByteWriter& out, Fill fill) {
  ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(kind));
  fill(payload);
  FrameRecord(kMetaRecordMagic, payload.buffer(), out);
}

/// Applies one SWM7 record to `out`, all or nothing: each kind parses into
/// a local and commits only once the whole payload parsed exactly.
Status ApplySwm7Record(const Bytes& payload, MetaFile* out) {
  ByteReader r(payload);
  uint8_t kind;
  SWORD_RETURN_IF_ERROR(r.GetU8(&kind));
  const auto exact = [&r] {
    return r.AtEnd() ? Status::Ok() : Status::Corrupt("trailing bytes in meta record");
  };
  switch (static_cast<MetaRecordKind>(kind)) {
    case MetaRecordKind::kInterval: {
      IntervalMeta m;
      SWORD_RETURN_IF_ERROR(IntervalMeta::Deserialize(r, &m, kSwm7RecordVersion));
      SWORD_RETURN_IF_ERROR(exact());
      out->intervals.push_back(std::move(m));
      return Status::Ok();
    }
    case MetaRecordKind::kTransition: {
      DegradationTransition t;
      SWORD_RETURN_IF_ERROR(r.GetU8(&t.level));
      SWORD_RETURN_IF_ERROR(r.GetU8(&t.reason));
      SWORD_RETURN_IF_ERROR(r.GetVarU64(&t.interval));
      SWORD_RETURN_IF_ERROR(exact());
      out->transitions.push_back(t);
      return Status::Ok();
    }
    case MetaRecordKind::kTotals: {
      // Totals records are cumulative: the last one wins.
      uint64_t v[4];
      for (uint64_t& x : v) SWORD_RETURN_IF_ERROR(r.GetVarU64(&x));
      SWORD_RETURN_IF_ERROR(exact());
      out->events_dropped = v[0];
      out->bytes_dropped = v[1];
      out->accesses_dropped = v[2];
      out->degraded_dropped = v[3];
      return Status::Ok();
    }
    case MetaRecordKind::kSealed: {
      uint8_t signo;
      SWORD_RETURN_IF_ERROR(r.GetU8(&signo));
      SWORD_RETURN_IF_ERROR(exact());
      out->crash_sealed = true;
      out->seal_signo = signo;
      return Status::Ok();
    }
  }
  return Status::Corrupt("unknown meta record kind");
}

Status DecodeSwm7(const Bytes& data, MetaFile* out, bool salvage,
                  uint64_t* records_dropped) {
  *out = MetaFile{};
  const auto header = [out](const Bytes& payload) -> Status {
    ByteReader r(payload);
    SWORD_RETURN_IF_ERROR(GetVarU32(r, &out->thread_id, "thread id"));
    SWORD_RETURN_IF_ERROR(GetLogFormat(r, &out->log_format));
    if (!r.AtEnd()) return Status::Corrupt("trailing bytes in meta header");
    return Status::Ok();
  };
  const auto record = [out](const Bytes& payload) {
    return ApplySwm7Record(payload, out);
  };
  const auto walk = WalkRecordLog(data, kMetaLogFormat, header, record);
  if (!walk.ok()) return walk.status();
  const uint64_t dropped = walk.value().records_dropped;
  if (dropped != 0 && !salvage) {
    return Status::Corrupt("torn or damaged record in meta file");
  }
  if (records_dropped) *records_dropped = dropped;
  return Status::Ok();
}

}  // namespace

void IntervalMeta::Serialize(ByteWriter& w, uint8_t version) const {
  w.PutVarU64(region);
  w.PutVarU64(parent_region);
  w.PutVarU64(phase);
  label.Serialize(w);
  w.PutVarU64(level);
  w.PutVarU64(lane);
  w.PutVarU64(data_begin);
  w.PutVarU64(data_size);
  if (version >= 2) w.PutVarU64(event_count);
  w.PutVarU64(lockset.size());
  for (uint32_t m : lockset) w.PutVarU64(m);
  if (version >= 3) {
    w.PutVarU64(degradation_level);
    w.PutVarU64(degraded_dropped);
  }
  if (version >= 4) w.PutVarU64(elided);
}

Status IntervalMeta::Deserialize(ByteReader& r, IntervalMeta* out, uint8_t version) {
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->region));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->parent_region));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->phase));
  SWORD_RETURN_IF_ERROR(osl::Label::Deserialize(r, &out->label));
  SWORD_RETURN_IF_ERROR(GetVarU32(r, &out->level, "level"));
  SWORD_RETURN_IF_ERROR(GetVarU32(r, &out->lane, "lane"));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->data_begin));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->data_size));
  out->event_count = 0;
  if (version >= 2) SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->event_count));
  uint64_t n;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  // Each lockset entry takes at least one byte; a larger count is damage,
  // and reserving it would throw instead of failing cleanly.
  if (n > r.remaining()) return Status::Corrupt("implausible lockset size in meta record");
  out->lockset.clear();
  out->lockset.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    uint32_t m;
    SWORD_RETURN_IF_ERROR(GetVarU32(r, &m, "lockset mutex id"));
    out->lockset.push_back(m);
  }
  out->degradation_level = 0;
  out->degraded_dropped = 0;
  if (version >= 3) {
    SWORD_RETURN_IF_ERROR(
        GetVarU32(r, &out->degradation_level, "degradation level"));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->degraded_dropped));
  }
  out->elided = 0;
  if (version >= 4) SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided));
  return Status::Ok();
}

std::string IntervalMeta::ToString() const {
  std::string out = "pid=" + std::to_string(region);
  out += " ppid=" +
         (parent_region == kNoParent ? std::string("-") : std::to_string(parent_region));
  out += " bid=" + std::to_string(phase);
  out += " offset=" + std::to_string(TableOffset());
  out += " span=" + std::to_string(TableSpan());
  out += " level=" + std::to_string(level);
  out += " data_begin=" + std::to_string(data_begin);
  out += " size=" + std::to_string(data_size);
  out += " events=" + std::to_string(EventCount());
  out += " label=" + label.ToString();
  return out;
}

void FrameMetaHeader(uint32_t thread_id, uint8_t log_format, ByteWriter& out) {
  ByteWriter payload;
  payload.PutVarU64(thread_id);
  payload.PutU8(log_format);
  FrameRecord(kMetaMagicV7, payload.buffer(), out);
}

void FrameIntervalRecord(const IntervalMeta& m, ByteWriter& out) {
  FrameSwm7Record(MetaRecordKind::kInterval, out,
                  [&m](ByteWriter& p) { m.Serialize(p, kSwm7RecordVersion); });
}

void FrameTransitionRecord(const DegradationTransition& t, ByteWriter& out) {
  FrameSwm7Record(MetaRecordKind::kTransition, out, [&t](ByteWriter& p) {
    p.PutU8(t.level);
    p.PutU8(t.reason);
    p.PutVarU64(t.interval);
  });
}

void FrameTotalsRecord(const MetaTotals& t, ByteWriter& out) {
  FrameSwm7Record(MetaRecordKind::kTotals, out, [&t](ByteWriter& p) {
    for (uint64_t v : {t.events_dropped, t.bytes_dropped, t.accesses_dropped,
                       t.degraded_dropped}) {
      p.PutVarU64(v);
    }
  });
}

void EncodeSealRecord(uint8_t signo, uint8_t out[kSealRecordBytes]) {
  // FrameRecord's layout, spelled out byte by byte: magic (u32 LE) |
  // payload size (one varint byte) | fnv1a64(payload) (u64 LE) | payload.
  const uint8_t payload[2] = {static_cast<uint8_t>(MetaRecordKind::kSealed),
                              signo};
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(kMetaRecordMagic >> (8 * i));
  }
  out[4] = sizeof(payload);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : payload) h = (h ^ b) * 0x100000001b3ULL;
  for (int i = 0; i < 8; ++i) out[5 + i] = static_cast<uint8_t>(h >> (8 * i));
  out[13] = payload[0];
  out[14] = payload[1];
}

Bytes MetaFile::Encode() const {
  ByteWriter w;
  FrameMetaHeader(thread_id, log_format, w);
  for (const auto& m : intervals) FrameIntervalRecord(m, w);
  for (const auto& t : transitions) FrameTransitionRecord(t, w);
  const MetaTotals totals{events_dropped, bytes_dropped, accesses_dropped,
                          degraded_dropped};
  if (!(totals == MetaTotals{})) FrameTotalsRecord(totals, w);
  if (crash_sealed) {
    uint8_t sealed[kSealRecordBytes];
    EncodeSealRecord(seal_signo, sealed);
    w.PutRaw(sealed, sizeof(sealed));
  }
  return std::move(w.buffer());
}

Status MetaFile::Decode(const Bytes& data, MetaFile* out, bool salvage,
                        uint64_t* records_dropped) {
  if (records_dropped) *records_dropped = 0;
  ByteReader r(data);
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic == kMetaMagicV7) return DecodeSwm7(data, out, salvage, records_dropped);
  uint8_t version;
  if (magic == kMetaMagic) {
    version = 1;
  } else if (magic == kMetaMagicV2) {
    version = 2;
  } else if (magic == kMetaMagicV3) {
    version = 3;
  } else if (magic == kMetaMagicV4) {
    version = 4;
  } else if (magic == kMetaMagicV5) {
    version = 5;
  } else if (magic == kMetaMagicV6) {
    version = 6;
  } else {
    return Status::Corrupt("bad meta magic");
  }
  out->crash_sealed = false;
  out->seal_signo = 0;
  if (version >= 5) {
    uint8_t flags, signo;
    SWORD_RETURN_IF_ERROR(r.GetU8(&flags));
    SWORD_RETURN_IF_ERROR(r.GetU8(&signo));
    if (flags & ~kMetaFlagCrashSealed) {
      return Status::Corrupt("unknown meta flag bits");
    }
    out->crash_sealed = (flags & kMetaFlagCrashSealed) != 0;
    out->seal_signo = signo;
  }
  uint64_t n;
  SWORD_RETURN_IF_ERROR(GetVarU32(r, &out->thread_id, "thread id"));
  if (version >= 2) {
    SWORD_RETURN_IF_ERROR(GetLogFormat(r, &out->log_format));
  } else {
    out->log_format = kTraceFormatV1;  // v1 metas only ever paired v1 logs
  }
  out->events_dropped = 0;
  out->bytes_dropped = 0;
  out->accesses_dropped = 0;
  if (version >= 3) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->events_dropped));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->bytes_dropped));
  }
  if (version >= 4) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->accesses_dropped));
  }
  out->degraded_dropped = 0;
  out->transitions.clear();
  out->elided_accesses = 0;
  out->elided_lost = 0;
  if (version >= 5) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->degraded_dropped));
    // v6 inserts the pre-filter counters between the governor's shed count
    // and the transition history.
    if (version >= 6) {
      SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided_accesses));
      SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided_lost));
    }
    uint64_t n_transitions;
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&n_transitions));
    if (n_transitions > data.size()) {
      return Status::Corrupt("implausible transition count in meta file");
    }
    out->transitions.reserve(n_transitions);
    for (uint64_t i = 0; i < n_transitions; ++i) {
      DegradationTransition t;
      SWORD_RETURN_IF_ERROR(r.GetU8(&t.level));
      SWORD_RETURN_IF_ERROR(r.GetU8(&t.reason));
      SWORD_RETURN_IF_ERROR(r.GetVarU64(&t.interval));
      out->transitions.push_back(t);
    }
  }
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  out->intervals.clear();
  // A torn file may claim more records than it holds (salvage keeps the
  // prefix), so the count only bounds the reservation.
  out->intervals.reserve(std::min<uint64_t>(n, r.remaining()));
  const uint8_t record_version =
      version >= 6 ? 4 : version >= 5 ? 3 : version >= 2 ? 2 : 1;
  for (uint64_t i = 0; i < n; i++) {
    IntervalMeta m;
    Status s = IntervalMeta::Deserialize(r, &m, record_version);
    if (!s.ok()) {
      if (!salvage) return s;
      // The interval list is written in order; a parse failure means the
      // file was cut mid-record. Everything before it is intact.
      if (records_dropped) *records_dropped = n - i;
      return Status::Ok();
    }
    out->intervals.push_back(std::move(m));
  }
  if (!r.AtEnd() && !salvage) return Status::Corrupt("trailing bytes in meta file");
  return Status::Ok();
}

}  // namespace sword::trace
