#include "trace/meta.h"

#include <algorithm>
#include <cstdint>
#include <string>

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

void EncodeMetaHeader(ByteWriter& w, const MetaHeaderInfo& info) {
  w.PutU32(kMetaMagicV6);
  // v5+: flags + seal signo as FIXED-offset bytes right after the magic
  // (kMetaFlagsOffset / kMetaSealSignoOffset) so the fatal-signal handler
  // can patch them in a pre-serialized image without running any encoder.
  w.PutU8(info.crash_sealed ? kMetaFlagCrashSealed : 0);
  w.PutU8(info.seal_signo);
  w.PutVarU64(info.thread_id);
  w.PutU8(info.log_format);
  // v3 additions: record-time drop totals, before the interval records so a
  // torn tail cannot hide them. v4 adds the outside-segment access drops,
  // v5 the degradation-governor sheds and the transition history, v6 the
  // pre-filter elision totals (0 from the current writer, kept so the
  // layout stays SWM6).
  w.PutVarU64(info.events_dropped);
  w.PutVarU64(info.bytes_dropped);
  w.PutVarU64(info.accesses_dropped);
  w.PutVarU64(info.degraded_dropped);
  w.PutVarU64(info.elided_accesses);
  w.PutVarU64(info.elided_lost);
  const size_t n_transitions = info.transitions ? info.transitions->size() : 0;
  w.PutVarU64(n_transitions);
  for (size_t i = 0; i < n_transitions; ++i) {
    const DegradationTransition& t = (*info.transitions)[i];
    w.PutU8(t.level);
    w.PutU8(t.reason);
    w.PutVarU64(t.interval);
  }
  w.PutVarU64(info.record_count);
}

Bytes MetaFile::Encode() const {
  ByteWriter w;
  MetaHeaderInfo info;
  info.thread_id = thread_id;
  info.log_format = log_format;
  info.crash_sealed = crash_sealed;
  info.seal_signo = seal_signo;
  info.events_dropped = events_dropped;
  info.bytes_dropped = bytes_dropped;
  info.accesses_dropped = accesses_dropped;
  info.degraded_dropped = degraded_dropped;
  info.elided_accesses = elided_accesses;
  info.elided_lost = elided_lost;
  info.transitions = &transitions;
  info.record_count = intervals.size();
  EncodeMetaHeader(w, info);
  for (const auto& m : intervals) m.Serialize(w, /*version=*/4);
  return w.buffer();
}

Status MetaFile::Decode(const Bytes& data, MetaFile* out, bool salvage,
                        uint64_t* records_dropped) {
  if (records_dropped) *records_dropped = 0;
  ByteReader r(data);
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(r.GetU32(&magic));
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
    SWORD_RETURN_IF_ERROR(r.GetU8(&out->log_format));
    if (out->log_format < kTraceFormatV1 || out->log_format > kTraceFormatV3) {
      return Status::Corrupt("unknown log format in meta file");
    }
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
    // and the transition history (mirrors EncodeMetaHeader's field order).
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
