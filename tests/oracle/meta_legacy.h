// Test-only writer for the retired SWM6 meta layout: one header carrying the
// seal bytes, the drop and pre-filter elision totals and the transition
// history, then a counted list of record-v4 intervals. Writers emit SWM7
// (trace/meta.h) now; this keeps traces "as an older writer left them"
// constructible, so the SWM6 decode path and the elision accounting of
// older traces stay under test.
#pragma once

#include "common/bytes.h"
#include "trace/meta.h"

namespace sword::oracle {

inline Bytes EncodeMetaV6(const trace::MetaFile& m) {
  ByteWriter w;
  w.PutU32(trace::kMetaMagicV6);
  w.PutU8(m.crash_sealed ? trace::kMetaFlagCrashSealed : 0);
  w.PutU8(m.seal_signo);
  w.PutVarU64(m.thread_id);
  w.PutU8(m.log_format);
  w.PutVarU64(m.events_dropped);
  w.PutVarU64(m.bytes_dropped);
  w.PutVarU64(m.accesses_dropped);
  w.PutVarU64(m.degraded_dropped);
  w.PutVarU64(m.elided_accesses);
  w.PutVarU64(m.elided_lost);
  w.PutVarU64(m.transitions.size());
  for (const trace::DegradationTransition& t : m.transitions) {
    w.PutU8(t.level);
    w.PutU8(t.reason);
    w.PutVarU64(t.interval);
  }
  w.PutVarU64(m.intervals.size());
  for (const trace::IntervalMeta& rec : m.intervals) rec.Serialize(w, /*version=*/4);
  return std::move(w.buffer());
}

}  // namespace sword::oracle
