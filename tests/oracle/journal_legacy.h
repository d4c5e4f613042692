// Test-only writers for retired analysis-journal headers. The current
// reader must refuse each as Unsupported rather than misread the knob bytes
// later versions dropped:
//   v4 - after `engine`: use_sweep, use_fastpath, use_stream, use_symbolic,
//        use_dedup, salvage, then solver_step_budget;
//   v5 - after `engine`: use_fastpath, use_dedup, salvage, then
//        solver_step_budget;
//   v6 - use_dedup and salvage after the shard key, no engine byte and no
//        solver_step_budget;
//   v7 - v8's header layout; its bucket records counted every (thread,
//        label) group in trees_built/tree_nodes/tree_bytes, where v8 counts
//        only the summarized fingerprint leaders.
// The retired knobs are written with the defaults of their version.
#pragma once

#include "common/bytes.h"
#include "offline/journal.h"

namespace sword::oracle {

namespace journal_legacy_detail {

/// Frames a header payload the way JournalWriter::Create does.
inline Bytes FramedHeader(const Bytes& payload) {
  Bytes file;
  ByteWriter w(&file);
  w.PutU32(offline::kJournalHeaderMagic);
  w.PutVarU64(payload.size());
  w.PutU64(Fnv1a64(payload.data(), payload.size()));
  w.PutRaw(payload.data(), payload.size());
  return file;
}

/// The fields every version shares after the knob bytes.
inline void PutTail(const offline::JournalHeader& h, ByteWriter& p) {
  p.PutVarU64(h.bucket_deadline_ms);
  p.PutVarU64(h.max_tree_bytes);
  p.PutU32(h.thread_count);
  p.PutVarU64(h.total_intervals);
  p.PutVarU64(h.total_log_bytes);
}

}  // namespace journal_legacy_detail

/// A complete journal file holding only a v4 header record for `h`.
inline Bytes JournalV4File(const offline::JournalHeader& h) {
  Bytes payload;
  ByteWriter p(&payload);
  p.PutU8(4);
  p.PutU32(h.shard_index);
  p.PutU32(h.shard_count);
  p.PutU8(0);  // engine
  p.PutU8(1);  // use_sweep
  p.PutU8(1);  // use_fastpath
  p.PutU8(1);  // use_stream
  p.PutU8(1);  // use_symbolic
  p.PutU8(1);  // use_dedup
  p.PutU8(h.salvage);
  p.PutVarU64(4'000'000);  // solver_step_budget
  journal_legacy_detail::PutTail(h, p);
  return journal_legacy_detail::FramedHeader(payload);
}

/// A complete journal file holding only a v5 header record for `h`.
inline Bytes JournalV5File(const offline::JournalHeader& h) {
  Bytes payload;
  ByteWriter p(&payload);
  p.PutU8(5);
  p.PutU32(h.shard_index);
  p.PutU32(h.shard_count);
  p.PutU8(0);  // engine
  p.PutU8(1);  // use_fastpath
  p.PutU8(1);  // use_dedup
  p.PutU8(h.salvage);
  p.PutVarU64(4'000'000);  // solver_step_budget
  journal_legacy_detail::PutTail(h, p);
  return journal_legacy_detail::FramedHeader(payload);
}

/// A complete journal file holding only a v6 header record for `h`.
inline Bytes JournalV6File(const offline::JournalHeader& h) {
  Bytes payload;
  ByteWriter p(&payload);
  p.PutU8(6);
  p.PutU32(h.shard_index);
  p.PutU32(h.shard_count);
  p.PutU8(1);  // use_dedup
  p.PutU8(h.salvage);
  journal_legacy_detail::PutTail(h, p);
  return journal_legacy_detail::FramedHeader(payload);
}

/// A complete journal file holding only a v7 header record for `h`.
inline Bytes JournalV7File(const offline::JournalHeader& h) {
  Bytes payload;
  ByteWriter p(&payload);
  p.PutU8(7);
  p.PutU32(h.shard_index);
  p.PutU32(h.shard_count);
  p.PutU8(h.salvage);
  journal_legacy_detail::PutTail(h, p);
  return journal_legacy_detail::FramedHeader(payload);
}

}  // namespace sword::oracle
