// Test-only writer for the retired v4 analysis-journal header, whose knob
// bytes after `engine` were use_sweep, use_fastpath, use_stream,
// use_symbolic, use_dedup and salvage. The current reader must refuse it as
// Unsupported rather than misread the three bytes v5 dropped.
#pragma once

#include "common/bytes.h"
#include "offline/journal.h"

namespace sword::oracle {

/// A complete journal file holding only a v4 header record for `h` (the
/// retired knobs read 1, the pipeline defaults of that version).
inline Bytes JournalV4File(const offline::JournalHeader& h) {
  Bytes payload;
  ByteWriter p(&payload);
  p.PutU8(4);
  p.PutU32(h.shard_index);
  p.PutU32(h.shard_count);
  p.PutU8(h.engine);
  p.PutU8(1);  // use_sweep
  p.PutU8(h.use_fastpath);
  p.PutU8(1);  // use_stream
  p.PutU8(1);  // use_symbolic
  p.PutU8(h.use_dedup);
  p.PutU8(h.salvage);
  p.PutVarU64(h.solver_step_budget);
  p.PutVarU64(h.bucket_deadline_ms);
  p.PutVarU64(h.max_tree_bytes);
  p.PutU32(h.thread_count);
  p.PutVarU64(h.total_intervals);
  p.PutVarU64(h.total_log_bytes);

  Bytes file;
  ByteWriter w(&file);
  w.PutU32(offline::kJournalHeaderMagic);
  w.PutVarU64(payload.size());
  w.PutU64(Fnv1a64(payload.data(), payload.size()));
  w.PutRaw(payload.data(), payload.size());
  return file;
}

}  // namespace sword::oracle
