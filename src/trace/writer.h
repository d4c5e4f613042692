// Per-thread trace writer: the bounded-memory collection core (paper SIII-A).
//
// One ThreadTraceWriter exists per SWORD thread. It owns
//  - a fixed-capacity event buffer (default 2 MB; user-adjustable, the
//    paper's central knob) that is compressed and handed to the Flusher when
//    full - NEVER grown, which is what bounds memory. The buffer comes from
//    the Flusher's BufferPool (which charges it to the tool's MemoryScope);
//    on flush the full buffer is swapped into the pipeline and a recycled
//    one is taken back, so steady-state tracing allocates nothing;
//  - the meta file, an append-only record log (trace/meta.h, SWM7) that
//    gets one record per closed barrier-interval segment. Only the open
//    segment's record and records not yet written stay in memory;
//  - the logical write offset, which is independent of compression and gives
//    every interval its (data_begin, size) coordinates up front.
//
// The buffer's LOGICAL capacity is counted in events - buffer_bytes /
// kEventBytes - regardless of encoding format, so the paper's "2 MB buffer
// = 128K events" knob means the same thing for every format. With the v2
// encoding the same event count occupies far fewer bytes, which is the
// point: fewer flushes, smaller logs. Format v3 adds the per-access fast
// path on top: AppendAccess folds each instrumented access into its site's
// pending run in a per-site strided-run coalescer, so the interleaved sweeps
// of a loop body each log one kAccessRun event instead of thousands of
// access events. The same table is the duplicate filter: a site's pending
// run holds its most recent access, so a repeat of that address before the
// next fence is dropped (the summarizer would only count a hit). Events of
// one site keep their program order; only the interleaving BETWEEN sites
// inside a fence-free stretch changes, and the offline summarizer only ever
// looks within a site.
//
// Thread-compatibility: a writer is driven by exactly one OS thread; only
// the Flusher is shared.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/lockfree.h"
#include "common/status.h"
#include "compress/compressor.h"
#include "trace/event.h"
#include "trace/flusher.h"
#include "trace/meta.h"

namespace sword::trace {

/// Single-writer statistic counter: bumped only by the writer's owning
/// thread with a plain load+store (compiles to an ordinary increment, no
/// lock prefix), while aggregators (SwordTool summing all writers on
/// demand) may read it concurrently without a data race. Cache-line
/// aligned so a reader polling one writer's counter never bounces the
/// line under a DIFFERENT writer's increments (the counters of all
/// writers would otherwise pack densely inside the states_ array).
class alignas(lockfree::kCacheLine) OwnerCounter {
 public:
  void Add(uint64_t n) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

struct WriterConfig {
  std::string log_path;
  std::string meta_path;
  uint64_t buffer_bytes = 2 * 1024 * 1024;  // the paper's default bound
  const Compressor* codec = nullptr;        // null = DefaultCompressor()
  Flusher* flusher = nullptr;               // required
  /// Event encoding (kTraceFormatV*). v3 coalesces per-site runs and drops
  /// repeats; v1/v2 log every access as it comes.
  uint8_t format = kTraceFormatV3;
  /// Write layer for the meta file and log-file initialization; null = the
  /// real filesystem (the flusher has its own backend knob).
  FileBackend* backend = nullptr;
  /// Adaptive degradation governor (not owned; usually the one the tool
  /// also wires into the flusher). When set, AppendAccess/AppendRange poll
  /// its level and shed per-site events at reduced-fidelity levels — every
  /// shed access counted per segment and in the meta totals, every level
  /// change recorded as a meta transition. Null = full fidelity always.
  DegradationGovernor* governor = nullptr;
  /// Register the trace's paths with the fatal-signal SealRegistry, whose
  /// handler appends a crash marker to the log and a sealed record to the
  /// meta. sword-run / SwordTool enable this for production runs.
  bool crash_seal = false;
};

class ThreadTraceWriter {
 public:
  ThreadTraceWriter(uint32_t thread_id, const WriterConfig& config);
  ~ThreadTraceWriter();
  ThreadTraceWriter(const ThreadTraceWriter&) = delete;
  ThreadTraceWriter& operator=(const ThreadTraceWriter&) = delete;

  /// Slots in each per-site table (coalescer, shed counters).
  static constexpr size_t kSiteSlots = 256;
  /// The direct-mapped slot of an access site (pc, flags, size) in every
  /// per-site table.
  static size_t SiteSlot(uint32_t pc, uint8_t flags, uint8_t size);

  uint32_t thread_id() const { return thread_id_; }
  uint8_t format() const { return config_.format; }

  /// Appends one event, flushing the buffer to the log file first if full.
  /// Out-of-band events (mutex ops) are ordering fences: every
  /// pending coalescer run is materialized first, so each access lands on
  /// its side of the fence and no repeat is dropped across a lockset
  /// change.
  void Append(const RawEvent& event);

  /// The per-access fast path: folds one instrumented load/store into its
  /// site's pending run, dropping a repeat of the run's most recent address
  /// (format v3; plain Append otherwise). Outside a segment the access is
  /// counted and dropped - see accesses_dropped().
  void AppendAccess(uint64_t addr, uint8_t size, uint8_t flags, uint32_t pc);

  /// Appends a bulk access over [addr, addr+bytes): a run of 128-byte
  /// chunks plus a tail access, each folded into its own site's pending
  /// run (format v3), or the historical per-chunk event loop (v1/v2).
  /// Equivalent to the chunk loop by construction.
  void AppendRange(uint64_t addr, uint64_t bytes, uint8_t flags, uint32_t pc);

  /// Opens a new barrier-interval segment; data_begin is captured from the
  /// current logical offset. Any open segment must be closed first.
  void BeginSegment(const IntervalMeta& meta);

  /// Closes the open segment, fixing its data_size and event_count.
  void EndSegment();

  bool HasOpenSegment() const { return open_segment_; }

  /// Pushes any buffered events into the flush pipeline without closing the
  /// trace. With an async flusher, call this on every writer, then
  /// Flusher::Drain(), then Finish() - that order lets the final meta see
  /// the complete drop totals for events that failed to hit the disk.
  void FlushEvents();

  /// Flushes remaining events and appends the final drop totals to the meta.
  /// Fails when a meta record is still queued (could not be written).
  /// Idempotent.
  Status Finish();

  // Statistics for the overhead benches and the tool's aggregated stats.
  // events_logged counts ENCODED events (a coalesced run counts once).
  uint64_t events_logged() const { return events_logged_.Get(); }
  uint64_t flushes() const { return flushes_.Get(); }
  uint64_t logical_bytes() const { return logical_offset_; }
  /// Accesses dropped as repeats of their site's most recent address.
  uint64_t events_suppressed() const { return events_suppressed_.Get(); }
  /// Accesses absorbed into run events beyond the first (sum of count-1).
  uint64_t events_coalesced() const { return events_coalesced_.Get(); }
  /// kAccessRun events emitted.
  uint64_t runs_emitted() const { return runs_emitted_.Get(); }
  /// Sites with a pending (not yet encoded) coalescer run; 0 after every
  /// fence.
  size_t pending_runs() const { return live_count_; }
  /// Accesses observed outside any open segment: counted and dropped
  /// (release builds previously corrupted the segment accounting silently).
  uint64_t accesses_dropped() const { return accesses_dropped_.Get(); }
  /// Accesses shed on the degradation governor's orders (exact; also folded
  /// into the per-segment records and the meta totals).
  uint64_t degraded_dropped() const { return degraded_dropped_.Get(); }
  /// Events the writer shed because the buffer pool returned no memory
  /// (deterministic injection or a genuinely exhausted allocator).
  uint64_t pool_shed() const { return pool_shed_.Get(); }
  /// The SealRegistry slot, or SealRegistry::kNoSlot (testing).
  int seal_slot() const { return seal_slot_; }

 private:
  struct PendingRun;

  void FlushBuffer(bool reacquire);
  /// Queues a totals record when a drop total (the flusher's for this log
  /// included) moved since the last one.
  void QueueTotalsIfChanged();
  /// Writes the queued meta records: creates the file while its header has
  /// not landed, appends after that. A failed write keeps the queue, so the
  /// records go out again, in order, ahead of the next one.
  Status WriteMetaQueue();
  /// Re-reads the governor's packed state: queues a meta transition record
  /// when the sequence advanced, and tracks the open segment's max level.
  void PollGovernor();
  /// True when the current degradation level says to shed this access of
  /// site `key`. Counts per-site events in a direct-mapped table reset per
  /// segment.
  bool ShedAccess(uint64_t key);
  /// Books one event shed because the buffer pool returned no memory.
  void PoolExhaustedShed();
  /// Encodes one event into the buffer (flushing first if full) and bumps
  /// the logical offset and event counters. Bypasses the coalescer.
  void EncodeToBuffer(const RawEvent& event);
  /// EncodeToBuffer's slow path: takes a buffer from the pool, flushes a
  /// full one, and opens the next writable stretch so max_event_bytes_ fit
  /// past buffer_fill_. False when the pool has no buffer.
  bool MakeRoom();
  /// Folds `count` accesses of site `key` at base, base+stride, ... into
  /// the pending run of slot `slot`: extends it when the elements continue
  /// it, otherwise materializes the resident run (any site) and starts a
  /// new one.
  void CoalesceRun(size_t slot, uint64_t key, uint64_t base, uint64_t stride,
                   uint64_t count);
  /// Encodes one pending run as a kAccessRun (count >= 2) or a plain
  /// access (count 1).
  void Materialize(const PendingRun& run);
  /// Flushes every live pending run into the buffer, in first-touch order.
  void MaterializeAll();

  const uint32_t thread_id_;
  WriterConfig config_;
  const uint64_t capacity_events_;  // logical capacity: buffer_bytes / 16
  const uint64_t capacity_bytes_;
  const uint64_t max_event_bytes_;  // headroom bound for the format
  const bool fastpath_;             // format >= v3: coalescer legal

  // Encoded events; acquired from the pool. Bytes [0, buffer_fill_) are
  // events, the rest of buffer_.size() is a zeroed stretch the encoder
  // writes into; the flush trims the vector to buffer_fill_.
  Bytes buffer_;
  size_t buffer_fill_ = 0;
  uint64_t buffer_events_ = 0;    // events currently in buffer_
  EventCodecState codec_state_;   // v2/v3 delta state; reset at each flush
  uint64_t logical_offset_ = 0;   // total event bytes ever appended
  IntervalMeta segment_;          // the open segment's record
  uint64_t records_kept_ = 0;     // interval records written or queued
  // Framed meta records not on disk yet; empty after every successful write.
  Bytes meta_queue_;
  bool meta_created_ = false;     // the header record has landed
  MetaTotals totals_queued_;      // the totals of the last totals record
  bool open_segment_ = false;
  uint64_t segment_begin_events_ = 0;
  bool finished_ = false;

  // Strided-run coalescer: one pending run per site, direct-mapped by
  // SiteSlot (a colliding site evicts the resident: its run is materialized
  // first). A site has at most one pending run and emits it before starting
  // the next, so each site's events stay in program order; runs of different
  // sites may leave in a different interleaving. Every fence (out-of-band
  // Append, EndSegment, FlushEvents) materializes all live runs, so no access
  // crosses a lockset change or a segment end, and no repeat is dropped
  // across one.
  struct PendingRun {
    uint64_t base = 0;
    uint64_t stride = 0;
    uint64_t count = 0;  // 0 = empty
    uint64_t last = 0;   // address of the most recent element
    uint64_t key = 0;    // the site: (pc << 16) | (flags << 8) | size

    uint32_t pc() const { return static_cast<uint32_t>(key >> 16); }
    uint8_t flags() const { return static_cast<uint8_t>(key >> 8); }
    uint8_t size() const { return static_cast<uint8_t>(key); }
  };
  std::unique_ptr<PendingRun[]> runs_;  // null below format v3
  // Occupied run slots in first-touch order, so a fence visits only them.
  // Non-empty only inside an open segment. `listed_` has one bit per slot
  // that is in `live_`, so a slot is listed once however often it is
  // evicted and refilled.
  std::unique_ptr<uint8_t[]> live_;
  static_assert(kSiteSlots <= 256, "live_ holds slot indices as uint8_t");
  static_assert((kSiteSlots & (kSiteSlots - 1)) == 0, "SiteSlot masks");
  size_t live_count_ = 0;
  uint64_t listed_[kSiteSlots / 64] = {};

  // --- adaptive degradation (config_.governor != null) ---
  // Per-site event counters for the reduced-fidelity levels, direct-mapped
  // like the coalescer (collisions merely reset a site's count — the shed
  // decision stays sound, only the shed VOLUME is approximate).
  struct ShedSlot {
    uint64_t key = 0;    // the site, packed like PendingRun::key
    uint32_t gen = 0;    // live iff == shed_gen_
    uint32_t count = 0;  // accesses seen from this site this segment
  };
  std::unique_ptr<ShedSlot[]> shed_;  // allocated iff governor present
  uint32_t shed_gen_ = 1;
  uint64_t governor_seq_ = 0;        // last transition seq folded into meta
  uint8_t current_level_ = 0;        // cached from the last poll
  uint8_t segment_max_level_ = 0;    // highest level while segment open
  uint64_t segment_degraded_ = 0;    // shed from the open segment

  int seal_slot_ = -1;  // SealRegistry slot (kNoSlot when not sealing)

  OwnerCounter events_logged_;
  OwnerCounter flushes_;
  OwnerCounter events_suppressed_;
  OwnerCounter events_coalesced_;
  OwnerCounter runs_emitted_;
  OwnerCounter accesses_dropped_;
  OwnerCounter degraded_dropped_;
  OwnerCounter pool_shed_;
};

}  // namespace sword::trace
