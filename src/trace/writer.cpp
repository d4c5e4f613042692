#include "trace/writer.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/fsutil.h"
#include "compress/frame.h"
#include "trace/governor.h"
#include "trace/seal.h"

namespace sword::trace {
namespace {

/// A site's (pc, flags, size) packed into one word, so a slot's site is
/// checked with one compare.
uint64_t SiteKey(uint32_t pc, uint8_t flags, uint8_t size) {
  return (static_cast<uint64_t>(pc) << 16) |
         (static_cast<uint64_t>(flags) << 8) | size;
}

size_t SlotOfKey(uint64_t key) {
  // The address is left out on purpose: one site always maps to one slot, so
  // a site never has two pending runs, and a live run of the site holds its
  // most recent access - which is what makes dropping a repeat sound.
  uint64_t h = key * 0x9e3779b97f4a7c15ull;  // splitmix64 finalizer
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (ThreadTraceWriter::kSiteSlots - 1);
}

}  // namespace

size_t ThreadTraceWriter::SiteSlot(uint32_t pc, uint8_t flags, uint8_t size) {
  return SlotOfKey(SiteKey(pc, flags, size));
}

ThreadTraceWriter::ThreadTraceWriter(uint32_t thread_id, const WriterConfig& config)
    : thread_id_(thread_id),
      config_(config),
      capacity_events_(config.buffer_bytes / kEventBytes),
      capacity_bytes_(capacity_events_ * kEventBytes),
      max_event_bytes_(config.format >= kTraceFormatV3   ? kMaxEventBytesV3
                       : config.format == kTraceFormatV2 ? kMaxEventBytesV2
                                                         : kEventBytes),
      fastpath_(config.format >= kTraceFormatV3) {
  assert(config_.flusher && "a Flusher is required");
  assert(capacity_events_ > 0 && "buffer too small for a single event");
  assert((config_.format >= kTraceFormatV1 && config_.format <= kTraceFormatV3) &&
         "unknown trace format");
  assert(capacity_bytes_ >= max_event_bytes_ && "buffer too small for one encoded event");
  if (fastpath_) {
    runs_ = std::make_unique<PendingRun[]>(kSiteSlots);
    live_ = std::make_unique<uint8_t[]>(kSiteSlots);
  }
  if (config_.governor) shed_ = std::make_unique<ShedSlot[]>(kSiteSlots);
  if (!config_.codec) config_.codec = DefaultCompressor();
  if (!config_.backend) config_.backend = &RealFileBackend();
  // The bounded charge: one fixed buffer, owned by the flusher's pool so the
  // accounting follows the buffer through the flush pipeline.
  buffer_ = config_.flusher->pool().Acquire(capacity_bytes_);
  meta_.thread_id = thread_id;
  meta_.log_format = config_.format;
  // Start the log file empty so appends from a previous run never leak in,
  // and drop an empty meta checkpoint so a process killed before the first
  // barrier interval still leaves a well-formed (if empty) trace.
  (void)config_.backend->WriteWhole(config_.log_path, Bytes{});
  Bytes snapshot = EncodeMetaSnapshot();
  (void)WriteFileAtomic(config_.meta_path, snapshot, config_.backend);
  if (config_.crash_seal) {
    seal_slot_ =
        SealRegistry::Instance().Register(config_.log_path, config_.meta_path);
    // An image exists from the very first event on: a crash before the first
    // checkpoint still seals to a well-formed (empty) crash-tagged meta.
    PublishSealImage(std::move(snapshot));
  }
}

ThreadTraceWriter::~ThreadTraceWriter() { (void)Finish(); }

void ThreadTraceWriter::Append(const RawEvent& event) {
  // Out-of-band events are fences: every access before one must be encoded
  // before it.
  MaterializeAll();
  EncodeToBuffer(event);
}

void ThreadTraceWriter::PoolExhaustedShed() {
  // The pool returned no memory (exhausted allocator, or deterministic
  // injection). Shed the event WITH accounting — logical_offset_ and
  // events_logged_ stay untouched, so segment coordinates remain exact and
  // the loss is visible in the meta totals — rather than growing an
  // unaccounted buffer or crashing the traced application.
  pool_shed_.Add(1);
  degraded_dropped_.Add(1);
  if (open_segment_) segment_degraded_++;
  if (config_.governor) config_.governor->NotePoolExhausted();
}

bool ThreadTraceWriter::MakeRoom() {
  if (buffer_.capacity() == 0) {
    buffer_ = config_.flusher->pool().Acquire(capacity_bytes_);
    if (buffer_.capacity() == 0) return false;
  }
  // Flush on the logical event-count capacity (the paper's knob) or when the
  // next event might not fit the reserved bytes (tiny-buffer guard; for v1
  // the two coincide).
  if (buffer_events_ >= capacity_events_ ||
      buffer_fill_ + max_event_bytes_ > capacity_bytes_) {
    FlushBuffer(true);
    if (buffer_.capacity() == 0) return false;  // reacquire failed
  }
  // Open the next stretch of the buffer for writing. Stretches of a few KB
  // keep the zero-fill amortized without touching pages ahead of the events.
  constexpr size_t kStretchBytes = 4096;
  buffer_.resize(std::min<size_t>(capacity_bytes_, buffer_fill_ + kStretchBytes));
  return true;
}

void ThreadTraceWriter::EncodeToBuffer(const RawEvent& event) {
  if (buffer_fill_ + max_event_bytes_ > buffer_.size() ||
      buffer_events_ >= capacity_events_) {
    if (!MakeRoom()) {
      PoolExhaustedShed();
      return;
    }
  }
  // The one encode call per format, straight into the buffer's headroom.
  uint8_t* const begin = buffer_.data() + buffer_fill_;
  uint8_t* const end = config_.format == kTraceFormatV1
                           ? EncodeEvent(event, begin)
                           : EncodeDeltaEvent(event, codec_state_, begin);
  const size_t n = static_cast<size_t>(end - begin);
  buffer_fill_ += n;
  logical_offset_ += n;
  buffer_events_++;
  events_logged_.Add(1);
}

void ThreadTraceWriter::Materialize(const PendingRun& run) {
  assert(run.count != 0 && "materializing an empty run");
  if (run.count == 1) {
    EncodeToBuffer(RawEvent::Access(run.base, run.size(), run.flags(), run.pc()));
  } else {
    EncodeToBuffer(RawEvent::Run(run.base, run.stride, run.count, run.size(),
                                 run.flags(), run.pc()));
    runs_emitted_.Add(1);
    events_coalesced_.Add(run.count - 1);
  }
}

// The crash drain (Finalize from a signal handler) can run MaterializeAll in
// the middle of CoalesceRun on the owning thread. The two are ordered so that
// it never encodes a half-written run or a 0-count run, and never indexes
// past the table: a run's count is written after its other fields and before
// its slot is listed, an evicted run leaves its slot empty before it is
// encoded, MaterializeAll skips empty slots, and the list length is read
// once and bounded.

void ThreadTraceWriter::MaterializeAll() {
  const size_t n = std::min(live_count_, kSiteSlots);
  for (size_t i = 0; i < n; i++) {
    const size_t slot = live_[i];
    listed_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    PendingRun& run = runs_[slot];
    if (run.count == 0) continue;  // emptied by an interrupted eviction
    const PendingRun pending = run;
    run.count = 0;
    Materialize(pending);
  }
  live_count_ = 0;
}

void ThreadTraceWriter::CoalesceRun(size_t slot, uint64_t key, uint64_t base,
                                    uint64_t stride, uint64_t count) {
  PendingRun& run = runs_[slot];
  const uint64_t last = base + stride * (count - 1);
  if (run.count != 0) {
    if (run.key == key && base > run.last) {
      // The elements continue the run when the step into `base` is the
      // run's stride (a single adopts it) and, for several elements, the
      // elements keep stepping by it.
      const uint64_t step = base - run.last;
      if ((run.count == 1 || step == run.stride) &&
          (count == 1 || stride == step)) {
        run.stride = step;
        run.count += count;
        run.last = last;
        return;
      }
    }
    // Another site, or a step the run cannot take: the resident run is
    // final. Emit it and let the new elements take the slot.
    const PendingRun resident = run;
    run.count = 0;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    Materialize(resident);
  }
  // The count goes in last: an evicted slot is still listed while it refills.
  run.base = base;
  run.stride = count == 1 ? 0 : stride;
  run.last = last;
  run.key = key;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  run.count = count;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const uint64_t bit = uint64_t{1} << (slot % 64);
  if ((listed_[slot / 64] & bit) == 0) {
    // Mark first, then append: a drain between the two finds the slot
    // unlisted and leaves its mark, so the append below stays the one entry.
    listed_[slot / 64] |= bit;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    const size_t n = std::min(live_count_, kSiteSlots - 1);
    live_[n] = static_cast<uint8_t>(slot);
    live_count_ = n + 1;
  }
}

void ThreadTraceWriter::PollGovernor() {
  // One atomic load per poll: the packed word carries (seq, reason, level)
  // together, so a transition is recorded with exactly the level/reason pair
  // that caused it even if another transition races in right after.
  const uint64_t packed = config_.governor->PackedState();
  current_level_ = DegradationGovernor::PackedLevel(packed);
  const uint64_t seq = DegradationGovernor::PackedSeq(packed);
  if (seq != governor_seq_) {
    governor_seq_ = seq;
    meta_.transitions.push_back(DegradationTransition{
        current_level_, DegradationGovernor::PackedReason(packed),
        serialized_count_});
  }
  if (open_segment_ && current_level_ > segment_max_level_) {
    segment_max_level_ = current_level_;
  }
}

bool ThreadTraceWriter::ShedAccess(uint64_t key) {
  ShedSlot& slot = shed_[SlotOfKey(key)];
  if (slot.gen != shed_gen_ || slot.key != key) {
    // New site (or a direct-map collision evicted the old one): restart its
    // per-segment count. The FIRST event from a site is always kept at
    // every level, so each active site stays visible in the trace.
    slot = ShedSlot{key, shed_gen_, 0};
  }
  slot.count++;
  const GovernorConfig& gc = config_.governor->config();
  switch (static_cast<DegradationLevel>(current_level_)) {
    case DegradationLevel::kFull:
      return false;
    case DegradationLevel::kAggressive:
      return slot.count > gc.aggressive_site_cap;
    case DegradationLevel::kSampling:
      return (slot.count - 1) % gc.sample_keep_period != 0;
    case DegradationLevel::kSummary:
      return slot.count > 1;
  }
  return false;
}

void ThreadTraceWriter::AppendAccess(uint64_t addr, uint8_t size, uint8_t flags,
                                     uint32_t pc) {
  if (!open_segment_) {
    // An access with no segment has no (data_begin, size) home; appending it
    // anyway would silently skew the NEXT segment's accounting. Count and
    // drop instead; the total surfaces in stats and the meta header.
    accesses_dropped_.Add(1);
    return;
  }
  const uint64_t key = SiteKey(pc, flags, size);
  if (config_.governor) {
    PollGovernor();
    if (current_level_ != 0 && ShedAccess(key)) {
      // Degradation only ever REMOVES events: a kept event is untouched, so
      // every race found in a degraded interval is real. The shed count is
      // exact (per segment and in the meta totals).
      segment_degraded_++;
      degraded_dropped_.Add(1);
      return;
    }
  }
  if (!fastpath_) {
    EncodeToBuffer(RawEvent::Access(addr, size, flags, pc));
    return;
  }
  // Strided-run coalescer, extend check inline. The extension rules mirror
  // the interval tree's continuation logic: a fresh single adopts the first
  // ascending step as its stride; an established run extends only on an
  // exact stride match. A new site, a broken run or an eviction goes out of
  // line.
  const size_t index = SlotOfKey(key);
  PendingRun& run = runs_[index];
  if (run.count != 0 && run.key == key) {
    if (addr == run.last) {
      // A live run holds its site's most recent access, with no fence since:
      // the summarizer folds a repeat of it into the run's node as a hit
      // (no structural change), so dropping it cannot change any report.
      events_suppressed_.Add(1);
      return;
    }
    if (addr > run.last) {
      if (run.count == 1) {
        run.stride = addr - run.last;
        run.count = 2;
        run.last = addr;
        return;
      }
      if (addr - run.last == run.stride) {
        run.count++;
        run.last = addr;
        return;
      }
    }
  }
  CoalesceRun(index, key, addr, 0, 1);
}

void ThreadTraceWriter::AppendRange(uint64_t addr, uint64_t bytes,
                                    uint8_t flags, uint32_t pc) {
  constexpr uint64_t kChunk = 128;  // the historical per-event range chunk
  if (bytes == 0) return;
  const uint64_t chunks = bytes / kChunk;
  const uint64_t tail = bytes % kChunk;
  if (!open_segment_) {
    accesses_dropped_.Add(chunks + (tail ? 1 : 0));
    return;
  }
  if (config_.governor) {
    PollGovernor();
    // One shed decision for the whole range (it is one site); the count
    // shed matches what the v1/v2 chunk loop would have appended.
    if (current_level_ != 0 &&
        ShedAccess(SiteKey(pc, flags, static_cast<uint8_t>(kChunk)))) {
      const uint64_t shed = chunks + (tail ? 1 : 0);
      segment_degraded_ += shed;
      degraded_dropped_.Add(shed);
      return;
    }
  }
  if (!fastpath_) {
    // v1/v2: the historical loop, one event per <= 128-byte piece.
    uint64_t a = addr;
    for (uint64_t left = bytes; left > 0;) {
      const uint8_t c = left > kChunk ? kChunk : static_cast<uint8_t>(left);
      EncodeToBuffer(RawEvent::Access(a, c, flags, pc));
      a += c;
      left -= c;
    }
    return;
  }
  // The chunk run and the tail are two sites; each joins its own pending
  // run, so a loop of small ranges folds like a loop of accesses.
  if (chunks != 0) {
    const uint64_t key = SiteKey(pc, flags, kChunk);
    CoalesceRun(SlotOfKey(key), key, addr, kChunk, chunks);
  }
  if (tail) {
    const uint64_t key = SiteKey(pc, flags, static_cast<uint8_t>(tail));
    CoalesceRun(SlotOfKey(key), key, addr + chunks * kChunk, 0, 1);
  }
}

void ThreadTraceWriter::FlushBuffer(bool reacquire) {
  if (buffer_fill_ == 0) return;
  buffer_.resize(buffer_fill_);  // drop the unwritten tail of the stretch
  // Hand the raw buffer to the flusher; compression happens off-thread
  // (paper SIII-A: "compressed and asynchronously written out"). The buffer
  // returns to the pool once written, and we take a recycled one back. The
  // event count rides along so a frame the flusher cannot get onto the disk
  // is accounted for exactly.
  Bytes raw;
  raw.swap(buffer_);
  config_.flusher->AppendFrame(config_.log_path, std::move(raw), config_.codec,
                               config_.format, buffer_events_);
  if (reacquire) buffer_ = config_.flusher->pool().Acquire(capacity_bytes_);
  buffer_fill_ = 0;
  buffer_events_ = 0;
  codec_state_ = EventCodecState{};  // frames are independently decodable
  flushes_.Add(1);
}

void ThreadTraceWriter::FlushEvents() {
  if (finished_) return;
  // Pending coalescer runs are not in the buffer yet; a drain (crash
  // handler, Finalize) must not lose them.
  MaterializeAll();
  // No reacquire: this is the drain path (Finalize, the crash handler),
  // where grabbing a fresh buffer while the flushed one is still in flight
  // would transiently double the pool charge. If the thread does log again,
  // Append lazily takes a new buffer.
  FlushBuffer(/*reacquire=*/false);
}

Bytes ThreadTraceWriter::EncodeMetaSnapshot() const {
  const DropRecord dropped = config_.flusher->DroppedFor(config_.log_path);
  MetaHeaderInfo info;
  info.thread_id = thread_id_;
  info.log_format = config_.format;
  info.events_dropped = dropped.events;
  info.bytes_dropped = dropped.raw_bytes;
  info.accesses_dropped = accesses_dropped_.Get();
  info.degraded_dropped = degraded_dropped_.Get();
  info.transitions = &meta_.transitions;
  info.record_count = serialized_count_;
  ByteWriter w;
  EncodeMetaHeader(w, info);
  w.PutRaw(serialized_records_.data(), serialized_records_.size());
  return std::move(w.buffer());
}

void ThreadTraceWriter::PublishSealImage(Bytes snapshot) {
  if (seal_slot_ == SealRegistry::kNoSlot) return;
  // The sealed image is the checkpoint with the crash-sealed flag set; its
  // signo byte stays 0 for the signal handler to patch in place.
  snapshot[kMetaFlagsOffset] |= kMetaFlagCrashSealed;
  SealRegistry::Instance().Publish(seal_slot_, snapshot);
}

void ThreadTraceWriter::BeginSegment(const IntervalMeta& meta) {
  assert(!open_segment_ && "close the previous segment first");
  assert(live_count_ == 0 && "coalescer pending outside a segment");
  meta_.intervals.push_back(meta);
  meta_.intervals.back().data_begin = logical_offset_;
  meta_.intervals.back().data_size = 0;
  meta_.intervals.back().event_count = 0;
  segment_begin_events_ = events_logged_.Get();
  open_segment_ = true;
  segment_degraded_ = 0;
  segment_max_level_ = 0;
  if (config_.governor) {
    if (++shed_gen_ == 0) {  // generation wrap: actually clear the slots
      for (size_t i = 0; i < kSiteSlots; i++) shed_[i] = ShedSlot{};
      shed_gen_ = 1;
    }
    PollGovernor();  // folds in transitions; seeds segment_max_level_
  }
}

void ThreadTraceWriter::EndSegment() {
  assert(open_segment_);
  MaterializeAll();  // the runs belong to this segment's byte span
  if (config_.governor) PollGovernor();  // capture a mid-segment transition
  IntervalMeta& m = meta_.intervals.back();
  m.data_size = logical_offset_ - m.data_begin;
  m.event_count = events_logged_.Get() - segment_begin_events_;
  m.degradation_level = segment_max_level_;
  m.degraded_dropped = segment_degraded_;
  open_segment_ = false;
  segment_degraded_ = 0;
  // Empty segments carry no accesses and cannot participate in a race;
  // dropping them keeps meta files proportional to useful data. A segment
  // whose events were ALL shed by degradation is kept: its record is the
  // only per-interval evidence of the loss.
  if (m.data_size == 0 && m.degraded_dropped == 0) {
    meta_.intervals.pop_back();
    return;
  }
  ByteWriter w(&serialized_records_);
  m.Serialize(w, /*version=*/4);
  serialized_count_++;
  // Crash-consistency: checkpoint the meta at every closed segment, so a
  // killed process leaves its trace analyzable up to the last barrier
  // interval. The atomic replace means a reader (or the offline analyzer
  // after a kill -9) sees a complete previous checkpoint, never a torn
  // file. The write is best-effort - a failing checkpoint must not take
  // down the traced application; Finish() surfaces persistent meta-write
  // errors.
  Bytes snapshot = EncodeMetaSnapshot();
  (void)WriteFileAtomic(config_.meta_path, snapshot, config_.backend);
  // The crash-seal image tracks checkpoint cadence: publish AFTER the
  // record was serialized so a seal at any instant covers every closed
  // segment up to here.
  PublishSealImage(std::move(snapshot));
}

Status ThreadTraceWriter::Finish() {
  if (finished_) return Status::Ok();
  finished_ = true;
  if (open_segment_) EndSegment();
  FlushBuffer(/*reacquire=*/false);
  // Return the (possibly never-flushed) buffer to the pool so its memory
  // charge is dropped or recycled.
  if (buffer_.capacity() != 0) config_.flusher->pool().Release(std::move(buffer_));
  // The final meta folds in the flusher's drop totals for this log. They are
  // only complete once the flusher has drained; SwordTool::Finalize orders
  // FlushEvents -> Drain -> Finish for exactly that reason (a sync flusher
  // is always complete here).
  Status status = WriteFileAtomic(config_.meta_path, EncodeMetaSnapshot(),
                                  config_.backend);
  // The trace is complete: a crash from here on must NOT replace the final
  // meta with a crash-tagged image.
  if (seal_slot_ != SealRegistry::kNoSlot) {
    SealRegistry::Instance().Unregister(seal_slot_);
    seal_slot_ = SealRegistry::kNoSlot;
  }
  return status;
}

}  // namespace sword::trace
