#include "trace/flusher.h"

#include <algorithm>
#include <chrono>

#include "common/fsutil.h"
#include "compress/frame.h"
#include "trace/governor.h"

namespace sword::trace {

// ----------------------------------------------------------------- BufferPool

BufferPool::~BufferPool() {
  Bytes b;
  while (freelist_.TryGet(&b)) {
    if (memory_) memory_->Release(b.capacity());
  }
}

void BufferPool::InjectAcquireFailures(uint64_t from_call, uint64_t count) {
  fail_from_.store(from_call, std::memory_order_relaxed);
  fail_count_.store(count, std::memory_order_relaxed);
}

Bytes BufferPool::Acquire(size_t capacity) {
  const uint64_t call = acquires_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t fail_from = fail_from_.load(std::memory_order_relaxed);
  if (fail_from != 0 && call >= fail_from &&
      call < fail_from + fail_count_.load(std::memory_order_relaxed)) {
    // Injected allocation failure: the zero-capacity buffer is the same
    // shape a genuinely exhausted allocator would produce; callers must
    // shed the event with accounting, never crash.
    acquire_failures_.fetch_add(1, std::memory_order_relaxed);
    return Bytes();
  }
  Bytes b;
  if (freelist_.TryGet(&b)) {
    recycles_.fetch_add(1, std::memory_order_relaxed);
    b.clear();
    if (b.capacity() < capacity) {
      const size_t before = b.capacity();
      b.reserve(capacity);
      if (memory_) (void)memory_->Charge(b.capacity() - before);
    }
    return b;
  }
  b.reserve(capacity);
  if (memory_) (void)memory_->Charge(b.capacity());
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return b;
}

void BufferPool::Release(Bytes buffer) {
  if (buffer.capacity() == 0) return;
  const size_t capacity = buffer.capacity();
  if (freelist_.TryPut(std::move(buffer))) {
    releases_kept_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Free list full: let the buffer die and un-charge it.
  releases_freed_.fetch_add(1, std::memory_order_relaxed);
  if (memory_) memory_->Release(capacity);
}

BufferPool::Stats BufferPool::ReadStatsOnce() const {
  Stats s;
  s.allocations = allocations_.load(std::memory_order_acquire);
  s.recycles = recycles_.load(std::memory_order_acquire);
  s.releases_kept = releases_kept_.load(std::memory_order_acquire);
  s.releases_freed = releases_freed_.load(std::memory_order_acquire);
  s.free_count = free_count();
  return s;
}

BufferPool::Stats BufferPool::stats() const {
  // Double-read until stable: at quiescence the first pass already agrees;
  // under churn this bounds the skew to one in-progress operation.
  Stats prev = ReadStatsOnce();
  for (int attempt = 0; attempt < 8; attempt++) {
    Stats next = ReadStatsOnce();
    if (next == prev) return next;
    prev = next;
  }
  return prev;
}

// -------------------------------------------------------------------- Flusher

namespace {

uint32_t DefaultWorkers() {
  const uint32_t hw = std::thread::hardware_concurrency();
  return std::min(4u, std::max(1u, hw));
}

}  // namespace

Flusher::Flusher(const FlusherConfig& config)
    : async_(config.async),
      max_queued_jobs_(std::max<size_t>(1, config.max_queued_jobs)),
      backend_(config.backend ? config.backend : &RealFileBackend()),
      retry_policy_{/*max_attempts=*/config.max_io_retries + 1,
                    /*backoff_us=*/config.retry_backoff_us,
                    /*max_backoff_us=*/10 * 1000},
      watchdog_deadline_ms_(config.watchdog_deadline_ms),
      governor_(config.governor),
      pool_(config.max_pooled_buffers, config.memory) {
  if (!async_) return;
  credits_.store(static_cast<int64_t>(max_queued_jobs_),
                 std::memory_order_relaxed);
  const uint32_t n = config.workers ? config.workers : DefaultWorkers();
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    auto w = std::make_unique<Worker>();
    // A lane ring sized to hold EVERY credit can never overflow: jobs in
    // rings never exceed outstanding credits <= max_queued_jobs, even if
    // the hash sends them all to one lane.
    w->ring = std::make_unique<lockfree::MpmcRing<Job>>(max_queued_jobs_);
    workers_.push_back(std::move(w));
  }
  // Threads start only after the vector is fully built: Run() indexes it.
  for (uint32_t i = 0; i < n; i++) {
    workers_[i]->thread = std::thread([this, i] { Run(i); });
  }
}

Flusher::~Flusher() {
  if (!async_) return;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) {
    // Pairs with the worker's check-then-wait under doorbell_mutex: once we
    // hold the mutex the worker is either before its stop_ re-check (sees
    // it) or parked (gets the notify).
    std::lock_guard doorbell(w->doorbell_mutex);
    w->doorbell.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
}

void Flusher::AppendFrame(const std::string& path, Bytes raw, const Compressor* codec,
                          uint8_t payload_format, uint64_t event_count) {
  Job job;
  job.path = path;
  job.data = std::move(raw);
  job.codec = codec ? codec : DefaultCompressor();
  job.payload_format = payload_format;
  job.event_count = event_count;
  job.recycle = true;
  Enqueue(std::move(job));
}

void Flusher::Append(const std::string& path, Bytes data) {
  Job job;
  job.path = path;
  job.data = std::move(data);
  Enqueue(std::move(job));
}

size_t Flusher::LaneFor(const std::string& path) const {
  // Stable shard: every frame for one file lands in the same FIFO lane, so
  // per-file append order is submission order.
  return Fnv1a64(path.data(), path.size()) % workers_.size();
}

void Flusher::Enqueue(Job job) {
  const size_t raw_bytes = job.data.size();
  job.ticket = jobs_enqueued_.fetch_add(1, std::memory_order_relaxed);
  bytes_in_.fetch_add(raw_bytes, std::memory_order_relaxed);
  if (!async_) {
    DoJob(job, nullptr);
    if (job.recycle) pool_.Release(std::move(job.data));
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    if (governor_) governor_->Evaluate();
    return;
  }
  // Backpressure: acquire one credit. The CAS loop is the entire fast path
  // - no mutex, no condvar - and degrades to yield/sleep backoff only when
  // the pipeline is genuinely full. With a watchdog deadline configured the
  // wait is bounded: a hung device converts this frame into an accounted
  // drop instead of stalling the producer forever.
  bool counted_block = false;
  bool acquired = false;
  std::chrono::steady_clock::time_point block_start;
  uint32_t spins = 0;
  for (;;) {
    int64_t credits = credits_.load(std::memory_order_acquire);
    if (credits > 0 &&
        credits_.compare_exchange_weak(credits, credits - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      acquired = true;
      break;
    }
    if (!counted_block) {
      counted_block = true;
      producer_blocks_.fetch_add(1, std::memory_order_relaxed);
      block_start = std::chrono::steady_clock::now();
      if (governor_) governor_->NoteCreditStall();
    }
    if (watchdog_deadline_ms_ > 0 &&
        std::chrono::steady_clock::now() - block_start >=
            std::chrono::milliseconds(watchdog_deadline_ms_)) {
      break;  // watchdog expired while starved; drop below
    }
    if (spins++ < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  if (counted_block) {
    const uint64_t waited =
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - block_start)
                                  .count());
    blocked_nanos_.fetch_add(waited, std::memory_order_relaxed);
    if (governor_) governor_->NoteBlockedNanos(waited);
  }
  if (!acquired) {
    WatchdogDrop(std::move(job));
    return;
  }
  // Holding a credit guarantees ring space (ring capacity >= total
  // credits); the spin only covers a consumer mid-pop on the target slot.
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  Worker& w = *workers_[LaneFor(job.path)];
  while (!w.ring->TryPush(std::move(job))) std::this_thread::yield();
  // Doorbell, Dekker-paired with the worker's sleep sequence: our push
  // then fence then sleeping-load vs. its sleeping-store then fence then
  // empty-check. At least one side always sees the other.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_relaxed) != 0) {
    std::lock_guard doorbell(w.doorbell_mutex);
    w.doorbell.notify_one();
  }
}

void Flusher::WatchdogDrop(Job job) {
  // The frame never entered a lane: no credit was taken and in_flight_ was
  // not bumped, so Drain() stays correct. The loss is booked exactly like
  // an unrecoverable I/O failure - sticky status, drop counters, pending
  // gap marker - and the buffer is recycled.
  watchdog_drops_.fetch_add(1, std::memory_order_relaxed);
  if (governor_) governor_->NoteWatchdogDrop();
  RecordDrop(job, Status::Unavailable(
                      "flusher watchdog: producer blocked past deadline"));
  if (job.recycle) pool_.Release(std::move(job.data));
}

void Flusher::Drain() {
  if (!async_) return;
  // Poll with backoff: Drain is the cold path (finalize, tests), and a
  // condvar here would put a mutex back on every job completion.
  uint32_t spins = 0;
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    if (spins++ < 128) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Status Flusher::status() const {
  std::lock_guard lock(mutex_);
  return status_;
}

DropRecord Flusher::DroppedFor(const std::string& path) const {
  std::lock_guard lock(mutex_);
  auto it = dropped_.find(path);
  return it == dropped_.end() ? DropRecord{} : it->second;
}

void Flusher::CompleteJob(Job job, Worker* worker) {
  const size_t raw_bytes = job.data.size();
  const bool compressed = job.codec != nullptr;
  DoJob(job, worker);
  if (job.recycle) pool_.Release(std::move(job.data));
  if (compressed && worker) {
    worker->bytes_in.fetch_add(raw_bytes, std::memory_order_relaxed);
  }
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  // Governor tick on the worker thread: jobs are chunky (whole trace
  // buffers), so one mutex-guarded Evaluate per job is off the producers'
  // hot path entirely.
  if (governor_) governor_->Evaluate();
}

void Flusher::Run(uint32_t index) {
  Worker& me = *workers_[index];
  for (;;) {
    Job job;
    if (me.ring->TryPop(&job)) {
      // Release the credit at dequeue (the job left the queue); the release
      // pairs with producers' acquire CAS so a freed ring slot is visible
      // to them.
      credits_.fetch_add(1, std::memory_order_release);
      CompleteJob(std::move(job), &me);
      // Release-ordered so Drain's acquire load also orders the job's
      // stats/IO before a drained observer reads them.
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Producers enqueue-then-set-stop is not a supported shutdown order,
      // but a ring drained here stays drained: one last check suffices.
      if (me.ring->Empty()) return;
      continue;
    }
    // Park: announce, re-check, then wait. The seq_cst fence pairs with the
    // producer's post-push fence (see Enqueue).
    std::unique_lock doorbell(me.doorbell_mutex);
    me.sleeping.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (me.ring->Empty() && !stop_.load(std::memory_order_relaxed)) {
      // Bounded wait as a belt-and-braces backstop; the doorbell is the
      // real wake path.
      me.doorbell.wait_for(doorbell, std::chrono::milliseconds(50));
    }
    me.sleeping.store(0, std::memory_order_relaxed);
    // Idle governor tick: the 50 ms backstop doubles as the cadence for
    // calm-streak recovery evaluations when no jobs are flowing.
    if (governor_) governor_->Evaluate();
  }
}

Status Flusher::AppendChecked(const std::string& path, const uint8_t* data,
                              size_t n) {
  // Remember the pre-append size so an ultimately-failed append can be
  // rolled back: a torn half-frame would cost the reader its offset trust
  // for everything after it, which is far worse than the lost frame.
  auto before = FileSize(path);
  const uint64_t old_size = before.ok() ? before.value() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  AppendOutcome out = AppendWithRetry(*backend_, path, data, n, retry_policy_);
  if (governor_) {
    governor_->NoteAppendLatency(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  if (out.retries > 0) io_retries_.fetch_add(out.retries);
  if (out.status.ok()) {
    bytes_written_.fetch_add(n);
    appends_.fetch_add(1);
    return Status::Ok();
  }
  if (out.written > 0) (void)backend_->Truncate(path, old_size);
  return out.status;
}

Status Flusher::WritePathData(const Job& job, const uint8_t* data, size_t n) {
  // If earlier frames for this path were dropped, their gap marker must land
  // before this frame - otherwise every logical offset after the hole would
  // silently shift and the analyzer would attribute events to the wrong
  // intervals. A watchdog drop is booked by the producer while older frames
  // of the same path may still sit in the lane, so only drops with an older
  // ticket belong before this frame; the rest wait for a later one. Every
  // older drop was booked before this job was dequeued (I/O drops by this
  // worker, watchdog drops by the producer before it enqueued this job), and
  // a newer one cannot match, so the read-then-erase below is race-free.
  // The counter guard keeps the mutex off the no-drops steady state.
  const auto before_job = [&](const PendingGap& p) {
    return p.ticket < job.ticket;
  };
  if (pending_gap_paths_.load(std::memory_order_acquire) > 0) {
    DropRecord gap;
    {
      std::lock_guard lock(mutex_);
      auto it = pending_gaps_.find(job.path);
      if (it != pending_gaps_.end()) {
        for (const PendingGap& p : it->second) {
          if (before_job(p)) gap.Add(p.drop);
        }
      }
    }
    if (gap.frames > 0) {
      Bytes gap_frame;
      WriteGapFrame(&gap_frame, gap.raw_bytes, gap.events);
      SWORD_RETURN_IF_ERROR(
          AppendChecked(job.path, gap_frame.data(), gap_frame.size()));
      gap_frames_.fetch_add(1);
      // A gap marker is loss ACCOUNTING: losing it to a later crash would
      // silently shift every logical offset after the hole, so it is forced
      // to stable storage now via the same transient-retry helper as the
      // write path. Cold path - gaps only exist after unrecoverable errors.
      const SyncOutcome sync =
          SyncWithRetry(*backend_, job.path, retry_policy_);
      syncs_.fetch_add(1, std::memory_order_relaxed);
      if (sync.retries > 0) {
        sync_retries_.fetch_add(sync.retries, std::memory_order_relaxed);
      }
      std::lock_guard lock(mutex_);
      auto it = pending_gaps_.find(job.path);
      std::erase_if(it->second, before_job);
      if (it->second.empty()) {
        pending_gaps_.erase(it);
        pending_gap_paths_.fetch_sub(1, std::memory_order_release);
      }
    }
  }
  return AppendChecked(job.path, data, n);
}

void Flusher::RecordDrop(const Job& job, const Status& status) {
  frames_dropped_.fetch_add(1);
  events_dropped_.fetch_add(job.event_count);
  bytes_dropped_.fetch_add(job.data.size());
  const DropRecord drop{job.data.size(), job.event_count, 1};
  std::lock_guard lock(mutex_);
  if (status_.ok()) status_ = status;
  std::vector<PendingGap>& pending = pending_gaps_[job.path];
  if (pending.empty()) pending_gap_paths_.fetch_add(1, std::memory_order_release);
  pending.push_back({job.ticket, drop});
  dropped_[job.path].Add(drop);
}

void Flusher::DoJob(const Job& job, Worker* worker) {
  Status status;
  if (job.codec) {
    Bytes local_frame;
    Bytes& frame = worker ? worker->frame : local_frame;
    frame.clear();
    status = WriteFrame(*job.codec, job.data.data(), job.data.size(), &frame,
                        job.payload_format, worker ? &worker->scratch : nullptr);
    if (status.ok()) status = WritePathData(job, frame.data(), frame.size());
  } else {
    status = WritePathData(job, job.data.data(), job.data.size());
  }
  // Unrecoverable failure: the frame is discarded, but with exact accounting
  // and a pending gap marker - NOT silently, and NOT taking every later
  // frame down with it (the next job for this path tries the disk again).
  if (!status.ok()) RecordDrop(job, status);
}

FlusherStats Flusher::stats() const {
  FlusherStats s;
  s.jobs_enqueued = jobs_enqueued_.load(std::memory_order_acquire);
  s.jobs_completed = jobs_completed_.load(std::memory_order_acquire);
  s.producer_blocks = producer_blocks_.load(std::memory_order_relaxed);
  s.blocked_nanos = blocked_nanos_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load();
  s.appends = appends_.load();
  s.io_retries = io_retries_.load();
  s.frames_dropped = frames_dropped_.load();
  s.events_dropped = events_dropped_.load();
  s.bytes_dropped = bytes_dropped_.load();
  s.gap_frames = gap_frames_.load();
  s.watchdog_drops = watchdog_drops_.load(std::memory_order_relaxed);
  s.syncs = syncs_.load(std::memory_order_relaxed);
  s.sync_retries = sync_retries_.load(std::memory_order_relaxed);
  if (async_) {
    const int64_t credits = credits_.load(std::memory_order_relaxed);
    const int64_t held = static_cast<int64_t>(max_queued_jobs_) - credits;
    s.queued_now = held > 0 ? static_cast<size_t>(held) : 0;
  }
  s.worker_bytes_in.reserve(workers_.size());
  for (const auto& w : workers_) {
    s.worker_bytes_in.push_back(w->bytes_in.load(std::memory_order_acquire));
  }
  return s;
}

}  // namespace sword::trace
