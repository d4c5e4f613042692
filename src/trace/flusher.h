// Asynchronous log-flush pipeline.
//
// When a thread's trace buffer fills, the buffer is handed to a pool of I/O
// workers which COMPRESS it and append the framed result to the thread's log
// file - the application thread resumes immediately, which is the paper's
// "compressed and asynchronously written out" design, scaled past the single
// flusher thread: with many producer threads one compressor becomes the
// bottleneck and backpressure stalls the application, which is exactly the
// overhead the paper claims to avoid.
//
// Ordering: jobs are sharded by destination path (stable hash -> per-worker
// FIFO lane), so appends to any single log file happen in submission order
// while different threads' files compress and write in parallel.
//
// Coordination is lock-free on the hot path: each lane is a bounded MPMC
// ring with per-slot sequence numbers (lockfree::MpmcRing; used MPSC here),
// backpressure is a credit counter (one credit = one queued job,
// CAS-acquired by producers, released at dequeue), and a worker that finds
// its ring empty parks on a per-worker doorbell (Dekker-paired sleeping flag
// + condvar, so producers touch no mutex unless the worker is actually
// asleep). Enqueue is wait-free when credits are available. Besides the
// doorbells, one mutex guards the cold state: per-path drop records and the
// sticky status.
//
// Memory is bounded end to end:
//  - global backpressure: at most `max_queued_jobs` buffers may be queued
//    across all lanes; producers block once the queue is full, which bounds
//    trace memory to ~queue_depth x buffer_size instead of growing without
//    limit. Block count and blocked time are surfaced in FlusherStats. An
//    optional watchdog deadline turns a wait that outlives it into an
//    accounted drop.
//  - a BufferPool recycles event buffers: writers swap their full buffer in
//    and take a recycled one back, so steady-state flushing performs no
//    2 MB allocations; every pooled buffer is charged to the configured
//    MemoryScope, and the free list is capped.
//  - per-worker CompressScratch reuses the codec working memory (lzs hash
//    chains, frame staging) across jobs.
//
// Drain() blocks until everything reached the filesystem. A synchronous mode
// compresses+writes inline on the calling thread, for the buffer-size
// ablation which wants I/O on the critical path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/lockfree.h"
#include "common/memtrack.h"
#include "common/status.h"
#include "compress/compressor.h"

namespace sword::trace {

class DegradationGovernor;

/// Recycles byte buffers between trace writers and flusher workers. All
/// buffers that exist because of the pool (handed out or free-listed) are
/// charged to `memory`, so the bounded-memory accounting sees the real
/// buffer population, not just the writers' nominal capacity. Thread-safe
/// and lock-free: the free list is a bounded lockfree::FreeList.
class BufferPool {
 public:
  static constexpr size_t kDefaultMaxFree = 16;

  /// Coherent snapshot of the pool counters (see stats()).
  struct Stats {
    uint64_t allocations = 0;      // fresh buffer allocations
    uint64_t recycles = 0;         // Acquire() served from the free list
    uint64_t releases_kept = 0;    // Release() parked the buffer
    uint64_t releases_freed = 0;   // Release() dropped it (list full)
    size_t free_count = 0;         // buffers parked right now

    bool operator==(const Stats& o) const {
      return allocations == o.allocations && recycles == o.recycles &&
             releases_kept == o.releases_kept &&
             releases_freed == o.releases_freed && free_count == o.free_count;
    }
  };

  explicit BufferPool(size_t max_free = kDefaultMaxFree,
                      MemoryScope* memory = nullptr)
      : memory_(memory), freelist_(max_free) {}
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty buffer with capacity >= `capacity`: a recycled one
  /// when available, else a fresh allocation (charged to the scope).
  Bytes Acquire(size_t capacity);

  /// Returns a buffer to the pool. Kept (still charged) while the free list
  /// holds < max_free buffers; freed (and un-charged) beyond that.
  void Release(Bytes buffer);

  uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }
  uint64_t recycles() const {
    return recycles_.load(std::memory_order_relaxed);
  }
  size_t free_count() const { return freelist_.ApproxSize(); }

  /// All counters in one mutually consistent snapshot: the individual
  /// accessors race against each other (each counter is bumped on its own),
  /// so `allocations() - recycles()` can be transiently nonsensical. This
  /// re-reads until two consecutive snapshots agree - exact at quiescence,
  /// best-effort under churn.
  Stats stats() const;

  /// Deterministic chaos knob: Acquire() calls numbered [from, from+count)
  /// (1-based) fail, returning a zero-capacity buffer — the out-of-memory
  /// shape the degradation governor and the writer's shed path must absorb.
  void InjectAcquireFailures(uint64_t from_call, uint64_t count);
  /// Acquire() calls observed (successful or injected-failed).
  uint64_t acquires() const { return acquires_.load(std::memory_order_relaxed); }
  /// Injected Acquire() failures delivered so far.
  uint64_t acquire_failures() const {
    return acquire_failures_.load(std::memory_order_relaxed);
  }

 private:
  Stats ReadStatsOnce() const;

  MemoryScope* const memory_;
  lockfree::FreeList<Bytes> freelist_;  // bounded: capacity = max_free

  // Counters are relaxed atomics; stats() makes them coherent.
  // Producer/consumer-shared, so keep them off other hot lines.
  alignas(lockfree::kCacheLine) std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> recycles_{0};
  std::atomic<uint64_t> releases_kept_{0};
  std::atomic<uint64_t> releases_freed_{0};

  // Injected allocation-failure window (deterministic chaos; 1-based calls).
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> fail_from_{0};
  std::atomic<uint64_t> fail_count_{0};
  std::atomic<uint64_t> acquire_failures_{0};
};

struct FlusherConfig {
  bool async = true;
  /// Worker threads; 0 = min(4, hardware_concurrency). Ignored in sync mode.
  uint32_t workers = 0;
  /// Global backpressure bound across all lanes.
  size_t max_queued_jobs = 16;
  /// Cap on the buffer pool's free list.
  size_t max_pooled_buffers = BufferPool::kDefaultMaxFree;
  /// Accounting scope for pooled buffers (the trace memory bound).
  MemoryScope* memory = nullptr;
  /// Write layer; null = the real filesystem. Tests plug a
  /// sword::testing::FaultFile here to inject I/O failures.
  FileBackend* backend = nullptr;
  /// Transient-failure (EINTR/EAGAIN, short write) retries per append.
  uint32_t max_io_retries = 4;
  /// Base backoff between retries; doubles per retry. 0 = no sleeping,
  /// which is what the deterministic fault tests use.
  uint32_t retry_backoff_us = 100;
  /// I/O watchdog: the longest a producer may stay blocked on backpressure
  /// before its frame is converted into a drop (gap frame + exact
  /// accounting) instead of an unbounded stall. 0 = no deadline (the
  /// historical behavior; backpressure tests rely on it). `sword-run`
  /// enables it for production runs.
  uint64_t watchdog_deadline_ms = 0;
  /// Optional adaptive-degradation governor: the flusher feeds it producer
  /// blocked time, credit starvation, append latency, and watchdog drops,
  /// and ticks Evaluate() from the worker loop. Not owned.
  DegradationGovernor* governor = nullptr;
};

/// Observability counters (satellite telemetry for the overhead tables; all
/// values are cumulative since construction unless noted).
struct FlusherStats {
  uint64_t jobs_enqueued = 0;
  uint64_t jobs_completed = 0;
  uint64_t producer_blocks = 0;  // producers that hit backpressure
  uint64_t blocked_nanos = 0;    // total producer wait under backpressure
  uint64_t bytes_in = 0;         // raw bytes submitted
  uint64_t bytes_written = 0;    // framed bytes on disk
  uint64_t appends = 0;
  uint64_t io_retries = 0;       // transient-append retries that happened
  uint64_t frames_dropped = 0;   // frames discarded after unrecoverable I/O
  uint64_t events_dropped = 0;   // events inside dropped frames
  uint64_t bytes_dropped = 0;    // raw (logical) bytes inside dropped frames
  uint64_t gap_frames = 0;       // drop markers successfully written
  uint64_t watchdog_drops = 0;   // frames dropped by the enqueue watchdog
  uint64_t syncs = 0;            // fsync passes issued (after gap frames)
  uint64_t sync_retries = 0;     // transient-sync retries that happened
  size_t queued_now = 0;               // snapshot: jobs waiting in lanes
  std::vector<uint64_t> worker_bytes_in;  // raw bytes compressed per worker
};

/// Per-path drop totals (what a writer folds into its meta file).
struct DropRecord {
  uint64_t raw_bytes = 0;  // logical bytes that never reached the log
  uint64_t events = 0;
  uint64_t frames = 0;

  void Add(const DropRecord& o) {
    raw_bytes += o.raw_bytes;
    events += o.events;
    frames += o.frames;
  }
};

class Flusher {
 public:
  static constexpr size_t kDefaultMaxQueuedJobs = 16;

  explicit Flusher(const FlusherConfig& config);
  /// Convenience: default config with the given mode.
  explicit Flusher(bool async = true) : Flusher(FlusherConfig{.async = async}) {}
  ~Flusher();
  Flusher(const Flusher&) = delete;
  Flusher& operator=(const Flusher&) = delete;

  /// Queues "compress `raw` with `codec`, frame it tagged `payload_format`,
  /// and append to `path`". Blocks when the queue is full (backpressure).
  /// Sync mode does the work inline. The buffer is recycled into pool()
  /// after the frame is written. `event_count` is how many events `raw`
  /// encodes - the writer knows, the flusher cannot recover it from the
  /// encoded bytes - and it is what makes dropped-event accounting exact
  /// when an unrecoverable I/O error forces the frame to be discarded.
  void AppendFrame(const std::string& path, Bytes raw, const Compressor* codec,
                   uint8_t payload_format = 1, uint64_t event_count = 0);

  /// Queues a raw (pre-encoded) append with no compression or framing.
  void Append(const std::string& path, Bytes data);

  /// Blocks until every queued job has hit the filesystem.
  void Drain();

  /// First I/O error encountered, if any (sticky). Note that after an
  /// unrecoverable error the flusher keeps accepting and writing frames
  /// (drop-with-accounting, not drop-everything-after): the status records
  /// that SOMETHING was lost, the drop counters record exactly what.
  Status status() const;

  /// Cumulative drops for one log file (zeroes if none). The writer folds
  /// this into the meta file at Finish so the offline side sees the loss
  /// even when FlusherStats are gone.
  DropRecord DroppedFor(const std::string& path) const;

  bool async() const { return async_; }
  uint32_t workers() const { return static_cast<uint32_t>(workers_.size()); }
  BufferPool& pool() { return pool_; }

  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t appends() const { return appends_.load(); }

  /// Snapshot of the observability counters.
  FlusherStats stats() const;

 private:
  struct Job {
    std::string path;
    Bytes data;
    const Compressor* codec = nullptr;  // null = raw append
    uint8_t payload_format = 1;
    uint64_t event_count = 0;  // events encoded in `data` (framed jobs)
    bool recycle = false;  // return `data` to the pool afterwards
    /// Submission order across all paths (taken at Enqueue). One writer
    /// feeds each path, so per path it is the order of the frames in the
    /// log's logical stream.
    uint64_t ticket = 0;
  };

  /// A dropped frame whose gap marker is not on disk yet.
  struct PendingGap {
    uint64_t ticket;  // the dropped job's ticket: where the hole belongs
    DropRecord drop;
  };

  struct Worker {
    std::thread thread;
    // Lane: bounded MPSC ring + Dekker-paired doorbell. The `sleeping`
    // flag keeps producers off `doorbell_mutex` unless the worker is
    // actually parked (see Enqueue/Run). FIFO per worker: per-path order
    // is preserved.
    std::unique_ptr<lockfree::MpmcRing<Job>> ring;
    std::mutex doorbell_mutex;
    std::condition_variable doorbell;
    alignas(lockfree::kCacheLine) std::atomic<uint32_t> sleeping{0};
    // Job scratch: touched only by this worker's thread.
    CompressScratch scratch;
    Bytes frame;  // reusable frame staging
    // Written by this worker, read by stats(); own line so the increment
    // never bounces another worker's counter.
    alignas(lockfree::kCacheLine) std::atomic<uint64_t> bytes_in{0};
  };

  void Enqueue(Job job);
  void Run(uint32_t index);
  /// Process one dequeued job end to end and bump completion counters.
  void CompleteJob(Job job, Worker* worker);
  /// Compress+write one job. `worker` supplies reusable scratch (null in
  /// sync mode, where concurrent producers would contend on it).
  void DoJob(const Job& job, Worker* worker);
  size_t LaneFor(const std::string& path) const;
  /// Appends with retry; rolls the file back to its pre-append size when the
  /// append ultimately fails, so a torn frame never reaches the log.
  Status AppendChecked(const std::string& path, const uint8_t* data, size_t n);
  /// Writes the gap marker for every pending drop of `job.path` that comes
  /// before `job` in submission order, then the frame itself.
  Status WritePathData(const Job& job, const uint8_t* data, size_t n);
  /// Books a discarded frame: sticky status + exact drop accounting, and a
  /// pending gap marker so later frames keep their logical offsets.
  void RecordDrop(const Job& job, const Status& status);
  /// Converts a frame whose enqueue wait exceeded the watchdog deadline into
  /// an accounted drop (the job never entered a lane). Recycles the buffer.
  void WatchdogDrop(Job job);

  const bool async_;
  const size_t max_queued_jobs_;
  FileBackend* const backend_;
  const RetryPolicy retry_policy_;
  const uint64_t watchdog_deadline_ms_;
  DegradationGovernor* const governor_;
  BufferPool pool_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};

  // --- hot atomics, grouped by writer to avoid false sharing ---
  // Producer-contended: the backpressure credit counter gets its own line
  // (every enqueue CASes it); in_flight_ is producer-inc / worker-dec and
  // gates Drain, so it must not share the credits line either.
  alignas(lockfree::kCacheLine) std::atomic<int64_t> credits_{0};
  alignas(lockfree::kCacheLine) std::atomic<uint64_t> in_flight_{0};
  // Producer-side statistics (bumped at enqueue).
  alignas(lockfree::kCacheLine) std::atomic<uint64_t> jobs_enqueued_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> producer_blocks_{0};
  std::atomic<uint64_t> blocked_nanos_{0};
  // Worker-side statistics (bumped at completion / append).
  alignas(lockfree::kCacheLine) std::atomic<uint64_t> jobs_completed_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> io_retries_{0};
  // Drop accounting (cold: only after unrecoverable I/O errors).
  alignas(lockfree::kCacheLine) std::atomic<uint64_t> gap_frames_{0};
  std::atomic<uint64_t> frames_dropped_{0};
  std::atomic<uint64_t> events_dropped_{0};
  std::atomic<uint64_t> bytes_dropped_{0};
  std::atomic<uint64_t> watchdog_drops_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_retries_{0};
  /// Number of paths with a pending (unwritten) gap marker: lets the
  /// per-frame WritePathData skip the mutex-guarded map lookup entirely in
  /// the no-drops steady state.
  std::atomic<uint32_t> pending_gap_paths_{0};

  // The always-cold state (drop records, sticky status). Guarded by mutex_.
  mutable std::mutex mutex_;
  Status status_;
  // pending_gaps_: drops not yet covered by an on-disk gap marker;
  // dropped_: cumulative per-path totals for DroppedFor().
  std::unordered_map<std::string, std::vector<PendingGap>> pending_gaps_;
  std::unordered_map<std::string, DropRecord> dropped_;
};

}  // namespace sword::trace
