// SwordTool - the online half of SWORD (paper SIII-A).
//
// Registered as the somp runtime's Tool, it performs the paper's
// bounded-memory log collection:
//  - each SWORD thread (one per OS thread that ever executes parallel work)
//    owns a ThreadTraceWriter with a FIXED 2 MB buffer; full buffers are
//    compressed and flushed asynchronously - threads never coordinate;
//  - OMPT-style callbacks delimit barrier-interval segments, each emitted as
//    one meta-file record (Table I) carrying the offset-span label;
//  - instrumented accesses and mutex acquire/release become 16-byte log
//    events inside the current segment;
//  - total memory is N_threads * (buffer + fixed auxiliary state), the
//    paper's N*(B+C) formula - independent of application footprint.
//
// After the program under test finishes, Finalize() closes all writers and
// drains the flusher; offline::Analyze (src/offline) then consumes the
// log/meta files.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memtrack.h"
#include "common/status.h"
#include "somp/runtime.h"
#include "somp/tool.h"
#include "trace/flusher.h"
#include "trace/governor.h"
#include "trace/writer.h"

namespace sword::core {

struct SwordConfig {
  std::string out_dir;                       // required; must exist
  uint64_t buffer_bytes = 2 * 1024 * 1024;   // per-thread trace buffer
  std::string codec = "lzf";                 // "raw", "rle", "lzs", or "lzf"
  bool async_flush = true;
  uint32_t flush_workers = 0;                // 0 = min(4, hw_concurrency)
  uint8_t trace_format = trace::kTraceFormatV3;  // event encoding version
  /// Write layer for all trace I/O; null = real filesystem. Tests plug a
  /// sword::testing::FaultFile here.
  FileBackend* backend = nullptr;
  /// Install the async-signal-safe fatal-signal sealing handlers
  /// (SIGSEGV/SIGBUS/SIGABRT/SIGFPE/SIGILL -> sealed record appended to
  /// each meta + in-band crash marker) and register every writer with the
  /// SealRegistry. Safe to leave on: it changes nothing unless the process
  /// actually dies of a fatal signal.
  bool crash_seal = true;
  /// Enable the adaptive degradation governor (see trace/governor.h). Off
  /// by default (full fidelity, block-on-pressure); `sword-run --adaptive`
  /// opts in.
  bool adaptive_degradation = false;
  /// Governor thresholds (used only when adaptive_degradation is set).
  trace::GovernorConfig governor_config;
  /// Flusher I/O watchdog deadline in ms (0 = producers may block without
  /// bound, the historical behavior). `sword-run --watchdog-ms N` opts in.
  uint64_t watchdog_ms = 0;
  /// Ignored; e2ebench is its only reader.
  bool prefilter = false;
};

/// The paper's measured per-thread auxiliary overhead (thread-local state +
/// OMPT bookkeeping): ~1.3 MB. We charge it as a modeled constant so the
/// memory benches reproduce the ~3.3 MB/thread total.
constexpr uint64_t kAuxBytesPerThread = 1340 * 1024;

class SwordTool final : public somp::Tool {
 public:
  explicit SwordTool(SwordConfig config);
  ~SwordTool() override;

  // --- somp::Tool ---
  void OnImplicitTaskBegin(somp::Ctx& ctx) override;
  void OnImplicitTaskEnd(somp::Ctx& ctx) override;
  void OnBarrierEnter(somp::Ctx& ctx, uint64_t phase, somp::BarrierKind kind) override;
  void OnBarrierExit(somp::Ctx& ctx, uint64_t phase) override;
  void OnMutexAcquired(somp::Ctx& ctx, somp::MutexId mutex) override;
  void OnMutexReleased(somp::Ctx& ctx, somp::MutexId mutex) override;
  void OnAccess(somp::Ctx& ctx, uint64_t addr, uint8_t size, uint8_t flags,
                somp::PcId pc) override;
  void OnRangeAccess(somp::Ctx& ctx, uint64_t addr, uint64_t bytes,
                     uint8_t flags, somp::PcId pc) override;
  void OnRuntimeShutdown() override;

  /// Closes all writers, drains I/O, returns first error. Idempotent;
  /// called automatically by OnRuntimeShutdown.
  Status Finalize();

  /// First I/O error the flush pipeline hit (sticky); Ok on a clean run.
  /// Valid any time; complete after Finalize.
  Status IoStatus() const { return flusher_.status(); }

  /// Paths of the per-thread logs written so far (valid after Finalize).
  std::vector<std::string> LogPaths() const;

  /// Bounded memory in use: N * (buffer + aux). The headline number.
  uint64_t MemoryBytes() const { return memory_.current(); }
  uint64_t PeakMemoryBytes() const { return memory_.peak(); }

  uint32_t ThreadCount() const;
  /// Aggregated per-thread writer counters, summed on demand - there is no
  /// shared per-access atomic anywhere on the hot path. EventsLogged counts
  /// ENCODED events (a coalesced run counts once).
  uint64_t EventsLogged() const { return SumOverWriters(&Writer::events_logged); }
  uint64_t EventsSuppressed() const { return SumOverWriters(&Writer::events_suppressed); }
  uint64_t EventsCoalesced() const { return SumOverWriters(&Writer::events_coalesced); }
  uint64_t RunsEmitted() const { return SumOverWriters(&Writer::runs_emitted); }
  uint64_t AccessesDropped() const { return SumOverWriters(&Writer::accesses_dropped); }
  /// Accesses shed on the degradation governor's (or an exhausted buffer
  /// pool's) orders, summed over writers. Exact; also in each meta file.
  uint64_t DegradedDropped() const { return SumOverWriters(&Writer::degraded_dropped); }
  /// Always 0; e2ebench is its only reader.
  uint64_t EventsElided() const { return 0; }
  /// Always 0; e2ebench is its only reader.
  uint64_t ElidedLost() const { return 0; }
  uint64_t BytesWritten() const { return flusher_.bytes_written(); }
  uint64_t Flushes() const { return SumOverWriters(&Writer::flushes); }

  /// The degradation governor, or null when adaptive_degradation is off.
  trace::DegradationGovernor* governor() { return governor_.get(); }

  /// The flusher's buffer pool. Exposed for deterministic fault injection
  /// (FaultPlan alloc_fail -> BufferPool::InjectAcquireFailures).
  trace::BufferPool& buffer_pool() { return flusher_.pool(); }

  /// Flush-pipeline observability (queue pressure, producer stalls,
  /// per-worker throughput) for the overhead tables.
  trace::FlusherStats FlushStats() const { return flusher_.stats(); }

 private:
  using Writer = trace::ThreadTraceWriter;

  /// One writer counter, summed over every published writer.
  uint64_t SumOverWriters(uint64_t (Writer::*counter)() const) const;

  struct ThreadState {
    std::unique_ptr<trace::ThreadTraceWriter> writer;
    // Stack of contexts whose segments this OS thread has open/paused;
    // the nested-parallelism case pauses the parent's segment.
    std::vector<somp::Ctx*> ctx_stack;
  };

  ThreadState& State();
  void BeginSegmentFor(ThreadState& ts, somp::Ctx& ctx);

  SwordConfig config_;
  MemoryScope memory_;
  std::unique_ptr<trace::DegradationGovernor> governor_;  // before flusher_
  trace::Flusher flusher_;

  mutable std::mutex states_mutex_;
  // Published states, each with its writer built; tids are handed out by
  // next_tid_ before publication, so publication order may differ from tid
  // order while threads start concurrently.
  std::vector<std::unique_ptr<ThreadState>> states_;
  uint32_t next_tid_ = 0;
  const uint64_t instance_id_;
  bool finalized_ = false;
  Status status_;
};

/// Installs best-effort SIGTERM/SIGINT handlers and an atexit hook that
/// Finalize() every live SwordTool, so a terminated production run leaves
/// its logs and meta files analyzable up to the last flushed frame instead
/// of losing everything after the final checkpoint. Idempotent.
///
/// Best-effort by design: Finalize takes locks and allocates, which is not
/// async-signal-safe - a handler that fires while a flusher lock is held can
/// deadlock or die. That is an acceptable trade: without the handler the
/// trace tail is ALWAYS lost on SIGTERM; with it the tail is usually saved,
/// and when the handler does die the on-disk state is no worse than the
/// kill -9 case, which salvage-mode analysis already handles.
void InstallCrashDrain();

}  // namespace sword::core
