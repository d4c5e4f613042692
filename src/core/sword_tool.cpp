#include "core/sword_tool.h"

#include <csignal>
#include <cstdlib>

#include <cassert>

#include "common/fsutil.h"
#include "compress/compressor.h"
#include "somp/sink.h"
#include "trace/seal.h"

namespace sword::core {

namespace {

/// Live tools, for the crash-drain hooks. Registration happens in the
/// SwordTool ctor/dtor, so the list never holds a dangling pointer.
std::mutex g_live_tools_mutex;
std::vector<SwordTool*> g_live_tools;

void RegisterLiveTool(SwordTool* tool) {
  std::lock_guard lock(g_live_tools_mutex);
  g_live_tools.push_back(tool);
}

void UnregisterLiveTool(SwordTool* tool) {
  std::lock_guard lock(g_live_tools_mutex);
  for (auto it = g_live_tools.begin(); it != g_live_tools.end(); ++it) {
    if (*it == tool) {
      g_live_tools.erase(it);
      return;
    }
  }
}

/// Finalizes every live tool. Called from the atexit hook and (best-effort,
/// knowingly async-signal-unsafe - see InstallCrashDrain's contract) from
/// the termination-signal handler.
void DrainAllLiveTools() {
  std::vector<SwordTool*> tools;
  {
    std::lock_guard lock(g_live_tools_mutex);
    tools = g_live_tools;
  }
  for (SwordTool* tool : tools) (void)tool->Finalize();
}

void CrashDrainSignalHandler(int signo) {
  DrainAllLiveTools();
  // Re-raise with the default disposition so the exit status still says
  // "killed by signal" - the drain must not make a SIGTERM look clean.
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void InstallCrashDrain() {
  static bool installed = [] {
    std::atexit([] { DrainAllLiveTools(); });
    std::signal(SIGTERM, CrashDrainSignalHandler);
    std::signal(SIGINT, CrashDrainSignalHandler);
    return true;
  }();
  (void)installed;
}

namespace {

/// TLS handle: which tool instance this thread is registered with, and its
/// state there. Keyed by a process-unique instance id, NOT the tool's
/// address - a later tool allocated at a recycled address must not match.
struct TlsHandle {
  uint64_t owner_id = 0;
  void* state = nullptr;
};
thread_local TlsHandle tls_handle;

std::atomic<uint64_t> g_next_instance_id{1};

/// Sink trampolines: the instrumentation shim calls these through plain
/// function pointers with the thread's own ThreadTraceWriter as state -
/// no Runtime lookup, no virtual dispatch, no TLS handle re-check. Each
/// inlines its writer entry point, so folding an access (or a range shorter
/// than one chunk) into its site's pending run makes no further call.
void SinkAccessThunk(void* state, uint64_t addr, uint8_t size, uint8_t flags,
                     somp::PcId pc) {
  static_cast<trace::ThreadTraceWriter*>(state)->AppendAccess(addr, size, flags, pc);
}

void SinkRangeThunk(void* state, uint64_t addr, uint64_t bytes, uint8_t flags,
                    somp::PcId pc) {
  static_cast<trace::ThreadTraceWriter*>(state)->AppendRange(addr, bytes, flags, pc);
}

trace::IntervalMeta MetaFrom(const somp::Ctx& ctx) {
  trace::IntervalMeta meta;
  meta.region = ctx.region();
  meta.parent_region = ctx.parent_region() == ~0ULL ? trace::IntervalMeta::kNoParent
                                                    : ctx.parent_region();
  meta.phase = ctx.barrier_phase();
  meta.label = ctx.label();
  meta.level = ctx.level();
  meta.lane = ctx.thread_num();
  meta.lockset = ctx.held_mutexes();
  return meta;
}

}  // namespace

SwordTool::SwordTool(SwordConfig config)
    : config_(std::move(config)),
      memory_("sword-rt"),
      governor_(config_.adaptive_degradation
                    ? std::make_unique<trace::DegradationGovernor>(
                          config_.governor_config)
                    : nullptr),
      flusher_(trace::FlusherConfig{.async = config_.async_flush,
                                    .workers = config_.flush_workers,
                                    .memory = &memory_,
                                    .backend = config_.backend,
                                    .watchdog_deadline_ms = config_.watchdog_ms,
                                    .governor = governor_.get()}),
      instance_id_(g_next_instance_id.fetch_add(1)) {
  assert(!config_.out_dir.empty());
  // Best-effort: a missing trace directory should not be fatal here; if it
  // truly cannot be created, the first writer I/O reports the real error.
  (void)MakeDirs(config_.out_dir);
  // Fatal-signal survivability: writers register their paths below; the
  // handler itself is process-global and idempotent.
  if (config_.crash_seal) trace::InstallSealHandlers();
  RegisterLiveTool(this);
}

SwordTool::~SwordTool() {
  (void)Finalize();
  UnregisterLiveTool(this);
}

SwordTool::ThreadState& SwordTool::State() {
  if (tls_handle.owner_id == instance_id_) {
    return *static_cast<ThreadState*>(tls_handle.state);
  }
  // Reserve the tid under the lock, but publish the state only once its
  // writer exists: the stat accessors and Finalize walk states_ under the
  // same lock and dereference every writer they find. The writer is built
  // outside the lock because its constructor does file I/O.
  uint32_t tid;
  {
    std::lock_guard lock(states_mutex_);
    tid = next_tid_++;
  }
  auto state = std::make_unique<ThreadState>();
  ThreadState* raw = state.get();
  trace::WriterConfig wc;
  wc.log_path = config_.out_dir + "/sword_t" + std::to_string(tid) + ".log";
  wc.meta_path = config_.out_dir + "/sword_t" + std::to_string(tid) + ".meta";
  wc.buffer_bytes = config_.buffer_bytes;
  wc.codec = FindCompressor(config_.codec);
  wc.flusher = &flusher_;
  wc.format = config_.trace_format;
  wc.backend = config_.backend;
  wc.governor = governor_.get();
  wc.crash_seal = config_.crash_seal;
  raw->writer = std::make_unique<trace::ThreadTraceWriter>(tid, wc);
  {
    std::lock_guard lock(states_mutex_);
    states_.push_back(std::move(state));
  }
  // The modeled fixed auxiliary overhead (OMPT + thread-local state).
  (void)memory_.Charge(kAuxBytesPerThread);

  tls_handle.owner_id = instance_id_;
  tls_handle.state = raw;
  return *raw;
}

void SwordTool::BeginSegmentFor(ThreadState& ts, somp::Ctx& ctx) {
  ts.writer->BeginSegment(MetaFrom(ctx));
  // (Re)install this thread's fast-path sink for the new segment, stamped
  // with the current epoch.
  somp::InstallThreadSink(somp::ThreadEventSink{
      &SinkAccessThunk, &SinkRangeThunk, ts.writer.get(), &ctx, 0});
}

void SwordTool::OnImplicitTaskBegin(somp::Ctx& ctx) {
  ThreadState& ts = State();
  // Pause the parent's segment when a nested region starts on this thread.
  if (ts.writer->HasOpenSegment()) ts.writer->EndSegment();
  ts.ctx_stack.push_back(&ctx);
  BeginSegmentFor(ts, ctx);
}

void SwordTool::OnImplicitTaskEnd(somp::Ctx& ctx) {
  ThreadState& ts = State();
  assert(!ts.ctx_stack.empty() && ts.ctx_stack.back() == &ctx);
  (void)ctx;
  ts.ctx_stack.pop_back();
  somp::ClearThreadSink();  // ctx is about to die; never let a sink outlive it
  // Resume the paused parent segment, if any.
  if (!ts.ctx_stack.empty()) BeginSegmentFor(ts, *ts.ctx_stack.back());
}

void SwordTool::OnBarrierEnter(somp::Ctx& ctx, uint64_t phase, somp::BarrierKind kind) {
  (void)ctx;
  (void)phase;
  (void)kind;
  ThreadState& ts = State();
  if (ts.writer->HasOpenSegment()) ts.writer->EndSegment();
  somp::ClearThreadSink();  // no segment is open while waiting at the barrier
}

void SwordTool::OnBarrierExit(somp::Ctx& ctx, uint64_t phase) {
  (void)phase;
  ThreadState& ts = State();
  BeginSegmentFor(ts, ctx);  // ctx's label/phase already advanced
}

void SwordTool::OnMutexAcquired(somp::Ctx& ctx, somp::MutexId mutex) {
  (void)ctx;
  ThreadState& ts = State();
  ts.writer->Append(trace::RawEvent::MutexAcquire(mutex));
}

void SwordTool::OnMutexReleased(somp::Ctx& ctx, somp::MutexId mutex) {
  (void)ctx;
  ThreadState& ts = State();
  ts.writer->Append(trace::RawEvent::MutexRelease(mutex));
}

void SwordTool::OnAccess(somp::Ctx& ctx, uint64_t addr, uint8_t size, uint8_t flags,
                         somp::PcId pc) {
  // Virtual-path fallback (stale or missing sink); same writer entry point
  // as the sink thunk, so the logged stream is identical either way.
  (void)ctx;
  ThreadState& ts = State();
  ts.writer->AppendAccess(addr, size, flags, pc);
}

void SwordTool::OnRangeAccess(somp::Ctx& ctx, uint64_t addr, uint64_t bytes,
                              uint8_t flags, somp::PcId pc) {
  (void)ctx;
  ThreadState& ts = State();
  ts.writer->AppendRange(addr, bytes, flags, pc);
}

void SwordTool::OnRuntimeShutdown() { (void)Finalize(); }

Status SwordTool::Finalize() {
  std::lock_guard lock(states_mutex_);
  if (finalized_) return status_;
  finalized_ = true;
  // Writers are about to be finished; no thread may still use a sink into
  // one. The epoch bump makes any sink still installed (a crash drain
  // mid-region) fail the per-access check and take the virtual path.
  somp::RetireSinks();
  // Order matters: push every writer's buffered events into the pipeline,
  // wait for the pipeline to hit the disk (or give up and account drops),
  // and only THEN write the final metas - whose v3 headers fold in the
  // flusher's per-log drop totals, complete only after the drain.
  for (auto& ts : states_) ts->writer->FlushEvents();
  flusher_.Drain();
  for (auto& ts : states_) {
    const Status s = ts->writer->Finish();
    if (!s.ok() && status_.ok()) status_ = s;
  }
  flusher_.Drain();  // Finish can flush a tail frame; settle it too
  const Status fs = flusher_.status();
  if (!fs.ok() && status_.ok()) status_ = fs;
  return status_;
}

std::vector<std::string> SwordTool::LogPaths() const {
  std::lock_guard lock(states_mutex_);
  std::vector<std::string> paths;
  for (const auto& ts : states_) {
    paths.push_back(config_.out_dir + "/sword_t" +
                    std::to_string(ts->writer->thread_id()) + ".log");
  }
  return paths;
}

uint32_t SwordTool::ThreadCount() const {
  std::lock_guard lock(states_mutex_);
  return static_cast<uint32_t>(states_.size());
}

uint64_t SwordTool::SumOverWriters(uint64_t (Writer::*counter)() const) const {
  std::lock_guard lock(states_mutex_);
  uint64_t total = 0;
  for (const auto& ts : states_) total += (ts->writer.get()->*counter)();
  return total;
}

}  // namespace sword::core
