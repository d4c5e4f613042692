#include "somp/runtime.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "somp/pool.h"
#include "somp/sink.h"

namespace sword::somp {

// What the instrumentation shim reads inline (somp/sink.h, runtime.h),
// constant-initialized.
constinit thread_local ThreadEventSink tls_event_sink;
constinit std::atomic<uint64_t> sink_epoch{1};
constinit thread_local Ctx* tls_ctx = nullptr;

void InstallThreadSink(ThreadEventSink sink) {
  sink.epoch = CurrentSinkEpoch();
  tls_event_sink = sink;
}

void ClearThreadSink() { tls_event_sink = ThreadEventSink{}; }

void RetireSinks() { sink_epoch.fetch_add(1, std::memory_order_acq_rel); }

namespace {

constexpr RegionId kNoRegion = ~0ULL;

/// Offset-span label of the sequential (root) program point on this thread.
/// Advances past each top-level region so consecutive regions are ordered.
thread_local osl::Label tls_root_label = osl::Label::Initial();

}  // namespace

// ---------------------------------------------------------------------------
// Team: one fork/join instance.

class Team {
 public:
  Team(RegionId region, RegionId parent_region, uint32_t span, uint32_t level)
      : region_(region), parent_region_(parent_region), span_(span), level_(level) {}

  RegionId region() const { return region_; }
  RegionId parent_region() const { return parent_region_; }
  uint32_t span() const { return span_; }
  uint32_t level() const { return level_; }

  /// Central barrier: blocks until all `span` members arrive.
  void Wait() {
    std::unique_lock lock(barrier_mutex_);
    const uint64_t gen = generation_;
    if (++arrived_ == span_) {
      arrived_ = 0;
      generation_++;
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lock, [&] { return generation_ != gen; });
  }

  /// True for exactly one caller per workshare sequence number (Single).
  bool ClaimSingle(uint64_t seq) {
    std::lock_guard lock(ws_mutex_);
    return singles_claimed_.insert(seq).second;
  }

  /// Shared iteration dispenser for dynamic/guided loops and Sections.
  struct Workshare {
    std::atomic<int64_t> next{0};
    int64_t end = 0;
  };

  Workshare& GetWorkshare(uint64_t seq, int64_t begin, int64_t end) {
    std::lock_guard lock(ws_mutex_);
    auto [it, inserted] = workshares_.try_emplace(seq);
    if (inserted) {
      it->second.next.store(begin, std::memory_order_relaxed);
      it->second.end = end;
    }
    return it->second;
  }

  /// Ordered-construct turn taking: blocks until `iteration` is the next
  /// value of ws.next.
  void WaitOrderedTurn(Workshare& ws, int64_t iteration) {
    std::unique_lock lock(ws_mutex_);
    ordered_cv_.wait(lock, [&] {
      return ws.next.load(std::memory_order_relaxed) == iteration;
    });
  }

  void SignalOrderedDone(Workshare& ws, int64_t iteration) {
    {
      std::lock_guard lock(ws_mutex_);
      ws.next.store(iteration + 1, std::memory_order_relaxed);
    }
    ordered_cv_.notify_all();
  }

 private:
  const RegionId region_;
  const RegionId parent_region_;
  const uint32_t span_;
  const uint32_t level_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;

  std::mutex ws_mutex_;
  std::condition_variable ordered_cv_;
  std::set<uint64_t> singles_claimed_;
  std::map<uint64_t, Workshare> workshares_;
};

// ---------------------------------------------------------------------------
// Runtime.

struct Runtime::Impl {
  std::atomic<RegionId> next_region{0};
  std::atomic<MutexId> next_mutex{0};
  std::atomic<int> active_regions{0};

  std::mutex table_mutex;
  std::unordered_map<std::string, MutexId> named_mutexes;
  std::map<MutexId, std::unique_ptr<std::mutex>> mutexes;

  std::mutex& MutexFor(MutexId id) {
    std::lock_guard lock(table_mutex);
    auto [it, inserted] = mutexes.try_emplace(id);
    if (inserted) it->second = std::make_unique<std::mutex>();
    return *it->second;
  }
};

Runtime& Runtime::Get() {
  static Runtime* runtime = new Runtime();
  return *runtime;
}

Runtime::Impl& Runtime::impl() {
  static Impl* impl = new Impl();
  return *impl;
}

void Runtime::Configure(const RuntimeConfig& config) {
  assert(impl().active_regions.load() == 0 &&
         "Configure must not run during a parallel region");
  // Sinks installed for the previous tool point at its per-thread state;
  // retire them all (the threads themselves may be parked in a pool and
  // unreachable from here).
  RetireSinks();
  config_ = config;
}

void Runtime::ResetIds() {
  assert(impl().active_regions.load() == 0);
  impl().next_region.store(0);
  // Mutex ids are NOT reset: Lock objects created by workloads may outlive a
  // run, and stale ids must not collide with fresh ones.
  tls_root_label = osl::Label::Initial();
}

void Runtime::Shutdown() {
  if (config_.tool) config_.tool->OnRuntimeShutdown();
}

RegionId Runtime::NextRegionId() { return impl().next_region.fetch_add(1); }

MutexId Runtime::InternNamedMutex(const std::string& name) {
  std::lock_guard lock(impl().table_mutex);
  auto it = impl().named_mutexes.find(name);
  if (it != impl().named_mutexes.end()) return it->second;
  const MutexId id = impl().next_mutex.fetch_add(1);
  impl().named_mutexes.emplace(name, id);
  return id;
}

MutexId Runtime::NewLockId() { return impl().next_mutex.fetch_add(1); }

void Runtime::LockMutex(MutexId id) { impl().MutexFor(id).lock(); }

void Runtime::UnlockMutex(MutexId id) { impl().MutexFor(id).unlock(); }

void Runtime::EnterRegion() { impl().active_regions.fetch_add(1); }

void Runtime::ExitRegion() { impl().active_regions.fetch_sub(1); }

// ---------------------------------------------------------------------------
// Parallel region execution.

void ParallelImpl(Ctx* parent, uint32_t span, const std::function<void(Ctx&)>& body) {
  Runtime& rt = Runtime::Get();
  if (span == 0) span = rt.default_threads();
  assert(span >= 1);
  Tool* const tool = rt.tool();

  const RegionId rid = rt.NextRegionId();
  const osl::Label parent_label = parent ? parent->label() : tls_root_label;
  Team team(rid, parent ? parent->region() : kNoRegion, span,
            parent ? parent->level() + 1 : 1);

  rt.EnterRegion();
  if (tool) tool->OnParallelBegin(parent, rid, span);

  auto run_member = [&](uint32_t lane) {
    Ctx ctx(&team, lane, parent_label.Fork(lane, span), parent);
    Ctx* const prev = tls_ctx;
    tls_ctx = &ctx;
    if (tool) tool->OnImplicitTaskBegin(ctx);
    body(ctx);
    // Region-end implicit barrier: ends the member's last barrier interval.
    // The physical synchronization is the join below; no OnBarrierExit
    // follows because no access can occur between it and the task end.
    if (tool) tool->OnBarrierEnter(ctx, ctx.barrier_phase(), BarrierKind::kRegionEnd);
    if (tool) tool->OnImplicitTaskEnd(ctx);
    tls_ctx = prev;
  };

  std::vector<WorkerPool::Ticket> tickets;
  tickets.reserve(span - 1);
  for (uint32_t lane = 1; lane < span; lane++) {
    tickets.push_back(GlobalPool().Submit([&run_member, lane] { run_member(lane); }));
  }
  run_member(0);  // the encountering thread participates as lane 0
  for (auto& ticket : tickets) ticket.Wait();

  if (tool) tool->OnParallelEnd(parent, rid);
  rt.ExitRegion();

  // Advance the encountering point's label past the join so the next sibling
  // region is sequentially ordered after this one (mod-span continuation;
  // teammates of the encountering thread stay concurrent with the subtree).
  if (parent) {
    parent->label_ = parent->label_.AfterJoin();
  } else {
    tls_root_label = tls_root_label.AfterJoin();
  }
}

void Parallel(uint32_t span, const std::function<void(Ctx&)>& body) {
  assert(tls_ctx == nullptr &&
         "use ctx.Parallel() for nested regions so labels nest correctly");
  ParallelImpl(nullptr, span, body);
}

void ParallelFor(uint32_t span, int64_t begin, int64_t end,
                 const std::function<void(Ctx&, int64_t)>& body) {
  Parallel(span, [&](Ctx& ctx) {
    ctx.For(begin, end, [&](int64_t i) { body(ctx, i); });
  });
}

// ---------------------------------------------------------------------------
// Ctx.

uint32_t Ctx::num_threads() const { return team_->span(); }
RegionId Ctx::region() const { return team_->region(); }
RegionId Ctx::parent_region() const { return team_->parent_region(); }
uint32_t Ctx::level() const { return team_->level(); }

void Ctx::BarrierImpl(BarrierKind kind) {
  Tool* const tool = Runtime::Get().tool();
  if (tool) tool->OnBarrierEnter(*this, phase_, kind);
  team_->Wait();
  label_ = label_.AfterBarrier();
  const uint64_t crossed = phase_++;
  if (tool) tool->OnBarrierExit(*this, crossed);
}

void Ctx::Barrier() { BarrierImpl(BarrierKind::kExplicit); }

void Ctx::For(int64_t begin, int64_t end, const std::function<void(int64_t)>& body,
              ForOpts opts) {
  const uint64_t seq = ws_seq_++;
  const int64_t n = end - begin;
  const uint32_t span = team_->span();

  if (n > 0) {
    switch (opts.schedule) {
      case Schedule::kStatic: {
        if (opts.chunk <= 0) {
          // One contiguous block per lane (OpenMP default static).
          const int64_t block = (n + span - 1) / span;
          const int64_t lo = begin + static_cast<int64_t>(lane_) * block;
          const int64_t hi = std::min(end, lo + block);
          for (int64_t i = lo; i < hi; i++) body(i);
        } else {
          // Round-robin chunks of the given size (static,chunk).
          const int64_t chunk = opts.chunk;
          for (int64_t base = begin + static_cast<int64_t>(lane_) * chunk; base < end;
               base += chunk * span) {
            const int64_t hi = std::min(end, base + chunk);
            for (int64_t i = base; i < hi; i++) body(i);
          }
        }
        break;
      }
      case Schedule::kDynamic: {
        const int64_t chunk = opts.chunk > 0 ? opts.chunk : 1;
        auto& ws = team_->GetWorkshare(seq, begin, end);
        while (true) {
          const int64_t lo = ws.next.fetch_add(chunk, std::memory_order_relaxed);
          if (lo >= end) break;
          const int64_t hi = std::min(end, lo + chunk);
          for (int64_t i = lo; i < hi; i++) body(i);
        }
        break;
      }
      case Schedule::kGuided: {
        const int64_t min_chunk = opts.chunk > 0 ? opts.chunk : 1;
        auto& ws = team_->GetWorkshare(seq, begin, end);
        bool drained = false;
        while (!drained) {
          int64_t cur = ws.next.load(std::memory_order_relaxed);
          int64_t take, hi;
          do {
            if (cur >= end) {
              drained = true;
              break;
            }
            const int64_t remaining = end - cur;
            take = std::max<int64_t>(min_chunk, remaining / (2 * span));
            hi = std::min(end, cur + take);
          } while (!ws.next.compare_exchange_weak(cur, hi, std::memory_order_relaxed));
          if (drained) break;
          for (int64_t i = cur; i < hi; i++) body(i);
        }
        break;
      }
    }
  }

  BarrierIfNeeded(opts.nowait);
}

void Ctx::Critical(const std::string& name, const std::function<void()>& body) {
  const MutexId id = Runtime::Get().InternNamedMutex(name);
  LockAcquire(id);
  body();
  LockRelease(id);
}

void Ctx::Single(const std::function<void()>& body, bool nowait) {
  const uint64_t seq = ws_seq_++;
  if (team_->ClaimSingle(seq)) body();
  if (!nowait) BarrierImpl(BarrierKind::kWorkshare);
}

void Ctx::Master(const std::function<void()>& body) {
  if (lane_ == 0) body();
}

void Ctx::Ordered(int64_t iteration, int64_t begin,
                  const std::function<void()>& body) {
  // Bound to the ENCLOSING loop: during a For body every member's ws_seq_
  // holds the same value (the loop consumed one sequence number for the
  // whole team), so it identifies the loop instance without being consumed
  // here - Ordered runs once per ITERATION and must not desynchronize the
  // team's workshare numbering. The high bit keeps the ordered state from
  // colliding with the next construct's workshare entry.
  const uint64_t seq = ws_seq_ | (1ULL << 63);
  auto& ws = team_->GetWorkshare(seq, begin, 0);
  // Wait for our turn: ws.next holds the next iteration allowed to enter.
  team_->WaitOrderedTurn(ws, iteration);
  // The ordered region is reported as a runtime mutex so both detectors see
  // the protection: accesses inside distinct ordered bodies can never race
  // (they are totally ordered by construction).
  const MutexId mutex = Runtime::Get().InternNamedMutex(
      "somp-ordered-" + std::to_string(team_->region()) + "-" + std::to_string(seq));
  held_.push_back(mutex);
  if (Tool* tool = Runtime::Get().tool()) tool->OnMutexAcquired(*this, mutex);
  body();
  if (Tool* tool = Runtime::Get().tool()) tool->OnMutexReleased(*this, mutex);
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (*it == mutex) {
      held_.erase(std::next(it).base());
      break;
    }
  }
  team_->SignalOrderedDone(ws, iteration);
}

void Ctx::Sections(const std::vector<std::function<void()>>& sections, bool nowait,
                   bool static_dist) {
  const uint64_t seq = ws_seq_++;
  if (static_dist) {
    for (size_t i = lane_; i < sections.size(); i += team_->span()) {
      sections[i]();
    }
  } else {
    auto& ws = team_->GetWorkshare(seq, 0, static_cast<int64_t>(sections.size()));
    while (true) {
      const int64_t i = ws.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= static_cast<int64_t>(sections.size())) break;
      sections[static_cast<size_t>(i)]();
    }
  }
  if (!nowait) BarrierImpl(BarrierKind::kWorkshare);
}

void Ctx::Parallel(uint32_t span, const std::function<void(Ctx&)>& body) {
  ParallelImpl(this, span, body);
}

void Ctx::LockAcquire(MutexId id) {
  Runtime::Get().LockMutex(id);
  held_.push_back(id);
  if (Tool* tool = Runtime::Get().tool()) tool->OnMutexAcquired(*this, id);
}

void Ctx::LockRelease(MutexId id) {
  if (Tool* tool = Runtime::Get().tool()) tool->OnMutexReleased(*this, id);
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (*it == id) {
      held_.erase(std::next(it).base());
      break;
    }
  }
  Runtime::Get().UnlockMutex(id);
}

// ---------------------------------------------------------------------------
// Lock.

void Lock::Acquire() {
  Ctx* ctx = CurrentCtx();
  if (ctx) {
    ctx->LockAcquire(id_);
  } else {
    Runtime::Get().LockMutex(id_);
  }
}

void Lock::Release() {
  Ctx* ctx = CurrentCtx();
  if (ctx) {
    ctx->LockRelease(id_);
  } else {
    Runtime::Get().UnlockMutex(id_);
  }
}

}  // namespace sword::somp
