// somp - a from-scratch OpenMP-like fork/join runtime (the paper's substrate).
//
// Workloads are written against this API the way OpenMP programs are written
// against pragmas:
//
//   somp::Parallel(8, [&](somp::Ctx& ctx) {              // #pragma omp parallel
//     ctx.For(0, n, [&](int64_t i) { ... });             // #pragma omp for
//     ctx.Barrier();                                     // #pragma omp barrier
//     ctx.Critical("name", [&] { ... });                 // #pragma omp critical
//     ctx.Single([&] { ... });                           // #pragma omp single
//     ctx.Parallel(2, [&](somp::Ctx& inner) { ... });    // nested parallel
//   });
//
// The runtime maintains per-thread offset-span labels (src/osl) across forks,
// barriers, and joins, drives the registered Tool with OMPT-style callbacks
// (src/somp/tool.h), and reuses pooled worker threads across regions.
//
// Deliberate scope limits, matching the paper: no OpenMP tasking (SWORD's
// offset-span labels cannot express task concurrency - SIII-C), no target
// offload. Worksharing constructs assume SPMD use: every team member reaches
// the same For/Single/Sections/Barrier sites in the same order, as OpenMP
// itself requires.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "osl/label.h"
#include "somp/tool.h"

namespace sword::somp {

class Team;

struct RuntimeConfig {
  Tool* tool = nullptr;          // not owned; null = baseline (no analysis)
  uint32_t default_threads = 4;  // span when Parallel(0, ...) is used
};

/// Process-wide runtime state: tool registration and id generators.
class Runtime {
 public:
  static Runtime& Get();

  /// Must not be called while any parallel region is active.
  void Configure(const RuntimeConfig& config);

  /// Resets region/mutex counters so consecutive harness runs start from a
  /// clean id space. Must be called outside parallel regions.
  void ResetIds();

  Tool* tool() const { return config_.tool; }
  uint32_t default_threads() const { return config_.default_threads; }

  /// Signals the tool that the measured program finished (flush point).
  void Shutdown();

  RegionId NextRegionId();
  /// Dense mutex ids: named criticals and Lock objects share one id space.
  MutexId InternNamedMutex(const std::string& name);
  MutexId NewLockId();

  /// Region-depth bookkeeping (used to guard Configure/ResetIds).
  void EnterRegion();
  void ExitRegion();

  /// The std::mutex backing a mutex id (lazily created, never destroyed
  /// while the runtime lives).
  void LockMutex(MutexId id);
  void UnlockMutex(MutexId id);

 private:
  Runtime() = default;
  struct Impl;
  Impl& impl();
  RuntimeConfig config_;
};

enum class Schedule : uint8_t { kStatic, kDynamic, kGuided };

struct ForOpts {
  Schedule schedule = Schedule::kStatic;
  int64_t chunk = 0;     // 0 = runtime default for the schedule
  bool nowait = false;   // skip the implicit barrier after the loop
};

/// Per-team-member execution context. Passed by reference into region
/// bodies; never stored beyond the region.
class Ctx {
 public:
  uint32_t thread_num() const { return lane_; }
  uint32_t num_threads() const;
  RegionId region() const;
  RegionId parent_region() const;
  /// Nesting depth: 1 for the outermost parallel region.
  uint32_t level() const;
  /// Barriers this thread has crossed in this region (= current barrier
  /// interval index).
  uint64_t barrier_phase() const { return phase_; }
  const osl::Label& label() const { return label_; }
  const std::vector<MutexId>& held_mutexes() const { return held_; }

  /// Explicit barrier (#pragma omp barrier).
  void Barrier();

  /// Worksharing loop over [begin, end). Implicit barrier at the end unless
  /// opts.nowait.
  void For(int64_t begin, int64_t end, const std::function<void(int64_t)>& body,
           ForOpts opts = {});

  /// Named critical section (#pragma omp critical(name)).
  void Critical(const std::string& name, const std::function<void()>& body);

  /// One team member executes the body (#pragma omp single). Implicit
  /// barrier at the end unless nowait.
  void Single(const std::function<void()>& body, bool nowait = false);

  /// Lane 0 executes the body; no barrier (#pragma omp master).
  void Master(const std::function<void()>& body);

  /// Ordered section inside a For (#pragma omp ordered): bodies execute in
  /// ascending iteration order, one at a time. Call once per iteration with
  /// that iteration's index; every iteration of the enclosing loop must
  /// call it (OpenMP's ordered contract). `begin` is the loop's lower
  /// bound. Tools observe it as a mutex acquire/release (the serialization
  /// also creates the corresponding happens-before edges).
  void Ordered(int64_t iteration, int64_t begin, const std::function<void()>& body);

  /// Distributes section bodies across the team (#pragma omp sections).
  /// Implicit barrier at the end unless nowait. Distribution is
  /// first-come-first-served by default (like mainstream OpenMP runtimes);
  /// static_dist pins section i to lane i % num_threads, which some
  /// runtimes use and which makes cross-thread execution deterministic.
  void Sections(const std::vector<std::function<void()>>& sections,
                bool nowait = false, bool static_dist = false);

  /// Nested parallel region; this thread becomes lane 0 of the inner team.
  void Parallel(uint32_t span, const std::function<void(Ctx&)>& body);

  /// Explicit lock API (omp_set_lock / omp_unset_lock).
  void LockAcquire(MutexId id);
  void LockRelease(MutexId id);

 private:
  friend class Team;
  friend void ParallelImpl(Ctx* parent, uint32_t span,
                           const std::function<void(Ctx&)>& body);
  friend Ctx* CurrentCtx();

  Ctx(Team* team, uint32_t lane, osl::Label label, Ctx* parent)
      : team_(team), lane_(lane), label_(std::move(label)), parent_(parent) {}

  void BarrierImpl(BarrierKind kind);
  void BarrierIfNeeded(bool nowait) {
    if (!nowait) BarrierImpl(BarrierKind::kWorkshare);
  }

  Team* team_;
  uint32_t lane_;
  osl::Label label_;
  Ctx* parent_;
  uint64_t phase_ = 0;     // barriers crossed
  uint64_t ws_seq_ = 0;    // worksharing instances encountered
  std::vector<MutexId> held_;
};

/// Enters a parallel region from sequential code (#pragma omp parallel).
/// span == 0 uses RuntimeConfig::default_threads.
void Parallel(uint32_t span, const std::function<void(Ctx&)>& body);

/// Convenience: Parallel + For(static) in one call
/// (#pragma omp parallel for).
void ParallelFor(uint32_t span, int64_t begin, int64_t end,
                 const std::function<void(Ctx&, int64_t)>& body);

/// The calling thread's innermost context, or null outside parallel regions.
Ctx* CurrentCtx();

/// RAII lock bound to a fresh runtime mutex id (omp_init_lock analogue).
class Lock {
 public:
  Lock() : id_(Runtime::Get().NewLockId()) {}
  MutexId id() const { return id_; }

  void Acquire();
  void Release();

  /// Scoped acquire/release.
  class Guard {
   public:
    explicit Guard(Lock& lock) : lock_(lock) { lock_.Acquire(); }
    ~Guard() { lock_.Release(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Lock& lock_;
  };

 private:
  MutexId id_;
};

}  // namespace sword::somp
