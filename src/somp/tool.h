// Tool observation interface - the OMPT equivalent (paper SIII-A).
//
// SWORD collects its traces exclusively through OMPT callbacks plus
// compiler-inserted load/store instrumentation. This interface carries the
// same event vocabulary: thread lifecycle, parallel region begin/end,
// implicit tasks, barriers, mutex acquire/release, and instrumented memory
// accesses. A Tool is registered on the Runtime; both the SWORD collector
// (src/core) and the ARCHER-style happens-before baseline (src/hb) are Tools,
// so every workload runs unmodified under either detector or under none
// (the "baseline" configuration).
//
// Callback threading contract: callbacks for a given Ctx are invoked on that
// context's OS thread, in program order. Callbacks for different contexts
// may be concurrent - tools synchronize their own state (SWORD deliberately
// does not need to: each thread logs independently).
//
// Ordering guarantees the runtime provides:
//  - OnParallelBegin(parent) happens-before every member's OnImplicitTaskBegin;
//  - every member's OnImplicitTaskEnd happens-before OnParallelEnd(parent);
//  - for mid-region barriers, every member's OnBarrierEnter happens-before
//    every member's OnBarrierExit of the same barrier instance;
//  - the region-end barrier emits OnBarrierEnter(kRegionEnd) per member but
//    no OnBarrierExit (no accesses can follow it within the region).
#pragma once

#include <cstdint>

namespace sword::somp {

class Ctx;

using RegionId = uint64_t;
using MutexId = uint32_t;
using PcId = uint32_t;

enum AccessFlags : uint8_t {
  kAccessRead = 0,
  kAccessWrite = 1 << 0,
  kAccessAtomic = 1 << 1,
};

enum class BarrierKind : uint8_t {
  kExplicit,   // Barrier() call (OpenMP "#pragma omp barrier")
  kWorkshare,  // implicit barrier ending For/Single/Sections
  kRegionEnd,  // implicit barrier ending the parallel region
};

class Tool {
 public:
  virtual ~Tool() = default;

  /// A team member starts executing the region body (including the
  /// encountering thread as lane 0).
  virtual void OnImplicitTaskBegin(Ctx& ctx) { (void)ctx; }
  virtual void OnImplicitTaskEnd(Ctx& ctx) { (void)ctx; }

  /// Region lifecycle, reported by the encountering thread. `parent` is
  /// null for a region entered from sequential code.
  virtual void OnParallelBegin(Ctx* parent, RegionId region, uint32_t span) {
    (void)parent;
    (void)region;
    (void)span;
  }
  virtual void OnParallelEnd(Ctx* parent, RegionId region) {
    (void)parent;
    (void)region;
  }

  /// The thread is about to wait at barrier number `phase` of its region
  /// (0-based, identical across the team); its current barrier interval ends
  /// here. Called before the physical wait so threads log independently.
  virtual void OnBarrierEnter(Ctx& ctx, uint64_t phase, BarrierKind kind) {
    (void)ctx;
    (void)phase;
    (void)kind;
  }
  /// The thread crossed barrier `phase`; a new barrier interval begins.
  /// Not emitted for kRegionEnd barriers.
  virtual void OnBarrierExit(Ctx& ctx, uint64_t phase) {
    (void)ctx;
    (void)phase;
  }

  virtual void OnMutexAcquired(Ctx& ctx, MutexId mutex) {
    (void)ctx;
    (void)mutex;
  }
  virtual void OnMutexReleased(Ctx& ctx, MutexId mutex) {
    (void)ctx;
    (void)mutex;
  }

  /// An instrumented memory access (only invoked from within parallel
  /// regions, mirroring the paper's "ignore sequential instructions").
  virtual void OnAccess(Ctx& ctx, uint64_t addr, uint8_t size, uint8_t flags,
                        PcId pc) {
    (void)ctx;
    (void)addr;
    (void)size;
    (void)flags;
    (void)pc;
  }

  /// An instrumented bulk access over [addr, addr+bytes) (memset/memcpy
  /// style). The default breaks the range into <= 128-byte chunk accesses,
  /// so tools without a native range representation observe exactly the
  /// historical per-chunk event stream; SWORD overrides this to log a
  /// single strided run event.
  virtual void OnRangeAccess(Ctx& ctx, uint64_t addr, uint64_t bytes,
                             uint8_t flags, PcId pc) {
    while (bytes > 0) {
      const uint8_t chunk = bytes > 128 ? 128 : static_cast<uint8_t>(bytes);
      OnAccess(ctx, addr, chunk, flags, pc);
      addr += chunk;
      bytes -= chunk;
    }
  }

  /// The outermost parallel work is done; flush any pending state.
  virtual void OnRuntimeShutdown() {}
};

}  // namespace sword::somp
