// Per-thread event sink - the instrumentation fast path.
//
// The generic access path costs a Runtime singleton load, a virtual
// Tool::OnAccess dispatch, and the tool's own TLS handle re-check on every
// instrumented load/store. A tool that wants out of that installs a
// ThreadEventSink in this thread-local: a plain function pointer plus the
// per-thread state it targets (SWORD: the thread's trace writer). The shim
// in instr.h then makes ONE indirect call per access.
//
// Validity rules (who may trust an installed sink):
//  - `ctx` must equal the calling thread's CurrentCtx(). A sink is installed
//    per (thread, segment); when the region ends, its Ctx dies and a new
//    region could reuse the stack slot, so the installer must ALSO clear or
//    reinstall the sink at every segment boundary (SWORD installs in
//    BeginSegmentFor and clears on barrier enter / task end).
//  - `epoch` must equal the current global sink epoch. Anything that
//    invalidates other threads' sinks without running on those threads -
//    tool finalization, tool replacement via Runtime::Configure - calls
//    RetireSinks(), which bumps the epoch instead of chasing thread-locals
//    it cannot touch. A stale sink fails the check and the caller falls
//    back to the virtual path, which re-resolves the tool safely.
//
// That per-access check is the whole retirement rule, so retiring needs
// nothing from the threads that hold sinks. The check is a relaxed atomic
// load: instrumentation and retirement are not concurrent by the runtime's
// contract (Configure and Finalize happen outside parallel regions); the
// epoch only needs to become visible by the next region's install, which
// the runtime's own region synchronization orders.
#pragma once

#include <atomic>
#include <cstdint>

#include "somp/tool.h"

namespace sword::somp {

class Ctx;

struct ThreadEventSink {
  using AccessFn = void (*)(void* state, uint64_t addr, uint8_t size,
                            uint8_t flags, PcId pc);
  using RangeFn = void (*)(void* state, uint64_t addr, uint64_t bytes,
                           uint8_t flags, PcId pc);

  AccessFn on_access = nullptr;
  RangeFn on_range = nullptr;
  void* state = nullptr;     // the installing tool's per-thread object
  const Ctx* ctx = nullptr;  // context the sink was installed for
  uint64_t epoch = 0;        // CurrentSinkEpoch() at install time
};

extern thread_local ThreadEventSink tls_event_sink;

/// The global sink-invalidation epoch (monotone, starts at 1).
std::atomic<uint64_t>& SinkEpoch();

inline uint64_t CurrentSinkEpoch() {
  return SinkEpoch().load(std::memory_order_acquire);
}

/// Installs `sink` as the calling thread's fast-path sink, stamped with the
/// current epoch.
void InstallThreadSink(ThreadEventSink sink);

/// Clears the calling thread's sink.
void ClearThreadSink();

/// Retires every thread's installed sink without touching other threads'
/// TLS: bumps the epoch, so each stale sink fails the per-access check and
/// its thread takes the virtual tool path until it installs again.
void RetireSinks();

}  // namespace sword::somp
