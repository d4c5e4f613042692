// Memory-access instrumentation shim - the LLVM-pass substitute.
//
// The paper's compiler pass rewrites every load/store executed inside a
// parallel region into a runtime callback carrying (address, size, kind, pc).
// Here workloads perform shared-memory accesses through these functions; each
// call site's std::source_location plays the role of the program counter.
//
// Semantics:
//  - the underlying memory operation really happens, via relaxed
//    std::atomic_ref, so intentionally racy workloads do not execute C++
//    undefined behaviour while still presenting races to the detectors;
//  - the registered Tool receives OnAccess when (and only when) the calling
//    thread is inside a parallel region - sequential accesses are invisible,
//    exactly like the paper's pass which only instruments parallel code;
//  - atomic_* variants set kAccessAtomic, matching "#pragma omp atomic":
//    two atomic accesses never race with each other.
#pragma once

#include <atomic>
#include <cstring>
#include <source_location>
#include <type_traits>

#include "somp/runtime.h"
#include "somp/sink.h"
#include "somp/srcloc.h"
#include "somp/tool.h"

namespace sword::instr {

namespace detail {

template <typename T>
inline void Record(const T& location, uint8_t flags, const std::source_location& loc) {
  somp::Ctx* const ctx = somp::CurrentCtx();
  if (!ctx) return;  // sequential code is not instrumented
  // Fast path: the tool installed a per-thread sink for this context
  // (somp/sink.h); one function-pointer call replaces the Runtime lookup +
  // virtual dispatch + the tool's own TLS re-check.
  somp::ThreadEventSink& sink = somp::tls_event_sink;
  if (sink.on_access && sink.ctx == ctx &&
      sink.epoch == somp::sink_epoch.load(std::memory_order_relaxed)) {
    sink.on_access(sink.state, reinterpret_cast<uint64_t>(&location),
                   static_cast<uint8_t>(sizeof(T)), flags,
                   somp::InternSrcLoc(loc));
    return;
  }
  somp::Tool* const tool = somp::Runtime::Get().tool();
  if (!tool) return;
  tool->OnAccess(*ctx, reinterpret_cast<uint64_t>(&location),
                 static_cast<uint8_t>(sizeof(T)), flags, somp::InternSrcLoc(loc));
}

/// Shared body of write_range/read_range: one range event through the sink
/// or the tool's OnRangeAccess (whose default rechunks for legacy tools).
inline void RecordRange(const void* ptr, size_t bytes, uint8_t flags,
                        const std::source_location& loc) {
  somp::Ctx* const ctx = somp::CurrentCtx();
  if (!ctx) return;
  const uint64_t addr = reinterpret_cast<uint64_t>(ptr);
  somp::ThreadEventSink& sink = somp::tls_event_sink;
  if (sink.on_range && sink.ctx == ctx &&
      sink.epoch == somp::sink_epoch.load(std::memory_order_relaxed)) {
    sink.on_range(sink.state, addr, bytes, flags, somp::InternSrcLoc(loc));
    return;
  }
  somp::Tool* const tool = somp::Runtime::Get().tool();
  if (!tool) return;
  tool->OnRangeAccess(*ctx, addr, bytes, flags, somp::InternSrcLoc(loc));
}

template <typename T>
constexpr void CheckInstrumentable() {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "instrument scalar types only (<= 8 bytes)");
}

}  // namespace detail

/// Instrumented plain load (a racy candidate read).
template <typename T>
inline T load(const T& x,
              const std::source_location& loc = std::source_location::current()) {
  detail::CheckInstrumentable<T>();
  detail::Record(x, somp::kAccessRead, loc);
  return std::atomic_ref<T>(const_cast<T&>(x)).load(std::memory_order_relaxed);
}

/// Instrumented plain store (a racy candidate write).
template <typename T>
inline void store(T& x, T value,
                  const std::source_location& loc = std::source_location::current()) {
  detail::CheckInstrumentable<T>();
  detail::Record(x, somp::kAccessWrite, loc);
  std::atomic_ref<T>(x).store(value, std::memory_order_relaxed);
}

/// Instrumented atomic load (#pragma omp atomic read).
template <typename T>
inline T atomic_load(const T& x,
                     const std::source_location& loc = std::source_location::current()) {
  detail::CheckInstrumentable<T>();
  detail::Record(x, static_cast<uint8_t>(somp::kAccessRead | somp::kAccessAtomic), loc);
  return std::atomic_ref<T>(const_cast<T&>(x)).load(std::memory_order_seq_cst);
}

/// Instrumented atomic store (#pragma omp atomic write).
template <typename T>
inline void atomic_store(T& x, T value,
                         const std::source_location& loc = std::source_location::current()) {
  detail::CheckInstrumentable<T>();
  detail::Record(x, static_cast<uint8_t>(somp::kAccessWrite | somp::kAccessAtomic), loc);
  std::atomic_ref<T>(x).store(value, std::memory_order_seq_cst);
}

/// Instrumented atomic fetch-add (#pragma omp atomic update). Returns the
/// previous value. Works for integral and floating-point T.
template <typename T>
inline T atomic_add(T& x, T delta,
                    const std::source_location& loc = std::source_location::current()) {
  detail::CheckInstrumentable<T>();
  detail::Record(x, static_cast<uint8_t>(somp::kAccessWrite | somp::kAccessAtomic), loc);
  if constexpr (std::is_integral_v<T>) {
    return std::atomic_ref<T>(x).fetch_add(delta, std::memory_order_seq_cst);
  } else {
    // CAS loop for floating point.
    std::atomic_ref<T> ref(x);
    T cur = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(cur, cur + delta, std::memory_order_seq_cst)) {
    }
    return cur;
  }
}

/// Read-modify-write expressed as separate instrumented load + store
/// (i.e. "x++" WITHOUT atomicity - the classic racy increment).
template <typename T>
inline void racy_increment(T& x, T delta = T{1},
                           const std::source_location& loc = std::source_location::current()) {
  const T v = load(x, loc);
  store(x, static_cast<T>(v + delta), loc);
}

/// Instrumented bulk write (memset/memcpy destinations). Reported as ONE
/// range event (tools with native range support log a single strided run;
/// the Tool::OnRangeAccess default rechunks into <= 128-byte accesses, the
/// TSan-style historical stream). The bytes themselves are written with
/// plain memset (callers own the actual data movement when they need real
/// contents).
inline void write_range(void* ptr, size_t bytes, int fill = 0,
                        const std::source_location& loc = std::source_location::current()) {
  std::memset(ptr, fill, bytes);
  detail::RecordRange(ptr, bytes, somp::kAccessWrite, loc);
}

/// Instrumented bulk read (memcpy sources, checksum scans).
inline void read_range(const void* ptr, size_t bytes,
                       const std::source_location& loc = std::source_location::current()) {
  detail::RecordRange(ptr, bytes, somp::kAccessRead, loc);
}

}  // namespace sword::instr
