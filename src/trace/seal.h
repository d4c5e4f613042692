// Fatal-signal trace sealing (production-run survivability).
//
// A production run that dies of SIGSEGV/SIGBUS/SIGABRT/SIGFPE/SIGILL must
// still yield a salvageable trace. The constraint is brutal: a fatal-signal
// handler may only touch async-signal-safe territory — no malloc, no locks,
// no C++ serialization, no iostreams. The design splits the work so that
// NOTHING interesting happens in signal context:
//
//  - Normal context (the trace writer, at construction) registers its two
//    file paths in a fixed-slot SealRegistry. Nothing else is published:
//    the meta is an append-only record log (trace/meta.h, SWM7), so sealing
//    it is one more append.
//
//  - Signal context walks the live slots and, per slot, appends (1) a
//    fixed-layout crash-marker frame ("SWCR") to the log and (2) a
//    fixed-size sealed(signo) record to the meta, fsyncing each. Both are
//    built into stack buffers by allocation-free encoders. A meta record
//    torn by the crash itself hides the sealed record behind it (the
//    record log stops at the tear), but the log's crash marker still
//    reports the crash. Only open/write/fsync/close/sigaction/raise run in
//    the handler.
//
// Handlers chain: the pre-existing disposition is saved at install, restored
// after sealing, and the signal re-raised, so an application's own crash
// handler (or the default core dump) still runs. A dedicated sigaltstack
// keeps sealing working even when the fault is a stack overflow.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sword::trace {

/// Fixed-capacity registry of live trace writers the fatal-signal handler
/// seals. All mutation happens in normal context; the handler only reads.
class SealRegistry {
 public:
  static constexpr size_t kMaxSlots = 256;
  static constexpr size_t kMaxPath = 256;
  static constexpr int kNoSlot = -1;

  static SealRegistry& Instance();

  /// Claims a slot for (log_path, meta_path). Returns kNoSlot when the
  /// registry is full or a path does not fit the fixed buffers (the trace
  /// still works; it just cannot be crash-sealed). Thread-safe.
  int Register(const std::string& log_path, const std::string& meta_path);

  /// Frees the slot (writer Finish). No-op for kNoSlot.
  void Unregister(int slot);

  /// The async-signal-safe sealing pass: walks live slots, appends a crash
  /// marker to each log and a sealed(signo) record to each meta. Public so
  /// tests can drive it without dying.
  void SealFromSignal(int signo);

  /// Slots currently live (testing/stats).
  size_t live_slots() const;

 private:
  SealRegistry() = default;

  struct Slot {
    std::atomic<uint32_t> state{0};  // 0 free, 1 claimed, 2 live
    char log_path[kMaxPath] = {0};
    char meta_path[kMaxPath] = {0};
  };

  void SealSlot(Slot& slot, int signo);

  Slot slots_[kMaxSlots];
};

/// Installs the sealing handler for SIGSEGV/SIGBUS/SIGABRT/SIGFPE/SIGILL,
/// chaining to any pre-existing disposition. Idempotent; thread-safe.
void InstallSealHandlers();

/// True once InstallSealHandlers has run.
bool SealHandlersInstalled();

}  // namespace sword::trace
