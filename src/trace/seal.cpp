#include "trace/seal.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#include "common/log.h"
#include "compress/frame.h"
#include "trace/meta.h"

namespace sword::trace {
namespace {

/// write(2) everything, retrying EINTR a bounded number of times. Async-
/// signal-safe: raw syscalls only.
bool WriteAllRaw(int fd, const uint8_t* data, size_t n) {
  size_t done = 0;
  int spins = 0;
  while (done < n) {
    const ssize_t got = ::write(fd, data + done, n - done);
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR && spins++ < 64) continue;
    return false;
  }
  return true;
}

/// Appends `n` bytes to an existing file and fsyncs it. Async-signal-safe.
void AppendRaw(const char* path, const uint8_t* data, size_t n) {
  const int fd = ::open(path, O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return;
  if (WriteAllRaw(fd, data, n)) (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

SealRegistry& SealRegistry::Instance() {
  // Touched from normal context before any handler can run
  // (InstallSealHandlers and Register both call Instance), so the handler
  // never observes an under-construction static.
  static SealRegistry* registry = new SealRegistry();
  return *registry;
}

int SealRegistry::Register(const std::string& log_path,
                           const std::string& meta_path) {
  if (log_path.size() >= kMaxPath || meta_path.size() >= kMaxPath) {
    SWORD_WARN() << "seal registry: path too long, trace not crash-sealable: "
                 << log_path;
    return kNoSlot;
  }
  for (size_t i = 0; i < kMaxSlots; ++i) {
    Slot& s = slots_[i];
    uint32_t expected = 0;
    if (!s.state.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
      continue;
    }
    std::memset(s.log_path, 0, kMaxPath);
    std::memset(s.meta_path, 0, kMaxPath);
    std::memcpy(s.log_path, log_path.data(), log_path.size());
    std::memcpy(s.meta_path, meta_path.data(), meta_path.size());
    s.state.store(2, std::memory_order_release);
    return static_cast<int>(i);
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    SWORD_WARN() << "seal registry full (" << kMaxSlots
                 << " slots): further traces not crash-sealable";
  }
  return kNoSlot;
}

void SealRegistry::Unregister(int slot) {
  if (slot < 0 || static_cast<size_t>(slot) >= kMaxSlots) return;
  Slot& s = slots_[static_cast<size_t>(slot)];
  uint32_t expected = 2;
  (void)s.state.compare_exchange_strong(expected, 0, std::memory_order_acq_rel);
}

size_t SealRegistry::live_slots() const {
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state.load(std::memory_order_acquire) == 2) n++;
  }
  return n;
}

void SealRegistry::SealSlot(Slot& s, int signo) {
  // 1. In-band crash marker into the log. O_APPEND keeps the marker atomic
  // w.r.t. a concurrent flusher append's file offset; if that append was
  // itself torn by the crash, the marker lands mid-frame and the salvage
  // reader's resync finds it (a case the corruption matrix covers).
  uint8_t marker[kCrashMarkerBytes];
  EncodeCrashMarker(static_cast<uint8_t>(signo), marker);
  AppendRaw(s.log_path, marker, kCrashMarkerBytes);
  // 2. The sealed record, appended to the meta's record log. No O_CREAT: a
  // meta whose header never landed has nothing to seal.
  uint8_t sealed[kSealRecordBytes];
  EncodeSealRecord(static_cast<uint8_t>(signo), sealed);
  AppendRaw(s.meta_path, sealed, kSealRecordBytes);
}

void SealRegistry::SealFromSignal(int signo) {
  for (Slot& s : slots_) {
    if (s.state.load(std::memory_order_acquire) != 2) continue;
    SealSlot(s, signo);
  }
}

// ------------------------------------------------------------- installation

namespace {

constexpr int kSealSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL};
constexpr size_t kNumSealSignals = sizeof(kSealSignals) / sizeof(int);

struct sigaction g_old_actions[kNumSealSignals];
std::atomic<bool> g_installed{false};
std::atomic<uint32_t> g_sealing{0};

// A dedicated signal stack so sealing still works when the fatal signal IS
// a stack overflow. Static storage: no allocation at crash time.
alignas(16) char g_alt_stack[64 * 1024];

int SignalIndex(int signo) {
  for (size_t i = 0; i < kNumSealSignals; ++i) {
    if (kSealSignals[i] == signo) return static_cast<int>(i);
  }
  return -1;
}

void SealSignalHandler(int signo, siginfo_t* /*info*/, void* /*ucontext*/) {
  const int saved_errno = errno;
  // Re-entrancy guard: a crash INSIDE the sealer (or a second thread dying
  // concurrently) must not seal twice or recurse.
  if (g_sealing.exchange(1) == 0) {
    SealRegistry::Instance().SealFromSignal(signo);
  }
  errno = saved_errno;
  // Chain: restore the pre-existing disposition and re-deliver, so the
  // application's own handler (or the default core dump) still runs and the
  // process exit status reports the ORIGINAL signal.
  const int idx = SignalIndex(signo);
  if (idx >= 0) (void)::sigaction(signo, &g_old_actions[idx], nullptr);
  (void)::raise(signo);
}

}  // namespace

void InstallSealHandlers() {
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true)) return;
  // Construct the registry now, in normal context.
  (void)SealRegistry::Instance();

  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = g_alt_stack;
  ss.ss_size = sizeof(g_alt_stack);
  (void)::sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &SealSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  for (size_t i = 0; i < kNumSealSignals; ++i) {
    if (::sigaction(kSealSignals[i], &sa, &g_old_actions[i]) != 0) {
      std::memset(&g_old_actions[i], 0, sizeof(g_old_actions[i]));
    }
  }
}

bool SealHandlersInstalled() {
  return g_installed.load(std::memory_order_acquire);
}

}  // namespace sword::trace
