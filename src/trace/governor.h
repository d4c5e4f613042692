// Adaptive degradation governor: the tracer's answer to sustained backend
// pressure (slow disks, ENOSPC storms, starved flush credits, exhausted
// buffer pools). Instead of the only two historical responses — block the
// producer or drop wholesale with a gap frame — the governor steps the
// online tracer through explicit fidelity levels:
//
//   kFull        full tracing (level 0)
//   kAggressive  per-site event cap: each PC keeps its first
//                kAggressiveSiteCap events per segment (level 1)
//   kSampling    per-site sampling: each PC keeps 1-in-sample_keep_period
//                events, always including the first (level 2)
//   kSummary     summary only: each PC keeps exactly its first event per
//                segment (level 3)
//
// Every shed event is COUNTED (per-segment degraded_dropped in the interval
// record, totals in the meta header), and every level change is recorded in
// the meta `degradation` section, so offline analysis knows exactly which
// barrier intervals ran at reduced fidelity. Degradation only ever REMOVES
// events: a race found in a degraded interval is still a real race; only
// the absence of a report loses meaning. See docs/RESILIENCE.md.
//
// Pressure inputs are relaxed atomic counters bumped from producer and
// flusher threads; Evaluate() (called from the flusher's worker loop and
// the synchronous flush path) folds the deltas, steps DOWN immediately when
// any threshold trips, and steps back UP one level only after
// calm_evals_to_recover consecutive calm evaluations (hysteresis, so a
// flapping disk cannot make the tracer oscillate per event).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "trace/meta.h"

namespace sword::trace {

enum class DegradationLevel : uint8_t {
  kFull = 0,
  kAggressive = 1,
  kSampling = 2,
  kSummary = 3,
};

constexpr uint8_t kDegradationLevels = 4;

const char* DegradationLevelName(uint8_t level);

/// Reason bits recorded with each transition (DegradationTransition::reason).
constexpr uint8_t kGovernorReasonBlocked = 0x01;   // producer blocked_nanos
constexpr uint8_t kGovernorReasonCredit = 0x02;    // flush credit starvation
constexpr uint8_t kGovernorReasonPool = 0x04;      // buffer pool exhaustion
constexpr uint8_t kGovernorReasonIoLatency = 0x08; // append latency EWMA
constexpr uint8_t kGovernorReasonWatchdog = 0x10;  // I/O watchdog drop
constexpr uint8_t kGovernorReasonRecovered = 0x20; // step back up (calm)

struct GovernorConfig {
  /// New producer-blocked nanos per evaluation that trigger a step down.
  uint64_t blocked_nanos_step = 2'000'000;
  /// Credit-starvation events (producer found zero credits) per evaluation
  /// that trigger a step down.
  uint64_t credit_stalls_step = 64;
  /// Append-latency EWMA (nanos per append) that triggers a step down.
  uint64_t io_latency_step_nanos = 50'000'000;
  /// Consecutive calm evaluations before stepping one level back up.
  uint32_t calm_evals_to_recover = 8;
  /// kSampling keeps 1 in this many events per site (first always kept).
  uint32_t sample_keep_period = 8;
  /// kAggressive keeps at most this many events per site per segment.
  uint32_t aggressive_site_cap = 1024;
};

class DegradationGovernor {
 public:
  explicit DegradationGovernor(const GovernorConfig& config = {});

  DegradationGovernor(const DegradationGovernor&) = delete;
  DegradationGovernor& operator=(const DegradationGovernor&) = delete;

  // ---- pressure inputs: relaxed atomics, callable from any thread ----
  void NotePoolExhausted() { pool_exhausted_.fetch_add(1, std::memory_order_relaxed); }
  void NoteCreditStall() { credit_stalls_.fetch_add(1, std::memory_order_relaxed); }
  void NoteWatchdogDrop() { watchdog_drops_.fetch_add(1, std::memory_order_relaxed); }
  void NoteBlockedNanos(uint64_t nanos) {
    blocked_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void NoteAppendLatency(uint64_t nanos) {
    append_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    append_count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Current level. Cheap relaxed load, safe on the per-access hot path.
  uint8_t level_ordinal() const {
    return static_cast<uint8_t>(packed_.load(std::memory_order_relaxed));
  }
  DegradationLevel level() const {
    return static_cast<DegradationLevel>(level_ordinal());
  }

  /// Packed (seq << 16 | reason << 8 | level) snapshot. Writers poll this:
  /// a changed seq means a transition happened since they last looked, and
  /// the reason/level in the SAME load are the ones to record — one atomic
  /// word, so a torn (level-from-one-transition, reason-from-another) pair
  /// is impossible.
  uint64_t PackedState() const { return packed_.load(std::memory_order_acquire); }
  static uint8_t PackedLevel(uint64_t packed) { return static_cast<uint8_t>(packed); }
  static uint8_t PackedReason(uint64_t packed) { return static_cast<uint8_t>(packed >> 8); }
  static uint64_t PackedSeq(uint64_t packed) { return packed >> 16; }

  /// Folds pressure-counter deltas and steps the level. Called periodically
  /// from flusher worker loops / the sync flush path; any cadence is safe.
  void Evaluate();

  /// Transition history (level entered, reason, eval ordinal in
  /// DegradationTransition::interval). Snapshot under the mutex.
  std::vector<DegradationTransition> Transitions() const;

  uint64_t evaluations() const { return evals_.load(std::memory_order_relaxed); }

  const GovernorConfig& config() const { return config_; }

 private:
  void TransitionLocked(uint8_t new_level, uint8_t reason);

  const GovernorConfig config_;
  std::atomic<uint64_t> packed_{0};  // seq<<16 | reason<<8 | level

  // Pressure inputs (monotonic totals; Evaluate consumes deltas).
  std::atomic<uint64_t> pool_exhausted_{0};
  std::atomic<uint64_t> credit_stalls_{0};
  std::atomic<uint64_t> watchdog_drops_{0};
  std::atomic<uint64_t> blocked_nanos_{0};
  std::atomic<uint64_t> append_nanos_{0};
  std::atomic<uint64_t> append_count_{0};
  std::atomic<uint64_t> evals_{0};

  mutable std::mutex mu_;
  // Last-consumed totals (guarded by mu_).
  uint64_t seen_pool_ = 0;
  uint64_t seen_credit_ = 0;
  uint64_t seen_watchdog_ = 0;
  uint64_t seen_blocked_ = 0;
  uint64_t seen_append_nanos_ = 0;
  uint64_t seen_append_count_ = 0;
  uint64_t latency_ewma_ = 0;  // nanos per append, alpha = 1/4
  uint32_t calm_streak_ = 0;
  uint64_t seq_ = 0;
  std::vector<DegradationTransition> transitions_;
};

}  // namespace sword::trace
