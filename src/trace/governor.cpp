#include "trace/governor.h"

#include "common/log.h"

namespace sword::trace {

const char* DegradationLevelName(uint8_t level) {
  switch (static_cast<DegradationLevel>(level)) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kAggressive: return "aggressive";
    case DegradationLevel::kSampling: return "sampling";
    case DegradationLevel::kSummary: return "summary";
  }
  return "unknown";
}

DegradationGovernor::DegradationGovernor(const GovernorConfig& config)
    : config_(config) {}

void DegradationGovernor::TransitionLocked(uint8_t new_level, uint8_t reason) {
  seq_++;
  transitions_.push_back(
      DegradationTransition{new_level, reason, /*interval=*/evals_.load(std::memory_order_relaxed)});
  packed_.store((seq_ << 16) | (static_cast<uint64_t>(reason) << 8) | new_level,
                std::memory_order_release);
  SWORD_WARN() << "degradation governor -> level " << int(new_level) << " ("
               << DegradationLevelName(new_level) << "), reason 0x" << std::hex
               << int(reason) << std::dec;
}

void DegradationGovernor::Evaluate() {
  std::lock_guard<std::mutex> lock(mu_);
  evals_.fetch_add(1, std::memory_order_relaxed);

  const uint64_t pool = pool_exhausted_.load(std::memory_order_relaxed);
  const uint64_t credit = credit_stalls_.load(std::memory_order_relaxed);
  const uint64_t watchdog = watchdog_drops_.load(std::memory_order_relaxed);
  const uint64_t blocked = blocked_nanos_.load(std::memory_order_relaxed);
  const uint64_t ap_nanos = append_nanos_.load(std::memory_order_relaxed);
  const uint64_t ap_count = append_count_.load(std::memory_order_relaxed);

  // Fold the append-latency EWMA from this eval's batch of appends.
  if (ap_count > seen_append_count_) {
    const uint64_t batch_mean =
        (ap_nanos - seen_append_nanos_) / (ap_count - seen_append_count_);
    latency_ewma_ = latency_ewma_ - latency_ewma_ / 4 + batch_mean / 4;
  }

  uint8_t reason = 0;
  if (blocked - seen_blocked_ >= config_.blocked_nanos_step) {
    reason |= kGovernorReasonBlocked;
  }
  if (credit - seen_credit_ >= config_.credit_stalls_step) {
    reason |= kGovernorReasonCredit;
  }
  if (pool > seen_pool_) reason |= kGovernorReasonPool;
  if (watchdog > seen_watchdog_) reason |= kGovernorReasonWatchdog;
  if (latency_ewma_ >= config_.io_latency_step_nanos) {
    reason |= kGovernorReasonIoLatency;
  }

  seen_pool_ = pool;
  seen_credit_ = credit;
  seen_watchdog_ = watchdog;
  seen_blocked_ = blocked;
  seen_append_nanos_ = ap_nanos;
  seen_append_count_ = ap_count;

  const uint8_t level = static_cast<uint8_t>(packed_.load(std::memory_order_relaxed));
  if (reason != 0) {
    calm_streak_ = 0;
    if (level + 1 < kDegradationLevels) TransitionLocked(level + 1, reason);
    return;
  }
  if (level == 0) return;
  // Calm. Step back up one level only after a full quiet streak, and reset
  // the streak on the way so each recovery step needs its own quiet period.
  if (++calm_streak_ >= config_.calm_evals_to_recover) {
    calm_streak_ = 0;
    TransitionLocked(level - 1, kGovernorReasonRecovered);
  }
}

std::vector<DegradationTransition> DegradationGovernor::Transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

}  // namespace sword::trace
