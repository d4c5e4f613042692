// Shared helpers for the table/figure reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the relevant workloads under the relevant detector configurations and
// prints rows in the paper's format, plus the paper's qualitative claim so
// the output is self-checking ("shape" comparison, not absolute numbers -
// the substrate here is a simulator on different hardware).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "common/timer.h"
#include "harness/harness.h"
#include "trace/flusher.h"
#include "workloads/workload.h"

namespace sword::bench {

inline const workloads::Workload& Find(const std::string& suite,
                                       const std::string& name) {
  const workloads::Workload* w = workloads::WorkloadRegistry::Get().Find(suite, name);
  if (!w) {
    std::fprintf(stderr, "workload %s/%s not registered\n", suite.c_str(),
                 name.c_str());
    std::abort();
  }
  return *w;
}

inline harness::RunResult Run(const workloads::Workload& w, harness::ToolKind tool,
                              uint32_t threads = 8, uint64_t size = 0,
                              uint64_t archer_cap = 0) {
  harness::RunConfig config;
  config.tool = tool;
  config.params.threads = threads;
  config.params.size = size;
  config.archer_memory_cap = archer_cap;
  return harness::RunWorkload(w, config);
}

/// Best-of-N repetition. The sub-millisecond kernels these benches time are
/// scheduler noise in a single run, so every timing site takes the best of
/// a few repetitions (the counters are deterministic across reps, only the
/// wall time varies). Runs `fn` `reps` times (at least once) and returns
/// the result with the smallest `key(result)`.
template <typename Fn, typename Key>
auto BestOfReps(int reps, Fn&& fn, Key&& key) {
  auto best = fn();
  for (int rep = 1; rep < reps; rep++) {
    auto again = fn();
    if (key(again) < key(best)) best = std::move(again);
  }
  return best;
}

inline void Banner(const char* title, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper's claim: %s\n", claim);
  std::printf("==============================================================\n\n");
}

/// Prints PASS/CHECK lines so bench output doubles as a shape check.
inline void Check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "REPRODUCED" : "MISMATCH  ", what.c_str());
}

/// Accumulates flush-pipeline counters across runs, for the overhead tables
/// that aggregate many workloads into one row.
inline void Accumulate(trace::FlusherStats* into, const trace::FlusherStats& s) {
  into->jobs_enqueued += s.jobs_enqueued;
  into->jobs_completed += s.jobs_completed;
  into->producer_blocks += s.producer_blocks;
  into->blocked_nanos += s.blocked_nanos;
  into->bytes_in += s.bytes_in;
  into->bytes_written += s.bytes_written;
  into->appends += s.appends;
  if (into->worker_bytes_in.size() < s.worker_bytes_in.size()) {
    into->worker_bytes_in.resize(s.worker_bytes_in.size());
  }
  for (size_t i = 0; i < s.worker_bytes_in.size(); i++) {
    into->worker_bytes_in[i] += s.worker_bytes_in[i];
  }
}

/// One-line rendering of the flush-pipeline counters: volume through the
/// worker pool and whether backpressure ever stalled a producer (producer
/// stalls are exactly the overhead the paper's async design claims to avoid,
/// so the overhead tables surface them next to the slowdown numbers).
inline std::string FlusherSummary(const trace::FlusherStats& s) {
  return std::to_string(s.worker_bytes_in.size()) + " worker(s), " +
         std::to_string(s.jobs_completed) + " flush job(s), " +
         FormatBytes(s.bytes_in) + " raw -> " + FormatBytes(s.bytes_written) +
         " framed, " + std::to_string(s.producer_blocks) + " stall(s) (" +
         FormatSeconds(static_cast<double>(s.blocked_nanos) * 1e-9) +
         " blocked)";
}

}  // namespace sword::bench
