// Measurement harness: runs one workload under one detector configuration
// and reports the quantities the paper's tables and figures are built from.
//
// Configurations mirror the paper's four: "baseline" (checking disabled),
// "archer" (HB detector, 4 shadow cells), "archer-low" (HB + shadow flush
// between regions), and "sword" (bounded trace collection; optionally
// followed by the offline analysis).
//
// Memory numbers are byte-exact from the instrumented accounting scopes
// (see common/memtrack.h): `baseline_bytes` is the workload's declared data
// footprint, `tool_peak_bytes` the detector's own peak. "Total memory" for
// the figures is baseline + tool, matching how the paper compares
// application-proportional (archer) vs thread-proportional (sword) overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sword_tool.h"
#include "offline/analysis.h"
#include "trace/flusher.h"
#include "workloads/workload.h"

namespace sword::harness {

// kEraser is a beyond-paper baseline: a pure lockset detector (Eraser),
// schedule-independent like SWORD but blind to barriers - see
// src/hb/eraser_tool.h and bench_lockset_comparison.
enum class ToolKind { kBaseline, kArcher, kArcherLow, kSword, kEraser };

const char* ToolName(ToolKind kind);

struct RunConfig {
  ToolKind tool = ToolKind::kBaseline;
  workloads::WorkloadParams params;

  /// SWORD knobs. An empty `sword.out_dir` means a fresh temp dir per run;
  /// `sword.backend` is set from `fault_plan`.
  core::SwordConfig sword;
  bool run_offline = true;             // run the offline analysis afterwards
  uint32_t offline_threads = 1;
  bool journal_offline = false;        // checkpoint each analysis bucket

  // Production-survivability knobs (see docs/RESILIENCE.md).
  /// Deterministic fault-plan spec (common/faultfs.h grammar). Non-empty
  /// routes all trace I/O through a FaultFile and applies pool-level
  /// faults; the offline open switches to salvage mode automatically.
  std::string fault_plan;
  bool salvage_offline = false;        // force salvage-mode analysis

  // HB-baseline knobs.
  uint32_t shadow_cells = 4;
  uint64_t archer_memory_cap = 0;      // simulated node memory; 0 = unlimited
};

struct RunResult {
  std::string workload;
  ToolKind tool = ToolKind::kBaseline;
  Status status;

  double dynamic_seconds = 0;       // wall time of the (instrumented) run
  double offline_seconds = 0;       // SWORD offline analysis, single node (OA)
  double offline_max_bucket = 0;    // SWORD distributed proxy (MT)

  uint64_t races = 0;               // deduplicated pc-pair reports
  uint64_t false_alarms = 0;        // reports beyond the workload's ground truth
  bool oom = false;                 // HB detector hit the memory cap

  uint64_t baseline_bytes = 0;      // application data footprint
  uint64_t tool_peak_bytes = 0;     // detector peak memory
  uint64_t log_bytes_on_disk = 0;   // compressed trace size (sword)
  uint64_t events = 0;              // events logged (sword) / accesses seen
  uint64_t events_suppressed = 0;   // duplicate accesses filtered (sword)
  uint64_t events_coalesced = 0;    // accesses folded into runs (sword)
  uint64_t runs_emitted = 0;        // strided run events written (sword)
  uint64_t accesses_dropped = 0;    // accesses seen outside a segment (sword)
  uint64_t degraded_dropped = 0;    // accesses shed by the governor (sword)
  uint64_t flushes = 0;             // buffer flushes (sword)
  uint64_t trace_threads = 0;       // sword threads (for N*(B+C))
  trace::FlusherStats flusher;      // flush-pipeline counters (sword)
  uint32_t faults_fired = 0;        // FaultKind bits that took effect

  offline::AnalysisStats analysis;  // populated for sword runs

  uint64_t TotalMemoryBytes() const { return baseline_bytes + tool_peak_bytes; }
};

/// Runs `workload` once under the configuration. Resets runtime ids first;
/// must not be called concurrently with itself.
RunResult RunWorkload(const workloads::Workload& workload, const RunConfig& config);

/// Convenience: run by (suite, name); fails NotFound if unregistered.
Result<RunResult> RunByName(const std::string& suite, const std::string& name,
                            const RunConfig& config);

/// Geometric mean helper for Fig. 6-style aggregation.
double GeometricMean(const std::vector<double>& values);

}  // namespace sword::harness
