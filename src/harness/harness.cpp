#include "harness/harness.h"

#include <cmath>
#include <memory>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "common/timer.h"
#include "core/sword_tool.h"
#include "hb/archer_tool.h"
#include "hb/eraser_tool.h"
#include "offline/tracestore.h"
#include "somp/runtime.h"

namespace sword::harness {

const char* ToolName(ToolKind kind) {
  switch (kind) {
    case ToolKind::kBaseline:
      return "baseline";
    case ToolKind::kArcher:
      return "archer";
    case ToolKind::kArcherLow:
      return "archer-low";
    case ToolKind::kSword:
      return "sword";
    case ToolKind::kEraser:
      return "eraser";
  }
  return "?";
}

namespace {

void ConfigureRuntime(somp::Tool* tool, uint32_t threads) {
  somp::RuntimeConfig rc;
  rc.tool = tool;
  rc.default_threads = threads == 0 ? 4 : threads;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
}

void UnconfigureRuntime() {
  somp::RuntimeConfig rc;
  rc.tool = nullptr;
  somp::Runtime::Get().Configure(rc);
}

}  // namespace

RunResult RunWorkload(const workloads::Workload& workload, const RunConfig& config) {
  RunResult result;
  result.workload = workload.name;
  result.tool = config.tool;
  result.baseline_bytes = workload.baseline_bytes(config.params);

  switch (config.tool) {
    case ToolKind::kBaseline: {
      ConfigureRuntime(nullptr, config.params.threads);
      Timer timer;
      workload.run(config.params);
      result.dynamic_seconds = timer.ElapsedSeconds();
      break;
    }

    case ToolKind::kEraser: {
      hb::EraserTool tool;
      ConfigureRuntime(&tool, config.params.threads);
      Timer timer;
      workload.run(config.params);
      result.dynamic_seconds = timer.ElapsedSeconds();
      result.races = tool.Races().size();
      result.tool_peak_bytes = tool.MemoryBytes();
      break;
    }

    case ToolKind::kArcher:
    case ToolKind::kArcherLow: {
      hb::ArcherConfig ac;
      ac.flush_shadow = config.tool == ToolKind::kArcherLow;
      ac.shadow_cells = config.shadow_cells;
      ac.memory_cap_bytes = config.archer_memory_cap;
      hb::ArcherTool tool(ac);
      ConfigureRuntime(&tool, config.params.threads);
      Timer timer;
      workload.run(config.params);
      result.dynamic_seconds = timer.ElapsedSeconds();
      result.races = tool.Races().size();
      result.oom = tool.OutOfMemory();
      result.tool_peak_bytes = tool.PeakMemoryBytes();
      if (result.oom) {
        result.status = Status::Oom("HB detector exceeded the node memory cap");
      }
      break;
    }

    case ToolKind::kSword: {
      // Fresh trace directory per run unless the caller pins one.
      std::unique_ptr<TempDir> tmp;
      std::string dir = config.sword.out_dir;
      if (dir.empty()) {
        tmp = std::make_unique<TempDir>("sword-trace");
        dir = tmp->path();
      }
      // Deterministic fault injection: the whole plan replays from its spec
      // string, so any chaos failure reproduces with the same flag.
      testing::FaultPlan plan;
      testing::FaultFile fault_backend;  // must outlive the tool's flusher
      if (!config.fault_plan.empty()) {
        auto parsed = testing::ParseFaultPlan(config.fault_plan);
        if (!parsed.ok()) {
          result.status = parsed.status();
          return result;
        }
        plan = std::move(parsed).value();
        plan.ApplyTo(fault_backend);
      }

      core::SwordConfig sc = config.sword;
      sc.out_dir = dir;
      if (!plan.empty()) sc.backend = &fault_backend;

      {
        core::SwordTool tool(sc);
        if (plan.alloc_fail_count > 0) {
          tool.buffer_pool().InjectAcquireFailures(plan.alloc_fail_from,
                                                   plan.alloc_fail_count);
        }
        ConfigureRuntime(&tool, config.params.threads);
        Timer timer;
        workload.run(config.params);
        const Status fin = tool.Finalize();  // includes flusher drain
        result.dynamic_seconds = timer.ElapsedSeconds();
        result.tool_peak_bytes = tool.PeakMemoryBytes();
        result.events = tool.EventsLogged();
        result.events_suppressed = tool.EventsSuppressed();
        result.events_coalesced = tool.EventsCoalesced();
        result.runs_emitted = tool.RunsEmitted();
        result.accesses_dropped = tool.AccessesDropped();
        result.degraded_dropped = tool.DegradedDropped();
        result.flushes = tool.Flushes();
        result.trace_threads = tool.ThreadCount();
        result.flusher = tool.FlushStats();
        result.faults_fired = fault_backend.fired();
        if (tool.buffer_pool().acquire_failures() > 0) {
          result.faults_fired |= testing::kFaultAllocFail;
        }
        // Under an injected fault plan (or explicit salvage) an I/O failure
        // is the EXPECTED outcome, already booked as drops and gap frames;
        // the run continues into salvage-mode analysis instead of aborting.
        const bool expect_damage = !plan.empty() || config.salvage_offline;
        if (!fin.ok() && !expect_damage) {
          result.status = fin;
          UnconfigureRuntime();
          return result;
        }
        for (const auto& path : tool.LogPaths()) {
          if (auto size = FileSize(path); size.ok()) {
            result.log_bytes_on_disk += size.value();
          }
        }
      }

      if (config.run_offline) {
        offline::StoreOptions so;
        so.salvage = !plan.empty() || config.salvage_offline;
        auto store = offline::TraceStore::OpenDir(dir, so);
        if (!store.ok()) {
          result.status = store.status();
          UnconfigureRuntime();
          return result;
        }
        offline::AnalysisConfig ac;
        ac.threads = config.offline_threads;
        if (config.journal_offline) {
          ac.journal_path = dir + "/sword_analysis_0of1.journal";
        }
        offline::AnalysisResult analysis = offline::Analyze(store.value(), ac);
        result.status = analysis.status;
        result.races = analysis.races.size();
        result.offline_seconds = analysis.stats.total_seconds;
        result.offline_max_bucket = analysis.stats.max_bucket_seconds;
        result.analysis = analysis.stats;
      }
      break;
    }
  }

  UnconfigureRuntime();
  // Ground-truth bookkeeping for workloads that declare it: anything beyond
  // the known real races is a false alarm (used by the comparison benches).
  if (result.races > static_cast<uint64_t>(workload.total_races)) {
    result.false_alarms = result.races - static_cast<uint64_t>(workload.total_races);
  }
  return result;
}

Result<RunResult> RunByName(const std::string& suite, const std::string& name,
                            const RunConfig& config) {
  const workloads::Workload* w = workloads::WorkloadRegistry::Get().Find(suite, name);
  if (!w) return Status::NotFound(suite + "/" + name);
  return RunWorkload(*w, config);
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace sword::harness
