// sword-run: execute a registered benchmark under a detector configuration.
//
//   sword-run --list
//   sword-run --suite drb --name nowait-orig-yes --tool sword [--threads 8]
//             [--size N] [--trace-dir DIR] [--buffer-kb K] [--codec C]
//             [--cap-mb M] [--flush-workers W] [--format 1|2|3]
//             [--fault-plan SPEC] [--watchdog-ms N] [--adaptive]
//             [--no-crash-seal] [--salvage]
//
// The workbench the comparative tables are built from, exposed as a CLI so
// individual configurations can be reproduced by hand. With --trace-dir the
// sword run leaves its trace files behind for sword-offline / sword-dump.
#include <cstdio>

#include "common/args.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/sword_tool.h"
#include "harness/harness.h"
#include "somp/srcloc.h"
#include "trace/event.h"
#include "workloads/workload.h"

using namespace sword;

int main(int argc, char** argv) {
  // A terminated run (SIGTERM/SIGINT) drains live trace writers before
  // dying, so --trace-dir output stays analyzable; kill -9 is covered by
  // salvage-mode analysis instead.
  core::InstallCrashDrain();
  ArgParser args(argc, argv);

  if (args.GetBool("list")) {
    TextTable table({"suite", "name", "documented", "real races", "description"});
    for (const auto* w : workloads::WorkloadRegistry::Get().All()) {
      table.AddRow({w->suite, w->name, std::to_string(w->documented_races),
                    std::to_string(w->total_races), w->description});
    }
    table.Print();
    return 0;
  }

  const std::string suite = args.GetString("suite");
  const std::string name = args.GetString("name");
  const std::string tool_name = args.GetString("tool", "sword");
  if (suite.empty() || name.empty()) {
    std::fprintf(stderr,
                 "usage: sword-run --suite S --name N [--tool "
                 "baseline|archer|archer-low|sword|eraser] [--threads K] [--size N]\n"
                 "       sword-run --list\n");
    return 1;
  }

  harness::RunConfig config;
  if (tool_name == "baseline") config.tool = harness::ToolKind::kBaseline;
  else if (tool_name == "archer") config.tool = harness::ToolKind::kArcher;
  else if (tool_name == "archer-low") config.tool = harness::ToolKind::kArcherLow;
  else if (tool_name == "sword") config.tool = harness::ToolKind::kSword;
  else if (tool_name == "eraser") config.tool = harness::ToolKind::kEraser;
  else {
    std::fprintf(stderr, "unknown tool %s\n", tool_name.c_str());
    return 1;
  }
  config.params.threads = static_cast<uint32_t>(args.GetInt("threads", 8));
  config.params.size = static_cast<uint64_t>(args.GetInt("size", 0));
  config.buffer_bytes = static_cast<uint64_t>(args.GetInt("buffer-kb", 2048)) * 1024;
  config.codec = args.GetString("codec", "lzf");
  config.trace_dir = args.GetString("trace-dir", "");
  config.flush_workers = static_cast<uint32_t>(args.GetInt("flush-workers", 0));
  const int64_t format = args.GetInt("format", trace::kTraceFormatV3);
  if (format < trace::kTraceFormatV1 || format > trace::kTraceFormatV3) {
    std::fprintf(stderr, "unknown trace format %lld (use 1, 2 or 3)\n",
                 static_cast<long long>(format));
    return 1;
  }
  config.trace_format = static_cast<uint8_t>(format);
  config.archer_memory_cap =
      static_cast<uint64_t>(args.GetInt("cap-mb", 0)) * 1024 * 1024;
  config.offline_threads = static_cast<uint32_t>(args.GetInt("offline-threads", 1));
  // Production-survivability knobs. Fatal-signal sealing is on by default
  // (inert unless the process dies of a fatal signal); the degradation
  // governor and the enqueue watchdog are opt-in.
  config.fault_plan = args.GetString("fault-plan", "");
  config.crash_seal = !args.GetBool("no-crash-seal");
  config.adaptive_degradation = args.GetBool("adaptive");
  config.watchdog_ms = static_cast<uint64_t>(args.GetInt("watchdog-ms", 0));
  config.salvage_offline = args.GetBool("salvage");
  // A flag nothing above read is a typo or a retired ablation; running the
  // default configuration under its name would mislabel the measurement.
  for (const auto& flag : args.UnknownFlags()) {
    std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
    return 1;
  }

  auto result = harness::RunByName(suite, name, config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const harness::RunResult& r = result.value();

  std::printf("%s/%s under %s, %u threads\n", suite.c_str(), name.c_str(),
              harness::ToolName(r.tool), config.params.threads);
  std::printf("  dynamic time:    %s\n", FormatSeconds(r.dynamic_seconds).c_str());
  if (r.tool == harness::ToolKind::kSword) {
    std::printf("  offline time:    %s (slowest bucket %s)\n",
                FormatSeconds(r.offline_seconds).c_str(),
                FormatSeconds(r.offline_max_bucket).c_str());
    std::printf("  events logged:   %llu (%llu flushes, %s on disk)\n",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.flushes),
                FormatBytes(r.log_bytes_on_disk).c_str());
    std::printf("  fast path:       %llu suppressed, %llu coalesced into "
                "%llu run(s), %llu dropped outside segments\n",
                static_cast<unsigned long long>(r.events_suppressed),
                static_cast<unsigned long long>(r.events_coalesced),
                static_cast<unsigned long long>(r.runs_emitted),
                static_cast<unsigned long long>(r.accesses_dropped));
    std::printf("  flush pipeline:  %zu worker(s), %llu job(s), %s in, "
                "%llu stall(s) (%s blocked)\n",
                r.flusher.worker_bytes_in.size(),
                static_cast<unsigned long long>(r.flusher.jobs_completed),
                FormatBytes(r.flusher.bytes_in).c_str(),
                static_cast<unsigned long long>(r.flusher.producer_blocks),
                FormatSeconds(static_cast<double>(r.flusher.blocked_nanos) * 1e-9)
                    .c_str());
  }
  if (r.tool == harness::ToolKind::kSword &&
      (r.degraded_dropped > 0 || r.flusher.watchdog_drops > 0 ||
       r.analysis.integrity.crash_sealed ||
       r.analysis.integrity.degradation_transitions > 0)) {
    std::printf("  survivability:   %llu access(es) shed by the governor "
                "(%llu level change(s)), %llu watchdog drop(s)%s\n",
                static_cast<unsigned long long>(r.degraded_dropped),
                static_cast<unsigned long long>(
                    r.analysis.integrity.degradation_transitions),
                static_cast<unsigned long long>(r.flusher.watchdog_drops),
                r.analysis.integrity.crash_sealed ? ", CRASH-SEALED trace"
                                                  : "");
  }
  std::printf("  app footprint:   %s\n", FormatBytes(r.baseline_bytes).c_str());
  std::printf("  detector memory: %s%s\n", FormatBytes(r.tool_peak_bytes).c_str(),
              r.oom ? "  ** OUT OF MEMORY **" : "");
  std::printf("  races:           %llu\n", static_cast<unsigned long long>(r.races));
  if (!r.status.ok()) {
    std::printf("  status:          %s\n", r.status.ToString().c_str());
  }
  if (r.oom) return 3;
  // Trace I/O or analysis failure: the run is not trustworthy, and silently
  // exiting 0 would let a lossy trace masquerade as a clean one.
  if (!r.status.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status.ToString().c_str());
    return 4;
  }
  return r.races ? 2 : 0;
}
