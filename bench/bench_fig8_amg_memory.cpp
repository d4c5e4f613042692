// Reproduces Figure 8: AMG2013 runtime and memory as the problem size grows
// (10^3..40^3). Claims: archer's memory tracks the application's footprint
// (5-7x of touched memory) until it exceeds the node's budget and the
// analysis dies with OOM; sword's memory stays flat at threads x 3.3 MB and
// every size completes, including the offline analysis.
//
// NEW in this reproduction: the offline analyzer's summarization footprint.
// Each size is traced once, then analyzed with an injected MemoryScope
// charged with every bucket's builder + frozen-set bytes. The per-bucket
// peak is exact accounting, so the perf-smoke gate pins it per size; the
// race count must equal the workload's ground truth.
//
// Flags: --quick (offline peaks on the two smallest sizes only), --json FILE (metrics
// for the perf-smoke regression gate).
#include <algorithm>
#include <fstream>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/fsutil.h"
#include "common/memtrack.h"

using namespace sword;
using namespace sword::bench;

namespace {

struct OfflineRow {
  std::string workload;
  uint64_t peak = 0;
  uint64_t dedup_hits = 0;
  uint64_t races = 0;
  bool races_match_truth = false;
};

/// Trace `w` once, then analyze it with an injected MemoryScope recording
/// the per-bucket summarization high-water mark. Buckets are analyzed one at
/// a time, so the scope's peak is the largest single bucket footprint -
/// deterministic for a given trace, no reps needed.
OfflineRow MeasureOfflinePeak(const workloads::Workload& w) {
  OfflineRow row;
  row.workload = w.name;

  TempDir dir("fig8-oa");
  harness::RunConfig tc;
  tc.tool = harness::ToolKind::kSword;
  tc.params.threads = 8;
  tc.run_offline = false;
  tc.sword.out_dir = dir.path();
  harness::RunWorkload(w, tc);

  auto store = offline::TraceStore::OpenDir(dir.path());
  if (!store.ok()) {
    std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                 store.status().ToString().c_str());
    return row;
  }

  MemoryScope scope("fig8-offline");
  offline::AnalyzerEnv env;
  env.mem = &scope;
  offline::Analyzer analyzer(8, env);

  scope.ResetAll();
  const auto result = analyzer.Analyze(store.value());
  row.peak = scope.peak();
  row.dedup_hits = result.stats.dedup_hits;
  row.races = result.races.size();
  row.races_match_truth = result.status.ok() &&
                          row.races == static_cast<uint64_t>(w.total_races);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("Figure 8 - AMG memory and runtime vs problem size",
         "archer memory grows ~5-7x with the app and OOMs at the largest "
         "size; sword stays flat and always completes");

  constexpr uint64_t kNodeCap = 10 * 1024 * 1024;  // same node as Table IV

  TextTable table({"size", "baseline mem", "archer mem", "ratio", "archer",
                   "sword mem", "sword dyn", "sword OA", "sword races"});

  // Sword's bound is threads x (buffer + aux) for the writers plus at most
  // queue_depth + threads pipeline buffers in flight through the async
  // flusher (charged honestly since the pool accounts for them). "Flat"
  // means every problem size lands inside that same envelope - the envelope
  // depends only on the thread count and flush configuration, never on the
  // application's footprint.
  constexpr uint64_t kBuffer = 2 * 1024 * 1024;
  constexpr uint64_t kSwordBase = 8 * (kBuffer + 1340 * 1024);
  constexpr uint64_t kSwordCeil =
      kSwordBase + (trace::Flusher::kDefaultMaxQueuedJobs + 8) * kBuffer;

  bool flat = true;
  bool grows = true;
  uint64_t prev_archer = 0;
  bool oom_at_40 = false, oom_before_40 = false;
  std::string rows_json;

  for (const char* name :
       {"AMG2013_10", "AMG2013_20", "AMG2013_30", "AMG2013_40"}) {
    const auto& w = Find("hpc", name);
    const auto archer = Run(w, harness::ToolKind::kArcher, 8, 0, kNodeCap);

    harness::RunConfig sc;
    sc.tool = harness::ToolKind::kSword;
    sc.params.threads = 8;
    sc.offline_threads = 8;
    const auto sword_run = harness::RunWorkload(w, sc);

    const double ratio = archer.baseline_bytes
                             ? static_cast<double>(archer.tool_peak_bytes) /
                                   static_cast<double>(archer.baseline_bytes)
                             : 0;
    table.AddRow({w.name, FormatBytes(archer.baseline_bytes),
                  FormatBytes(archer.tool_peak_bytes), FmtX(ratio, 1),
                  archer.oom ? "OOM" : "ok",
                  FormatBytes(sword_run.tool_peak_bytes),
                  FormatSeconds(sword_run.dynamic_seconds),
                  FormatSeconds(sword_run.offline_seconds),
                  std::to_string(sword_run.races)});

    if (sword_run.tool_peak_bytes < kSwordBase ||
        sword_run.tool_peak_bytes > kSwordCeil) {
      flat = false;
    }
    if (prev_archer && archer.tool_peak_bytes <= prev_archer && !archer.oom) {
      grows = false;
    }
    prev_archer = archer.tool_peak_bytes;
    if (std::string(name) == "AMG2013_40") {
      oom_at_40 = archer.oom;
    } else if (archer.oom) {
      oom_before_40 = true;
    }

    if (!rows_json.empty()) rows_json += ",";
    rows_json += "{\"workload\":\"" + w.name + "\"";
    rows_json += ",\"archer_peak\":" + std::to_string(archer.tool_peak_bytes);
    rows_json += ",\"archer_oom\":" + std::string(archer.oom ? "true" : "false");
    rows_json +=
        ",\"sword_peak\":" + std::to_string(sword_run.tool_peak_bytes) + "}";
  }

  table.Print();
  std::printf("\n");

  // Offline summarization footprint per size.
  std::vector<OfflineRow> offline_rows;
  {
    std::vector<const char*> names = {"AMG2013_10", "AMG2013_20"};
    if (!quick) {
      names.push_back("AMG2013_30");
      names.push_back("AMG2013_40");
    }
    for (const char* name : names) {
      offline_rows.push_back(MeasureOfflinePeak(Find("hpc", name)));
    }
  }

  TextTable oa({"size", "OA summarization peak", "dedup hits", "races",
                "truth"});
  bool offline_races_match = true;
  std::string offline_json;
  std::string peak_json;  // per-size peaks the perf-smoke gate pins
  for (const auto& r : offline_rows) {
    oa.AddRow({r.workload, FormatBytes(r.peak), std::to_string(r.dedup_hits),
               std::to_string(r.races),
               r.races_match_truth ? "match" : "DIFFER"});
    offline_races_match = offline_races_match && r.races_match_truth;
    if (!offline_json.empty()) offline_json += ",";
    offline_json += "{\"workload\":\"" + r.workload + "\"";
    offline_json += ",\"peak\":" + std::to_string(r.peak);
    offline_json += ",\"dedup_hits\":" + std::to_string(r.dedup_hits);
    offline_json += ",\"races\":" + std::to_string(r.races) + "}";
    peak_json += ",\"offline_peak_" + r.workload + "\":" + std::to_string(r.peak);
  }
  oa.Print();
  std::printf("\n");

  Check(flat,
        "sword memory inside the same size-independent envelope at every "
        "problem size (threads x ~3.3 MB + bounded pipeline buffers)");
  Check(grows, "archer memory grows with the problem size");
  Check(oom_at_40 && !oom_before_40,
        "archer OOMs exactly at the largest size under the node cap");
  Check(offline_races_match,
        "offline race count equals the ground truth at every size");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"fig8_amg_memory\"";
    out << ",\"sword_flat\":" << (flat ? "true" : "false");
    out << ",\"archer_grows\":" << (grows ? "true" : "false");
    out << ",\"archer_oom_at_40\":"
        << (oom_at_40 && !oom_before_40 ? "true" : "false");
    out << peak_json;
    out << ",\"offline_races_match\":"
        << (offline_races_match ? "true" : "false");
    out << ",\"rows\":[" << rows_json << "]";
    out << ",\"offline\":[" << offline_json << "]}";
    out << "\n";
  }
  return 0;
}
