// Reproduces Table III: SWORD's offline data-race-detection overheads on
// the OmpSCR benchmarks - dynamic collection time per tool, plus the
// offline analysis time on a single node (OA) and the distributed
// per-region maximum (MT). Claims: OA stays within seconds for all
// microbenchmarks; MT (the slowest single region) is milliseconds-scale.
//
// Also measures the checkpoint journal's cost: each workload is analyzed a
// second time with per-bucket journaling on, and the journal's share of the
// analysis wall clock must stay under 2% - the crash-resilience feature has
// to be cheap enough to leave enabled in production.
//
// NEW in this reproduction, three sections on the analysis pipeline:
//   pipeline  - each workload is traced once, then the same store is
//               analyzed (best of reps) on one shared checker pool, for two
//               trace formats. Format v2 logs one event per access: the
//               analysis throughput in decoded events per second, the
//               per-bucket summarization peak (exact byte accounting, pinned
//               by the perf-smoke gate) and dedup hits. Format v3 (the
//               default) coalesces each site's strided accesses into runs,
//               so events/s measures little there; its gate is the accesses
//               the analysis covers (logged + coalesced + suppressed) per
//               second of analysis, summed over the workloads. Both formats'
//               race counts must equal the workload's ground truth.
//   sweep     - a synthetic strided trace is grown 16x while the symbolic
//               run representation keeps the analyzer's peak summarization
//               footprint near-flat (sublinear in decompressed trace size).
//   identity  - over the full DataRaceBench ground-truth suite, analysis
//               with 1 and with 4 checker threads renders byte-identical
//               reports.
//
// Flags: --quick (smaller sweep + fewer reps for CI), --json FILE (metrics
// for the perf-smoke regression gate).
#include <algorithm>
#include <fstream>

#include "bench/bench_util.h"
#include "common/args.h"
#include "offline/report.h"
#include "trace/writer.h"

using namespace sword;
using namespace sword::bench;

namespace {

std::string PcName(uint32_t pc) { return "pc#" + std::to_string(pc); }

struct PipelineRow {
  std::string workload;
  double seconds = 0;
  uint64_t events = 0;
  uint64_t accesses = 0;  // accesses the trace stands for
  double events_per_sec = 0;
  uint64_t peak = 0;
  uint64_t dedup_hits = 0;
  uint64_t races = 0;
  bool races_match_truth = false;
};

/// Trace `w` once in `format`, then analyze the store `reps` times on one
/// shared checker pool; the best-of-reps wall clock cancels scheduler noise,
/// the counters are deterministic across reps.
PipelineRow MeasurePipeline(const workloads::Workload& w, uint8_t format,
                            offline::Analyzer& analyzer, int reps) {
  PipelineRow row;
  row.workload = w.name;

  TempDir dir("t3-pipe");
  harness::RunConfig tc;
  tc.tool = harness::ToolKind::kSword;
  tc.params.threads = 8;
  tc.run_offline = false;
  tc.sword.out_dir = dir.path();
  tc.sword.trace_format = format;
  const harness::RunResult traced = harness::RunWorkload(w, tc);
  row.accesses =
      traced.events + traced.events_coalesced + traced.events_suppressed;

  auto store = offline::TraceStore::OpenDir(dir.path());
  if (!store.ok()) {
    std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                 store.status().ToString().c_str());
    return row;
  }

  const offline::AnalysisResult best = BestOfReps(
      reps, [&] { return analyzer.Analyze(store.value(), {}); },
      [](const offline::AnalysisResult& r) { return r.stats.total_seconds; });
  row.seconds = best.stats.total_seconds;
  row.events = best.stats.raw_events;
  row.events_per_sec =
      static_cast<double>(row.events) / std::max(row.seconds, 1e-9);
  row.peak = best.stats.peak_tree_bytes;
  row.dedup_hits = best.stats.dedup_hits;
  row.races = best.races.size();
  row.races_match_truth =
      best.status.ok() && row.races == static_cast<uint64_t>(w.total_races);
  return row;
}

struct SweepRow {
  uint64_t elements = 0;
  uint64_t logical_bytes = 0;  // decompressed trace size
  uint64_t peak_symbolic = 0;  // peak summarization footprint
};

/// Write a two-thread strided trace of `elements` accesses per thread (v3,
/// coalesced into kAccessRun events) and report the analyzer's peak
/// summarization footprint.
SweepRow MeasureSweepPoint(offline::Analyzer& analyzer, uint64_t elements) {
  SweepRow row;
  row.elements = elements;

  TempDir dir("t3-sweep");
  trace::Flusher flusher{/*async=*/false};
  for (uint32_t tid = 0; tid < 2; tid++) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    trace::ThreadTraceWriter writer(tid, wc);
    trace::IntervalMeta meta;
    meta.region = 0;
    meta.parent_region = trace::IntervalMeta::kNoParent;
    meta.label = osl::Label::Initial().Fork(tid, 2);
    meta.level = 1;
    meta.lane = tid;
    writer.BeginSegment(meta);
    // Interleaved stride-16 walks over one shared array: every element the
    // run summarizes is also a cross-thread overlap candidate, so the
    // symbolic representation is doing real closed-form work, not idling.
    for (uint64_t i = 0; i < elements; i++) {
      writer.Append(trace::RawEvent::Access(0x10000 + tid * 8 + i * 16, 8,
                                            /*flags=*/tid == 0, 40 + tid));
    }
    writer.EndSegment();
    if (!writer.Finish().ok()) return row;
  }

  auto store = offline::TraceStore::OpenDir(dir.path());
  if (!store.ok()) return row;
  for (const auto& thread : store.value().threads()) {
    row.logical_bytes += thread.log->total_logical_bytes();
  }

  row.peak_symbolic = analyzer.Analyze(store.value(), {}).stats.peak_tree_bytes;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("Table III - OmpSCR offline analysis overheads",
         "offline analysis: sub-minute single-node (OA); per-region max (MT) "
         "in the milliseconds-to-seconds range; every workload's race count "
         "matches its ground truth");

  TextTable table({"benchmark", "archer dyn", "sword dyn", "sword OA", "sword MT",
                   "journal ovh", "intervals", "log size"});

  bool oa_bounded = true;
  double worst_oa = 0;
  double journal_seconds_total = 0;
  double journaled_analysis_seconds_total = 0;
  std::string rows_json;

  for (const auto* w : workloads::WorkloadRegistry::Get().BySuite("ompscr")) {
    const auto archer = Run(*w, harness::ToolKind::kArcher);

    harness::RunConfig config;
    config.tool = harness::ToolKind::kSword;
    config.params.threads = 8;
    config.offline_threads = 8;  // paper: 24 cores per analysis node
    const auto sword_run = harness::RunWorkload(*w, config);

    // Same analysis with per-bucket checkpointing: the journal's share of
    // the wall clock is the price of crash resilience.
    harness::RunConfig journaled = config;
    journaled.journal_offline = true;
    const auto journal_run = harness::RunWorkload(*w, journaled);
    const double journal_pct =
        journal_run.analysis.total_seconds > 0
            ? 100.0 * journal_run.analysis.journal_seconds /
                  journal_run.analysis.total_seconds
            : 0;

    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.2f%%", journal_pct);
    table.AddRow({w->name, FormatSeconds(archer.dynamic_seconds),
                  FormatSeconds(sword_run.dynamic_seconds),
                  FormatSeconds(sword_run.offline_seconds),
                  FormatSeconds(sword_run.offline_max_bucket), pct,
                  std::to_string(sword_run.analysis.intervals),
                  FormatBytes(sword_run.log_bytes_on_disk)});
    worst_oa = std::max(worst_oa, sword_run.offline_seconds);
    if (sword_run.offline_seconds > 60.0) oa_bounded = false;
    journal_seconds_total += journal_run.analysis.journal_seconds;
    journaled_analysis_seconds_total += journal_run.analysis.total_seconds;

    if (!rows_json.empty()) rows_json += ",";
    rows_json += "{\"workload\":\"" + w->name + "\"";
    rows_json += ",\"offline_seconds\":" + std::to_string(sword_run.offline_seconds);
    rows_json += ",\"journal_seconds\":" +
                 std::to_string(journal_run.analysis.journal_seconds);
    rows_json += ",\"journal_bytes\":" +
                 std::to_string(journal_run.analysis.journal_bytes);
    rows_json += ",\"journal_pct\":" + std::to_string(journal_pct);
    rows_json += ",\"buckets\":" + std::to_string(journal_run.analysis.buckets);
    rows_json += "}";
  }

  table.Print();
  std::printf("\n");

  // --- Analysis pipeline on shared stores. HPC workloads join the OmpSCR
  // kernels here: their bigger, more repetitive traces are what the
  // streaming build and the memoization were built for.
  offline::Analyzer analyzer(8);
  const int reps = quick ? 3 : 5;
  std::vector<const workloads::Workload*> pipeline_workloads =
      workloads::WorkloadRegistry::Get().BySuite("ompscr");
  for (const char* name : {"LULESH", "HPCCG", "miniFE"}) {
    pipeline_workloads.push_back(&Find("hpc", name));
  }
  std::vector<PipelineRow> pipeline;
  for (const auto* w : pipeline_workloads) {
    pipeline.push_back(MeasurePipeline(*w, trace::kTraceFormatV2, analyzer, reps));
  }

  TextTable pipe_table({"benchmark", "OA", "events", "events/s", "peak",
                        "dedup hits", "races", "truth"});
  bool races_match_truth = true;
  std::vector<double> throughputs;
  std::string pipeline_json;
  // Per-workload peaks the perf-smoke gate pins (exact accounting, so any
  // growth is a real change in the summarization footprint).
  std::string peak_json;
  for (const PipelineRow& r : pipeline) {
    pipe_table.AddRow({r.workload, FormatSeconds(r.seconds),
                       std::to_string(r.events),
                       std::to_string(static_cast<uint64_t>(r.events_per_sec)),
                       FormatBytes(r.peak), std::to_string(r.dedup_hits),
                       std::to_string(r.races),
                       r.races_match_truth ? "match" : "DIFFER"});
    races_match_truth = races_match_truth && r.races_match_truth;
    throughputs.push_back(r.events_per_sec);
    if (!pipeline_json.empty()) pipeline_json += ",";
    pipeline_json += "{\"workload\":\"" + r.workload + "\"";
    pipeline_json += ",\"seconds\":" + std::to_string(r.seconds);
    pipeline_json += ",\"events\":" + std::to_string(r.events);
    pipeline_json += ",\"events_per_sec\":" + std::to_string(r.events_per_sec);
    pipeline_json += ",\"peak\":" + std::to_string(r.peak);
    pipeline_json += ",\"dedup_hits\":" + std::to_string(r.dedup_hits);
    pipeline_json += ",\"races\":" + std::to_string(r.races) + "}";
    peak_json += ",\"peak_" + r.workload + "\":" + std::to_string(r.peak);
  }
  pipe_table.Print();
  std::printf("\n");

  std::sort(throughputs.begin(), throughputs.end(), std::greater<double>());
  const double events_per_sec_second_best =
      throughputs.size() > 1 ? throughputs[1] : 0;

  // The same workloads in the default format v3.
  TextTable v3_table({"benchmark (v3)", "OA", "events", "accesses",
                      "accesses/s", "races", "truth"});
  std::string pipeline_v3_json;
  uint64_t v3_accesses = 0;
  double v3_seconds = 0;
  for (const auto* w : pipeline_workloads) {
    const PipelineRow r = MeasurePipeline(*w, trace::kTraceFormatV3, analyzer, reps);
    const double accesses_per_sec =
        static_cast<double>(r.accesses) / std::max(r.seconds, 1e-9);
    v3_table.AddRow({r.workload, FormatSeconds(r.seconds), std::to_string(r.events),
                     std::to_string(r.accesses),
                     std::to_string(static_cast<uint64_t>(accesses_per_sec)),
                     std::to_string(r.races),
                     r.races_match_truth ? "match" : "DIFFER"});
    races_match_truth = races_match_truth && r.races_match_truth;
    v3_accesses += r.accesses;
    v3_seconds += r.seconds;
    if (!pipeline_v3_json.empty()) pipeline_v3_json += ",";
    pipeline_v3_json += "{\"workload\":\"" + r.workload + "\"";
    pipeline_v3_json += ",\"seconds\":" + std::to_string(r.seconds);
    pipeline_v3_json += ",\"events\":" + std::to_string(r.events);
    pipeline_v3_json += ",\"accesses\":" + std::to_string(r.accesses);
    pipeline_v3_json += ",\"races\":" + std::to_string(r.races) + "}";
  }
  v3_table.Print();
  std::printf("\n");
  // Summed over the workloads, so the heavy traces carry the figure rather
  // than sub-millisecond kernels whose analysis is all fixed cost.
  const double v3_accesses_per_sec =
      static_cast<double>(v3_accesses) / std::max(v3_seconds, 1e-9);

  // --- Symbolic-run size sweep: decompressed trace grows 16x.
  const uint64_t base_elems = quick ? 16 * 1024 : 64 * 1024;
  std::vector<SweepRow> sweep;
  for (const uint64_t n : {base_elems, base_elems * 4, base_elems * 16}) {
    sweep.push_back(MeasureSweepPoint(analyzer, n));
  }
  TextTable sweep_table({"elements/thread", "trace bytes", "peak"});
  std::string sweep_json;
  for (const SweepRow& r : sweep) {
    sweep_table.AddRow({std::to_string(r.elements), FormatBytes(r.logical_bytes),
                        FormatBytes(r.peak_symbolic)});
    if (!sweep_json.empty()) sweep_json += ",";
    sweep_json += "{\"elements\":" + std::to_string(r.elements);
    sweep_json += ",\"logical_bytes\":" + std::to_string(r.logical_bytes);
    sweep_json += ",\"peak_symbolic\":" + std::to_string(r.peak_symbolic) + "}";
  }
  sweep_table.Print();
  std::printf("\n");

  // Sublinear: the trace grew 16x; the symbolic peak must grow by less than
  // 2x (in practice it is flat - a handful of run nodes regardless of N).
  const bool sweep_valid = sweep.front().peak_symbolic > 0 &&
                           sweep.back().logical_bytes >
                               4 * sweep.front().logical_bytes;
  const double sweep_growth =
      sweep_valid ? static_cast<double>(sweep.back().peak_symbolic) /
                        static_cast<double>(sweep.front().peak_symbolic)
                  : 1e30;
  const bool sublinear_ok = sweep_valid && sweep_growth < 2.0;

  // --- Full-DRB identity: 1 and 4 checker threads render byte-identically.
  offline::Analyzer serial(1);
  offline::Analyzer parallel(4);
  bool identity_ok = true;
  for (const auto* w : workloads::WorkloadRegistry::Get().BySuite("drb")) {
    TempDir dir("t3-ident");
    harness::RunConfig tc;
    tc.tool = harness::ToolKind::kSword;
    tc.params.threads = 8;
    tc.run_offline = false;
    tc.sword.out_dir = dir.path();
    harness::RunWorkload(*w, tc);
    auto store = offline::TraceStore::OpenDir(dir.path());
    if (!store.ok()) {
      identity_ok = false;
      continue;
    }
    const std::string serial_text =
        offline::RenderText(serial.Analyze(store.value()), PcName);
    const std::string parallel_text =
        offline::RenderText(parallel.Analyze(store.value()), PcName);
    if (serial_text != parallel_text) {
      std::fprintf(stderr, "identity MISMATCH on %s\n", w->name.c_str());
      identity_ok = false;
    }
  }

  Check(oa_bounded, "single-node offline analysis under a minute per benchmark "
                    "(worst: " + FormatSeconds(worst_oa) + ")");
  // Aggregate share across the suite: single sub-millisecond workloads put
  // one ~10us write against a noise-sized denominator, so the per-workload
  // percentages (table + JSON) are informational and the claim is suite-wide.
  const double suite_pct =
      journaled_analysis_seconds_total > 0
          ? 100.0 * journal_seconds_total / journaled_analysis_seconds_total
          : 0;
  char agg[32];
  std::snprintf(agg, sizeof(agg), "%.2f%%", suite_pct);
  Check(suite_pct < 2.0, "per-bucket checkpoint journal costs < 2% of analysis "
                         "wall clock across the suite (" + std::string(agg) + ")");
  Check(races_match_truth, "race count equals the ground truth on every "
                           "pipeline workload, in formats v2 and v3");
  char growth[32];
  std::snprintf(growth, sizeof(growth), "%.2fx", sweep_growth);
  Check(sublinear_ok,
        "symbolic peak footprint sublinear in trace size (16x trace -> " +
            std::string(growth) + " peak)");
  Check(identity_ok, "1 and 4 checker threads render byte-identical reports "
                     "across the full DataRaceBench suite");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"table3_offline_overhead\""
        << ",\"events_per_sec_second_best\":" << events_per_sec_second_best
        << ",\"v3_accesses_per_sec\":" << v3_accesses_per_sec
        << peak_json
        << ",\"sweep_peak_growth\":" << (sweep_valid ? sweep_growth : -1)
        << ",\"sublinear_ok\":" << (sublinear_ok ? "true" : "false")
        << ",\"thread_identity_ok\":" << (identity_ok ? "true" : "false")
        << ",\"races_match_truth\":" << (races_match_truth ? "true" : "false")
        << ",\"journal_suite_pct\":" << suite_pct
        << ",\"pipeline\":[" << pipeline_json << "]"
        << ",\"pipeline_v3\":[" << pipeline_v3_json << "]"
        << ",\"sweep\":[" << sweep_json << "]"
        << ",\"rows\":[" << rows_json << "]}\n";
  }
  return 0;
}
