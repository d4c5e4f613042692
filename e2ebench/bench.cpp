// sword-e2e-bench: one process that measures SWORD end to end on one
// workload - the traced production run, the offline analysis of its trace,
// and serving traces through the fleet daemon - and splits the time along
// the pipeline's layers.
//
//   sword-e2e-bench --workload hpccg-dense|graphsearch-ranged|drb-fleet
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--trace-out FILE]
//
// Each layer is timed from outside, around the calls into its public
// functions, and its counters are read from its public accessors; nothing in
// the detector is changed to be measured. See README.md for the workloads,
// the metric -> layer -> end-to-end map, and the steadiness rules.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, the spans are written as
// Chrome trace-event JSON to --trace-out, and the per-span self times and
// per-phase residuals are printed.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/memtrack.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "core/sword_tool.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "serve/service.h"
#include "somp/runtime.h"
#include "somp/srcloc.h"
#include "spans.h"
#include "stats.h"
#include "workloads/workload.h"

namespace e2e {
namespace {

using sword::Status;

// Set before main runs: setup_s counts from here.
const uint64_t g_process_start_ns = SpanRecorder::NowNs();

// Thread budget. The app threads include the calling thread (lane 0); the
// checker pool and the service's analyzer run on the calling thread when
// sized 1. Online, offline and serve phases never overlap.
constexpr uint32_t kThreadBudget = 4;
constexpr uint32_t kFlushWorkers = 1;
constexpr uint32_t kCheckerThreads = 1;
constexpr uint32_t kServeThreads = 1;

constexpr int kCycles = 4;        // passes over the timed blocks
constexpr int kMinWalkReps = 5;   // of the traced run's walk block
constexpr uint32_t kMaxTicksPerRun = 10000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

struct Program {
  const sword::workloads::Workload* workload = nullptr;
  sword::workloads::WorkloadParams params;
  std::string id;         // "<suite>-<name>"; the served run's name
  std::string fixed_dir;  // trace analyzed and served in every rep
  std::string rep_dir;    // trace written by the timed traced run
  std::string reference_json;  // first report of the fixed trace
  uint64_t direct_races = 0;   // races of the latest direct analysis
  std::vector<double> direct_s;  // timed direct open + analyze times
};

struct Plan {
  std::string name;
  uint32_t app_threads = 0;
  std::vector<Program> programs;
};

struct MetricDef {
  const char* name;
  const char* unit;
  /// Reported as the lower quartile of the run's reps instead of the median:
  /// host contention only ever adds time, and it came in spells that
  /// covered a varying share of a run, which the median followed.
  bool lower_quartile = false;
};

// The end-to-end metrics (BENCHMARK.json "end_to_end", same order).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"online_s", "s", true},
    {"slowdown_x", "x"},
    {"tool_peak_bytes", "bytes"},
    {"trace_bytes", "bytes"},
    {"offline_s", "s", true},
    {"offline_peak_bytes", "bytes"},
    {"time_to_report_s", "s"},
};

// The per-layer metrics (BENCHMARK.json "per_layer", same order).
constexpr MetricDef kPerLayer[] = {
    {"somp.app_s", "s"},
    {"somp.app_cpu_s", "s"},
    {"online.wall_s", "s"},
    {"core.init_s", "s"},
    {"core.run_s", "s"},
    {"core.finalize_s", "s"},
    {"core.accesses", "count"},
    {"core.ns_per_access", "ns"},
    {"core.suppressed_ratio", "ratio"},
    {"core.coalesced_ratio", "ratio"},
    {"core.runs_emitted", "count"},
    {"prefilter.elided", "count"},
    {"prefilter.elision_ratio", "ratio"},
    {"trace.events_logged", "count"},
    {"trace.flushes", "count"},
    {"trace.raw_bytes", "bytes"},
    {"trace.bytes_per_event", "bytes"},
    {"trace.producer_blocks", "count"},
    {"trace.blocked_s", "s"},
    {"compress.ratio", "x"},
    {"compress.encode_ns_per_byte", "ns/byte"},
    {"compress.decode_ns_per_byte", "ns/byte"},
    {"offline.open_s", "s"},
    {"trace.decode_s", "s"},
    {"trace.decode_ns_per_event", "ns"},
    {"offline.analyze_s", "s"},
    {"offline.build_s", "s"},
    {"itree.freeze_s", "s"},
    {"offline.compare_s", "s"},
    {"offline.analyze_residual_s", "s"},
    {"offline.build_over_decode_x", "x"},
    {"offline.node_pairs", "count"},
    {"offline.node_pairs_per_s", "1/s"},
    {"offline.events", "count"},
    {"offline.intervals", "count"},
    {"itree.trees", "count"},
    {"itree.nodes", "count"},
    {"itree.events_per_node", "ratio"},
    {"offline.label_pairs", "count"},
    {"offline.concurrent_pairs", "count"},
    {"ilp.fastpath_hits", "count"},
    {"ilp.solver_calls", "count"},
    {"offline.dedup_hits", "count"},
    {"offline.dedup_ratio", "ratio"},
    {"offline.races", "count"},
    {"offline.duplicates_suppressed", "count"},
    {"offline.peak_tree_bytes", "bytes"},
    {"offline.render_s", "s"},
    {"serve.latency_p50_ms", "ms"},
    {"serve.latency_p90_ms", "ms"},
    {"serve.ingest_ms", "ms"},
    {"serve.polls_per_run", "count"},
    {"serve.analysis_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.ledger_bytes", "bytes"},
    {"serve.refused", "count"},
    {"serve.quarantined", "count"},
    {"serve.admission_level_max", "level"},
    {"online.residual_s", "s"},
    {"offline.residual_s", "s"},
    {"selftrace.time_to_report_s", "s"},
};

// Phase spans and the layer spans directly under them; each phase's
// residual is its wall clock minus these children.
struct PhaseDef {
  const char* phase;
  std::vector<const char*> layers;
};
const std::vector<PhaseDef> kPhases = {
    {"online", {"core.init", "core.run", "core.finalize"}},
    {"offline", {"offline.open", "offline.analyze", "offline.render"}},
    {"serve", {"serve.start", "serve.add", "serve.tick"}},
    {"decode-walk", {"trace.decode"}},
    {"compress-walk", {"compress.read", "compress.encode", "compress.decode"}},
};

/// The timed reps run in blocks, one pipeline stage at a time.
enum class Block { kOnline, kOffline, kServe, kWalk };

const char* BlockName(Block block) {
  switch (block) {
    case Block::kOnline: return "online";
    case Block::kOffline: return "offline";
    case Block::kServe: return "serve";
    case Block::kWalk: return "walk";
  }
  return "?";
}

/// Share of the timed seconds each block gets. An online rep costs a
/// fraction of an analysis, so online needs less time for as many samples.
/// On a single-trace workload a serve round is the offline analysis again
/// behind the daemon, whose own per-run costs are under 1% of it, so serve
/// gets a round or two per cycle and offline the samples.
double BlockShare(Block block) {
  switch (block) {
    case Block::kOnline: return 0.25;
    case Block::kOffline: return 0.65;
    case Block::kServe: return 0.1;
    case Block::kWalk: return 0;
  }
  return 0;
}

/// One rep's values, summed over the workload's programs.
using Sample = std::map<std::string, double>;

std::string PcName(uint32_t pc) {
  if (pc < sword::somp::SrcLocCount()) return sword::somp::LookupSrcLoc(pc).ToString();
  return "pc#" + std::to_string(pc);
}

/// The JSON report with its one wall-clock field (stats.total_seconds)
/// masked, so two analyses of one trace compare byte for byte.
std::string MaskWallClock(const std::string& json) {
  static const std::string kKey = "\"total_seconds\":";
  const size_t at = json.find(kKey);
  if (at == std::string::npos) return json;
  const size_t begin = at + kKey.size();
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(0, begin) + "*" + json.substr(end);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

void ConfigureRuntime(sword::somp::Tool* tool, uint32_t threads) {
  sword::somp::RuntimeConfig rc;
  rc.tool = tool;
  rc.default_threads = threads;
  sword::somp::Runtime::Get().ResetIds();
  sword::somp::Runtime::Get().Configure(rc);
}

/// Counts operations and failures; a failed operation is never retried.
class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    attempted_++;
    if (!ok) {
      failed_++;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

class Bench {
 public:
  Bench(Options options, Plan plan)
      : opts_(std::move(options)), plan_(std::move(plan)), rng_(opts_.seed),
        recorder_(opts_.trace) {}

  int Run();

 private:
  std::vector<Program*> Order();
  Sample RunRep(Block block, const std::string& rep_id, bool measured);
  void RunUntraced(Program& p, Sample& s);
  void RunTraced(Program& p, const std::string& dir, Sample& s);
  void RunOffline(Program& p, bool measured, Sample& s);
  void RunServe(const std::vector<Program*>& order, bool measured, Sample& s);
  void DecodeWalk(Program& p, Sample& s);
  void CompressWalk(Program& p, Sample& s);
  static void DeriveOnline(Sample& s);
  static void DeriveOffline(Sample& s);
  static void DeriveWalk(Sample& s);
  void PrintSelfTimes() const;
  void PrintTable(const char* title, const MetricDef* defs, size_t count) const;
  std::string ResultJson(const MetricDef* defs, size_t count) const;
  void Add(const std::string& name, double value) { series_[name].push_back(value); }

  Options opts_;
  Plan plan_;
  sword::Rng rng_;
  SpanRecorder recorder_;
  Gate gate_;
  std::map<std::string, std::vector<double>> series_;  // samples per metric
};

std::vector<Program*> Bench::Order() {
  std::vector<Program*> order;
  for (Program& p : plan_.programs) order.push_back(&p);
  // Seeded arrival order (Fisher-Yates); a single program is unaffected.
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng_.Below(i)]);
  }
  return order;
}

sword::core::SwordConfig ToolConfig(const std::string& dir) {
  sword::core::SwordConfig cfg;
  cfg.out_dir = dir;
  cfg.flush_workers = kFlushWorkers;
  cfg.prefilter = true;  // the production default of sword-run
  return cfg;
}

/// CPU time of all threads of this process, in ns, dead threads included.
/// The guest kernel leaves out the time the host gave this vCPU to another
/// guest (steal), which the wall clock counts.
uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

double CpuSecondsSince(uint64_t cpu_ns) {
  return static_cast<double>(ProcessCpuNs() - cpu_ns) * 1e-9;
}

void Bench::RunUntraced(Program& p, Sample& s) {
  ConfigureRuntime(nullptr, plan_.app_threads);
  const uint64_t cpu = ProcessCpuNs();
  s["somp.app_s"] += Timed(recorder_, "somp.app", [&] { p.workload->run(p.params); });
  s["somp.app_cpu_s"] += CpuSecondsSince(cpu);
}

void Bench::RunTraced(Program& p, const std::string& dir, Sample& s) {
  ResetDir(dir);
  const sword::core::SwordConfig cfg = ToolConfig(dir);
  std::unique_ptr<sword::core::SwordTool> tool;
  Status fin;
  const uint64_t cpu = ProcessCpuNs();
  const SpanRecorder::Token phase = recorder_.Open("online");
  s["core.init_s"] += Timed(recorder_, "core.init", [&] {
    tool = std::make_unique<sword::core::SwordTool>(cfg);
  });
  ConfigureRuntime(tool.get(), plan_.app_threads);
  s["core.run_s"] +=
      Timed(recorder_, "core.run", [&] { p.workload->run(p.params); });
  s["core.finalize_s"] +=
      Timed(recorder_, "core.finalize", [&] { fin = tool->Finalize(); });
  const double logged = static_cast<double>(tool->EventsLogged());
  const double elided = static_cast<double>(tool->EventsElided());
  recorder_.Count("events_logged", logged);
  recorder_.Count("elided", elided);
  recorder_.Count("bytes_written", static_cast<double>(tool->BytesWritten()));
  s["online.wall_s"] += recorder_.Close(phase);
  s["online_s"] += CpuSecondsSince(cpu);
  ConfigureRuntime(nullptr, plan_.app_threads);

  const sword::trace::FlusherStats fs = tool->FlushStats();
  s["trace.events_logged"] += logged;
  s["prefilter.elided"] += elided;
  s["core.suppressed"] += static_cast<double>(tool->EventsSuppressed());
  s["core.coalesced"] += static_cast<double>(tool->EventsCoalesced());
  s["core.runs_emitted"] += static_cast<double>(tool->RunsEmitted());
  s["trace.flushes"] += static_cast<double>(tool->Flushes());
  s["trace.raw_bytes"] += static_cast<double>(fs.bytes_in);
  s["trace.producer_blocks"] += static_cast<double>(fs.producer_blocks);
  s["trace.blocked_s"] += static_cast<double>(fs.blocked_nanos) * 1e-9;
  s["tool_peak_bytes"] =
      std::max(s["tool_peak_bytes"], static_cast<double>(tool->PeakMemoryBytes()));
  uint64_t on_disk = 0;
  for (const std::string& path : tool->LogPaths()) {
    if (auto size = sword::FileSize(path); size.ok()) on_disk += size.value();
  }
  s["trace_bytes"] += static_cast<double>(on_disk);

  const bool ok = fin.ok() && tool->IoStatus().ok() && tool->AccessesDropped() == 0 &&
                  tool->DegradedDropped() == 0 && tool->ElidedLost() == 0;
  gate_.Check(ok, "traced run of " + p.id + ": " + fin.ToString());
}

void Bench::RunOffline(Program& p, bool measured, Sample& s) {
  const SpanRecorder::Token phase = recorder_.Open("offline");
  sword::Result<sword::offline::TraceStore> store = Status::Internal("not opened");
  const double open_s = Timed(recorder_, "offline.open", [&] {
    store = sword::offline::TraceStore::OpenDir(p.fixed_dir);
  });
  sword::MemoryScope mem("offline");
  sword::offline::AnalysisResult result;
  double analyze_s = 0;
  std::string json;
  if (store.ok()) {
    analyze_s = Timed(recorder_, "offline.analyze", [&] {
      sword::offline::AnalyzerEnv env;
      env.mem = &mem;
      sword::offline::Analyzer analyzer(kCheckerThreads, env);
      result = analyzer.Analyze(store.value());
    });
    s["offline.render_s"] += Timed(recorder_, "offline.render", [&] {
      json = sword::offline::RenderJson(result, PcName);
    });
  }
  const auto& st = result.stats;
  recorder_.Count("events", static_cast<double>(st.raw_events));
  recorder_.Count("node_pairs", static_cast<double>(st.node_pairs_ranged));
  recorder_.Count("races", static_cast<double>(result.races.size()));
  s["offline_s"] += recorder_.Close(phase);

  s["offline.open_s"] += open_s;
  s["offline.analyze_s"] += analyze_s;
  s["offline.build_s"] += st.build_seconds;
  s["itree.freeze_s"] += st.freeze_seconds;
  s["offline.compare_s"] += st.compare_seconds;
  s["offline.node_pairs"] += static_cast<double>(st.node_pairs_ranged);
  s["offline.events"] += static_cast<double>(st.raw_events);
  s["offline.intervals"] += static_cast<double>(st.intervals);
  s["itree.trees"] += static_cast<double>(st.trees_built);
  s["itree.nodes"] += static_cast<double>(st.tree_nodes);
  s["offline.label_pairs"] += static_cast<double>(st.label_pairs_checked);
  s["offline.concurrent_pairs"] += static_cast<double>(st.concurrent_pairs);
  s["ilp.fastpath_hits"] += static_cast<double>(st.fastpath_hits);
  s["ilp.solver_calls"] += static_cast<double>(st.solver_calls);
  s["offline.dedup_hits"] += static_cast<double>(st.dedup_hits);
  s["offline.races"] += static_cast<double>(result.races.size());
  s["offline.duplicates_suppressed"] += static_cast<double>(st.duplicates_suppressed);
  s["offline.peak_tree_bytes"] =
      std::max(s["offline.peak_tree_bytes"], static_cast<double>(st.peak_tree_bytes));
  s["offline_peak_bytes"] =
      std::max(s["offline_peak_bytes"], static_cast<double>(mem.peak()));

  p.direct_races = result.races.size();
  if (measured) p.direct_s.push_back(open_s + analyze_s);
  const std::string masked = MaskWallClock(json);
  if (p.reference_json.empty()) p.reference_json = masked;
  const auto expected = static_cast<uint64_t>(p.workload->total_races);
  const bool ok = store.ok() && store.value().integrity().clean() &&
                  result.status.ok() && result.races.size() == expected &&
                  masked == p.reference_json;
  gate_.Check(ok, "analysis of " + p.id + ": open " + store.status().ToString() +
                      ", status " + result.status.ToString() + ", races " +
                      std::to_string(result.races.size()) + " vs " +
                      std::to_string(expected) +
                      (masked == p.reference_json ? "" : ", report differs"));
}

void Bench::RunServe(const std::vector<Program*>& order, bool measured, Sample& s) {
  const std::string state_dir = opts_.work_dir + "/serve";
  ResetDir(state_dir);
  sword::serve::ServiceConfig cfg;
  cfg.state_dir = state_dir;
  cfg.analysis_threads = kServeThreads;

  const SpanRecorder::Token phase = recorder_.Open("serve");
  std::optional<sword::serve::AnalysisService> service;
  Status recovered;
  Timed(recorder_, "serve.start", [&] {
    service.emplace(cfg);
    recovered = service->Recover();
  });
  gate_.Check(recovered.ok(), "serve start: " + recovered.ToString());

  struct Served {
    Program* program;
    Status added;
    uint32_t ticks = 0;
    double latency_ms = 0, ingest_ms = 0, analysis_ms = 0;
  };
  std::vector<Served> served;
  uint64_t level_max = 0;
  const uint64_t round_start = SpanRecorder::NowNs();
  for (Program* p : order) {
    Served run{p, Status::Ok()};
    const uint64_t t0 = SpanRecorder::NowNs();
    double ingest_s =
        Timed(recorder_, "serve.add", [&] { run.added = service->AddRun(p->fixed_dir); });
    while (run.added.ok() && run.ticks < kMaxTicksPerRun) {
      const double tick_s = Timed(recorder_, "serve.tick", [&] { service->Tick(); });
      run.ticks++;
      level_max = std::max<uint64_t>(level_max, service->AdmissionPacked() & 0xff);
      if (service->Idle()) {
        run.analysis_ms = tick_s * 1e3;
        break;
      }
      ingest_s += tick_s;
    }
    run.latency_ms = static_cast<double>(SpanRecorder::NowNs() - t0) * 1e-6;
    run.ingest_ms = ingest_s * 1e3;
    served.push_back(run);
  }
  const double round_s = static_cast<double>(SpanRecorder::NowNs() - round_start) * 1e-9;
  recorder_.Count("runs", static_cast<double>(served.size()));
  recorder_.Close(phase);

  const sword::serve::ServiceStats stats = service->Stats();
  std::map<std::string, sword::serve::RunSnapshot> verdicts;
  for (auto& snap : service->Runs()) verdicts[snap.name] = snap;
  service.reset();
  for (const Served& run : served) {
    const auto it = verdicts.find(run.program->id);
    const bool done = it != verdicts.end() &&
                      it->second.phase == sword::serve::RunPhase::kDone &&
                      it->second.status == "ok";
    const bool ok = run.added.ok() && done && it->second.races == run.program->direct_races;
    gate_.Check(ok, "served run " + run.program->id + ": add " + run.added.ToString() +
                        ", phase " +
                        (it == verdicts.end() ? "missing"
                                              : sword::serve::RunPhaseName(it->second.phase)));
    if (!measured) continue;
    Add("serve.latency_ms", run.latency_ms);
    Add("serve.ingest_ms", run.ingest_ms);
    Add("serve.analysis_ms", run.analysis_ms);
    Add("serve.polls_per_run", run.ticks);
    Add("serve.overhead_ms", run.latency_ms - Median(run.program->direct_s) * 1e3);
  }
  gate_.Check(stats.runs_refused == 0 && stats.runs_quarantined == 0,
              "serve round: " + std::to_string(stats.runs_refused) + " refused, " +
                  std::to_string(stats.runs_quarantined) + " quarantined");
  uint64_t ledger = 0;
  if (auto size = sword::FileSize(state_dir + "/serve.ledger"); size.ok()) {
    ledger = size.value();
  }
  if (measured) Add("serve.runs_per_s", Ratio(static_cast<double>(served.size()), round_s));
  s["serve.ledger_bytes"] = static_cast<double>(ledger);
  s["serve.refused"] = static_cast<double>(stats.runs_refused);
  s["serve.quarantined"] = static_cast<double>(stats.runs_quarantined);
  s["serve.admission_level_max"] = static_cast<double>(level_max);
}

void Bench::DecodeWalk(Program& p, Sample& s) {
  auto store = sword::offline::TraceStore::OpenDir(p.fixed_dir);
  if (!store.ok()) {
    gate_.Check(false, "decode walk of " + p.id + ": " + store.status().ToString());
    return;
  }
  uint64_t events = 0, expected = 0;
  Status status;
  const SpanRecorder::Token phase = recorder_.Open("decode-walk");
  const double decode_s = Timed(recorder_, "trace.decode", [&] {
    for (const auto& thread : store.value().threads()) {
      sword::trace::DecodeCursor cursor;
      sword::trace::FrameCache cache;
      for (const auto& iv : thread.meta.intervals) {
        expected += iv.EventCount();
        const Status st = thread.log->StreamRange(
            iv.data_begin, iv.data_size, [&](const sword::trace::RawEvent&) { events++; },
            &cache, nullptr, &cursor);
        if (!st.ok() && status.ok()) status = st;
      }
    }
  });
  recorder_.Count("events", static_cast<double>(events));
  recorder_.Close(phase);
  s["trace.decode_s"] += decode_s;
  s["trace.decode_events"] += static_cast<double>(events);
  gate_.Check(status.ok() && events == expected,
              "decode walk of " + p.id + ": " + status.ToString() + ", " +
                  std::to_string(events) + " of " + std::to_string(expected) + " events");
}

void Bench::CompressWalk(Program& p, Sample& s) {
  auto store = sword::offline::TraceStore::OpenDir(p.fixed_dir);
  const uint32_t threads = store.ok() ? static_cast<uint32_t>(store.value().thread_count()) : 0;
  bool ok = store.ok();
  std::string why;
  double raw = 0, disk = 0, read_s = 0, encode_s = 0, decode_s = 0;
  const SpanRecorder::Token phase = recorder_.Open("compress-walk");
  for (uint32_t t = 0; t < threads && ok; ++t) {
    auto bytes = sword::ReadFileBytes(p.fixed_dir + "/sword_t" + std::to_string(t) + ".log");
    if (!bytes.ok()) {
      ok = false;
      why = bytes.status().ToString();
      break;
    }
    const sword::Bytes& file = bytes.value();
    sword::ByteReader walk(file);
    while (ok && !walk.AtEnd()) {
      const size_t at = walk.position();
      sword::FrameView frame;
      Status st;
      read_s += Timed(recorder_, "compress.read", [&] { st = sword::ReadFrame(walk, &frame); });
      if (!st.ok()) {
        ok = false;
        why = st.ToString();
        break;
      }
      if (frame.is_gap || frame.is_crash) continue;
      // Re-parse the header for the codec name and the on-disk payload.
      sword::ByteReader header(file.data() + at, frame.frame_size);
      uint32_t magic = 0;
      std::string codec_name;
      uint64_t raw_size = 0, payload_size = 0, checksum = 0;
      st = header.GetU32(&magic);
      if (st.ok()) st = header.GetString(&codec_name);
      if (st.ok()) st = header.GetVarU64(&raw_size);
      if (st.ok()) st = header.GetVarU64(&payload_size);
      if (st.ok()) st = header.GetU64(&checksum);
      const sword::Compressor* codec = sword::FindCompressor(codec_name);
      if (!st.ok() || !codec) {
        ok = false;
        why = "frame header: " + st.ToString() + " codec '" + codec_name + "'";
        break;
      }
      const uint8_t* payload = header.cursor();
      sword::Bytes encoded, decoded;
      Status enc, dec;
      encode_s += Timed(recorder_, "compress.encode", [&] {
        enc = codec->Compress(frame.data.data(), frame.data.size(), &encoded);
      });
      decode_s += Timed(recorder_, "compress.decode", [&] {
        dec = codec->Decompress(payload, payload_size, raw_size, &decoded);
      });
      if (!enc.ok() || !dec.ok() || decoded != frame.data ||
          encoded.size() != payload_size ||
          !std::equal(encoded.begin(), encoded.end(), payload)) {
        ok = false;
        why = "round trip differs in a " + codec_name + " frame at offset " +
              std::to_string(at);
      }
      raw += static_cast<double>(frame.data.size());
      disk += static_cast<double>(frame.frame_size);
    }
  }
  recorder_.Count("raw_bytes", raw);
  recorder_.Close(phase);
  s["compress.raw_bytes"] += raw;
  s["compress.disk_bytes"] += disk;
  s["compress.encode_s"] += encode_s;
  s["compress.decode_s"] += decode_s;
  s["compress.read_s"] += read_s;
  gate_.Check(ok, "compress round trip of " + p.id + ": " + why);
}

void Bench::DeriveOnline(Sample& s) {
  s["slowdown_x"] = Ratio(s["online_s"], s["somp.app_cpu_s"]);
  const double accesses = AccessesSeen(s["trace.events_logged"], s["core.suppressed"],
                                       s["core.coalesced"], s["prefilter.elided"]);
  s["core.accesses"] = accesses;
  s["core.ns_per_access"] = NsPerAccess(s["core.run_s"], s["somp.app_s"], accesses);
  s["core.suppressed_ratio"] = Ratio(s["core.suppressed"], accesses);
  s["core.coalesced_ratio"] = Ratio(s["core.coalesced"], accesses);
  s["prefilter.elision_ratio"] = Ratio(s["prefilter.elided"], accesses);
  s["trace.bytes_per_event"] = Ratio(s["trace.raw_bytes"], s["trace.events_logged"]);
  s["online.residual_s"] =
      Residual(s["online.wall_s"], {s["core.init_s"], s["core.run_s"], s["core.finalize_s"]});
}

void Bench::DeriveOffline(Sample& s) {
  s["offline.analyze_residual_s"] =
      Residual(s["offline.analyze_s"],
               {s["offline.build_s"], s["itree.freeze_s"], s["offline.compare_s"]});
  s["offline.node_pairs_per_s"] = Ratio(s["offline.node_pairs"], s["offline.compare_s"]);
  s["itree.events_per_node"] = Ratio(s["offline.events"], s["itree.nodes"]);
  s["offline.dedup_ratio"] = Ratio(s["offline.dedup_hits"], s["itree.trees"]);
  s["offline.residual_s"] = Residual(
      s["offline_s"], {s["offline.open_s"], s["offline.analyze_s"], s["offline.render_s"]});
}

void Bench::DeriveWalk(Sample& s) {
  s["compress.ratio"] = Ratio(s["compress.raw_bytes"], s["compress.disk_bytes"]);
  s["compress.encode_ns_per_byte"] = Ratio(s["compress.encode_s"] * 1e9, s["compress.raw_bytes"]);
  s["compress.decode_ns_per_byte"] = Ratio(s["compress.decode_s"] * 1e9, s["compress.raw_bytes"]);
  s["trace.decode_ns_per_event"] = Ratio(s["trace.decode_s"] * 1e9, s["trace.decode_events"]);
}

Sample Bench::RunRep(Block block, const std::string& rep_id, bool measured) {
  recorder_.set_rep(rep_id);
  Sample s;
  const SpanRecorder::Token rep = recorder_.Open("rep");
  const std::vector<Program*> order = Order();
  switch (block) {
    case Block::kOnline:
      for (Program* p : order) {
        // Interleave untraced and traced runs in a seeded order, so both
        // sides of slowdown_x see the same host drift.
        const bool untraced_first = rng_.Next() & 1;
        for (int k = 0; k < 2; ++k) {
          if ((k == 0) == untraced_first) {
            RunUntraced(*p, s);
          } else {
            RunTraced(*p, p->rep_dir, s);
          }
        }
      }
      DeriveOnline(s);
      break;
    case Block::kOffline:
      for (Program* p : order) RunOffline(*p, measured, s);
      DeriveOffline(s);
      break;
    case Block::kServe:
      RunServe(order, measured, s);
      break;
    case Block::kWalk:
      for (Program* p : order) {
        DecodeWalk(*p, s);
        CompressWalk(*p, s);
      }
      DeriveWalk(s);
      break;
  }
  recorder_.Close(rep);
  return s;
}

int Bench::Run() {
  const uint32_t online_threads = plan_.app_threads + kFlushWorkers;
  std::printf("workload %s: %zu program(s), seed %llu, %.0f s, trace %d\n",
              plan_.name.c_str(), plan_.programs.size(),
              static_cast<unsigned long long>(opts_.seed), opts_.seconds, opts_.trace ? 1 : 0);
  std::printf("thread budget: online %u app + %u flush = %u, offline %u checker, "
              "serve %u analysis (budget %u, hardware %u)\n",
              plan_.app_threads, kFlushWorkers, online_threads, kCheckerThreads,
              kServeThreads, kThreadBudget, std::thread::hardware_concurrency());
  if (online_threads > kThreadBudget) {
    std::fprintf(stderr, "thread budget exceeded\n");
    return 1;
  }
  std::vector<Block> blocks = {Block::kOnline, Block::kOffline, Block::kServe};
  if (opts_.trace) blocks.push_back(Block::kWalk);
  // Warm-up order: online last, right before the timed online block, whose
  // runs are slow for a while after a single-threaded stage.
  std::vector<Block> warmup(blocks.begin() + 1, blocks.end());
  warmup.push_back(Block::kOnline);

  // Timed blocks, one stage at a time: an analysis run between two
  // production runs slows and spreads them, and a production run never
  // shares its process with the analyzer outside this benchmark. The blocks
  // cycle kCycles times, so every stage samples the whole run and a slow
  // spell of the shared host lands on all of them. The traced run's walk
  // block runs once, last.
  //
  // Each cycle opens with a setup round charged to setup_s: it traces every
  // program (the first round into the fixed trace that every timed rep
  // analyzes) and runs one discarded rep of every block. setup_s is the sum
  // of the rounds, the first counted from process start, so the cold costs
  // land in it and never in a timed rep, and rounds spread over the run see
  // the host's slow and fast spells as the timed blocks do.
  double setup_s = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const uint64_t setup_start = cycle == 0 ? g_process_start_ns : SpanRecorder::NowNs();
    const std::string setup_id = "setup-" + std::to_string(cycle);
    recorder_.set_rep(setup_id);
    for (Program& p : plan_.programs) {
      Sample unused;
      RunTraced(p, cycle == 0 ? p.fixed_dir : p.rep_dir, unused);
    }
    for (Block block : warmup) RunRep(block, setup_id, false);
    setup_s += static_cast<double>(SpanRecorder::NowNs() - setup_start) * 1e-9;

    for (Block block : blocks) {
      const bool walk = block == Block::kWalk;
      if (walk && cycle != kCycles - 1) continue;
      const std::string name = BlockName(block) + std::string("-") + std::to_string(cycle);
      const double budget = opts_.seconds * BlockShare(block) / kCycles;
      const int min_reps = walk ? kMinWalkReps : 1;
      const uint64_t start = SpanRecorder::NowNs();
      for (int reps = 0;
           reps < min_reps ||
           static_cast<double>(SpanRecorder::NowNs() - start) * 1e-9 < budget;
           ++reps) {
        const Sample s = RunRep(block, "rep-" + name + "." + std::to_string(reps), true);
        for (const auto& [metric, value] : s) Add(metric, value);
      }
    }
  }

  series_["setup_s"] = {setup_s};
  // Metrics that combine blocks are formed from the blocks' medians.
  series_["time_to_report_s"] = {Quantile(series_["online_s"], 1, 4) +
                                 Quantile(series_["offline_s"], 1, 4)};
  series_["offline.build_over_decode_x"] = {
      Ratio(Median(series_["offline.build_s"]), Median(series_["trace.decode_s"]))};
  const std::vector<double>& latency = series_["serve.latency_ms"];
  series_["serve.latency_p50_ms"] = {Median(latency)};
  series_["serve.latency_p90_ms"] = {Quantile(latency, 9, 10)};
  // Peaks are the highest any timed rep reached.
  for (const char* peak : {"tool_peak_bytes", "offline_peak_bytes"}) {
    std::vector<double>& v = series_[peak];
    if (!v.empty()) v = {*std::max_element(v.begin(), v.end())};
  }
  // The tracing overhead is this run's time_to_report_s against that of
  // the untraced run.
  if (opts_.trace) series_["selftrace.time_to_report_s"] = series_["time_to_report_s"];

  PrintTable("end-to-end", kEndToEnd, std::size(kEndToEnd));
  const Summary lat = Summarize(latency);
  const std::vector<double>& rate = series_["serve.runs_per_s"];
  std::printf("serve latency: p50 %.4f ms, p90 %.4f ms over %zu served runs "
              "(%zu above p90); %.4f runs/s, median of %zu rounds\n",
              lat.median, lat.p90, lat.n, lat.above_p90, Median(rate), rate.size());
  std::printf("error_rate %.6f ratio (%llu failed of %llu operations)\n",
              Ratio(static_cast<double>(gate_.failed()), static_cast<double>(gate_.attempted())),
              static_cast<unsigned long long>(gate_.failed()),
              static_cast<unsigned long long>(gate_.attempted()));
  if (opts_.trace) {
    PrintTable("per-layer", kPerLayer, std::size(kPerLayer));
    PrintSelfTimes();
    if (!opts_.trace_out.empty()) {
      const std::string json = ChromeTraceJson(recorder_.spans());
      const Status st = sword::WriteFile(opts_.trace_out,
                                         sword::Bytes(json.begin(), json.end()));
      std::printf("spans: %zu written to %s (%s)\n", recorder_.spans().size(),
                  opts_.trace_out.c_str(), st.ToString().c_str());
    }
    std::printf("%s\n", ResultJson(kPerLayer, std::size(kPerLayer)).c_str());
  } else {
    std::printf("%s\n", ResultJson(kEndToEnd, std::size(kEndToEnd)).c_str());
  }
  return 0;
}

void Bench::PrintTable(const char* title, const MetricDef* defs, size_t count) const {
  std::printf("\n%-30s %-8s %14s %14s %14s %5s  %s\n", title, "unit", "median", "q1", "q3",
              "n", "reported");
  for (size_t i = 0; i < count; ++i) {
    const auto it = series_.find(defs[i].name);
    const Summary s = Summarize(it == series_.end() ? std::vector<double>{} : it->second);
    std::printf("%-30s %-8s %14.6g %14.6g %14.6g %5zu  %s\n", defs[i].name, defs[i].unit,
                s.median, s.q1, s.q3, s.n, defs[i].lower_quartile ? "q1" : "median");
  }
}

void Bench::PrintSelfTimes() const {
  // Totals per span name over the measured reps that recorded spans.
  const std::vector<Span>& spans = recorder_.spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, std::pair<double, double>> by_name;  // wall, self
  std::map<std::string, size_t> calls;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].rep.rfind("rep-", 0) != 0) continue;
    by_name[spans[i].name].first += spans[i].Seconds();
    by_name[spans[i].name].second += self[i];
    calls[spans[i].name]++;
  }
  std::printf("\n%-18s %12s %12s %8s   (seconds, summed over traced reps)\n", "span", "wall",
              "self", "calls");
  for (const auto& [name, t] : by_name) {
    std::printf("%-18s %12.6f %12.6f %8zu\n", name.c_str(), t.first, t.second, calls[name]);
  }
  std::printf("\n%-14s %12s %12s %12s  %s\n", "phase", "wall", "layers", "residual",
              "wall = layers + residual");
  for (const PhaseDef& phase : kPhases) {
    const auto it = by_name.find(phase.phase);
    if (it == by_name.end()) continue;
    std::vector<double> layers;
    for (const char* layer : phase.layers) {
      const auto l = by_name.find(layer);
      layers.push_back(l == by_name.end() ? 0.0 : l->second.first);
    }
    double layer_sum = 0;
    for (double l : layers) layer_sum += l;
    const double residual = Residual(it->second.first, layers);
    std::printf("%-14s %12.6f %12.6f %12.6f  (self %.6f)\n", phase.phase, it->second.first,
                layer_sum, residual, it->second.second);
  }
}

std::string Bench::ResultJson(const MetricDef* defs, size_t count) const {
  const bool correct = gate_.failed() == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gate_.attempted());
  out += ", \"failed\": " + std::to_string(gate_.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < count; ++i) {
    const auto it = series_.find(defs[i].name);
    const double value = it == series_.end()        ? 0.0
                         : defs[i].lower_quartile ? Quantile(it->second, 1, 4)
                                                  : Median(it->second);
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (i) out += ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::optional<Plan> MakePlan(const std::string& name, const std::string& work_dir) {
  auto& registry = sword::workloads::WorkloadRegistry::Get();
  Plan plan;
  plan.name = name;
  std::vector<const sword::workloads::Workload*> workloads;
  uint64_t size = 0;
  if (name == "hpccg-dense") {
    plan.app_threads = 2;
    workloads.push_back(registry.Find("hpc", "HPCCG"));
  } else if (name == "graphsearch-ranged") {
    plan.app_threads = 2;
    size = 16000;
    workloads.push_back(registry.Find("ompscr", "c_GraphSearch"));
  } else if (name == "drb-fleet") {
    // 3 threads: at 2, atomicmissing-orig-yes has a single plain writer and
    // a correct detector reports 1 race against a registry truth of 2.
    plan.app_threads = 3;
    workloads = registry.BySuite("drb");
  } else {
    return std::nullopt;
  }
  for (const auto* w : workloads) {
    if (!w) return std::nullopt;
    Program p;
    p.workload = w;
    p.params.threads = plan.app_threads;
    p.params.size = size;
    p.id = w->suite + "-" + w->name;
    p.fixed_dir = work_dir + "/fixed/" + p.id;
    p.rep_dir = work_dir + "/rep/" + p.id;
    plan.programs.push_back(std::move(p));
  }
  return plan;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 1;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 1;
    }
  }
  if (opts.work_dir.empty()) {
    std::fprintf(stderr, "--work-dir is required\n");
    return 1;
  }
  std::optional<Plan> plan = MakePlan(opts.workload, opts.work_dir);
  if (!plan) {
    std::fprintf(stderr, "unknown workload '%s' (hpccg-dense, graphsearch-ranged, drb-fleet)\n",
                 opts.workload.c_str());
    return 1;
  }
  ResetDir(opts.work_dir);
  int rc = 0;
  {
    Bench bench(opts, std::move(*plan));
    rc = bench.Run();
  }
  std::error_code ec;
  std::filesystem::remove_all(opts.work_dir, ec);
  return rc;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
