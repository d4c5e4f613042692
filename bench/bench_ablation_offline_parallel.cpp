// Offline-analysis parallelization + hot-path ablation (paper SIV-C /
// Table V discussion + SVI future work).
//
// The paper distributes tree COMPARISONS across cores but notes that "the
// tree generation cannot be efficiently parallelized since it would require
// the use of locks", and lists faster parallel offline algorithms as future
// work. This reproduction parallelizes BOTH phases lock-free on a
// persistent work-stealing checker pool. The bench checks that
//   1. the race set is invariant under thread count (byte-identical
//      reports);
//   2. the slowest-single-bucket time (the distributed MT latency bound)
//      is much smaller than the single-node total;
// and reports the default configuration's freeze+compare throughput in
// summary nodes per second (best of several multi-analysis blocks), which
// the perf-smoke gate floors.
//
// Flags: --quick (smaller sizes for CI), --json FILE (metrics for the
// perf-smoke regression gate).
#include <fstream>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/fsutil.h"
#include "offline/tracestore.h"

using namespace sword;
using namespace sword::bench;

namespace {

using ReportTuple =
    std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t, bool, bool>;

std::vector<ReportTuple> Tuples(const std::vector<RaceReport>& rs) {
  std::vector<ReportTuple> out;
  out.reserve(rs.size());
  for (const RaceReport& r : rs) {
    out.push_back({r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1, r.write2});
  }
  return out;
}

double FreezeCompareSeconds(const offline::AnalysisStats& s) {
  return s.freeze_seconds + s.compare_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("offline-analysis parallelization",
         "race set invariant under parallelism; "
         "per-region max (MT) << single-node total (OA)");

  struct Case {
    const char* suite;
    const char* name;
    uint64_t size;
  };
  const Case cases[] = {{"hpc", "LULESH", quick ? 24u : 40u},
                        {"ompscr", "c_lu", quick ? 32u : 64u}};

  bool invariant = true;
  bool mt_much_smaller = true;
  double default_nps = 0;

  for (const Case& c : cases) {
    const auto& w = Find(c.suite, c.name);

    // Collect the trace ONCE; re-analyze under every configuration.
    TempDir dir("offpar");
    harness::RunConfig collect;
    collect.tool = harness::ToolKind::kSword;
    collect.params.threads = 8;
    collect.params.size = c.size;
    collect.trace_dir = dir.path();
    collect.run_offline = false;
    (void)harness::RunWorkload(w, collect);

    auto store = offline::TraceStore::OpenDir(dir.path());
    if (!store.ok()) {
      std::fprintf(stderr, "trace load failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }

    // --- Thread sweep under the default configuration.
    TextTable table({std::string(c.name) + " analysis threads", "OA total",
                     "build", "freeze+compare", "MT (slowest region)", "races"});
    std::vector<ReportTuple> reference;
    bool have_reference = false;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      offline::AnalysisConfig config;
      config.threads = threads;
      const auto result = offline::Analyze(store.value(), config);
      table.AddRow({std::to_string(threads),
                    FormatSeconds(result.stats.total_seconds),
                    FormatSeconds(result.stats.build_seconds),
                    FormatSeconds(result.stats.freeze_seconds +
                                  result.stats.compare_seconds),
                    FormatSeconds(result.stats.max_bucket_seconds),
                    std::to_string(result.races.size())});
      if (!have_reference) {
        reference = Tuples(result.races.reports());
        have_reference = true;
      } else if (Tuples(result.races.reports()) != reference) {
        invariant = false;
      }
      if (result.stats.buckets > 4 &&
          result.stats.max_bucket_seconds > result.stats.total_seconds / 2) {
        mt_much_smaller = false;
      }
    }
    table.Print();
    std::printf("\n");

    // --- Freeze+compare throughput at a fixed thread count, in summary
    // nodes (tree_nodes) per second. One analysis spends about 1 ms there,
    // which is scheduler noise, so a sample is a block of analyses whose
    // freeze+compare times add up to tens of milliseconds, and the rate is
    // the best of several blocks (the counters and reports are
    // deterministic across analyses).
    TextTable hot({std::string(c.name) + " at 4 threads",
                   "freeze+compare/analysis", "nodes/s", "overlap decisions",
                   "races"});
    const int block = quick ? 20 : 40;
    offline::AnalysisResult default_run;
    const double seconds = BestOfReps(
        quick ? 5 : 9,
        [&] {
          double block_seconds = 0;
          for (int k = 0; k < block; k++) {
            offline::AnalysisConfig config;
            config.threads = 4;
            default_run = offline::Analyze(store.value(), config);
            block_seconds += FreezeCompareSeconds(default_run.stats);
          }
          return block_seconds / block;
        },
        [](double s) { return s; });
    const double nps = static_cast<double>(default_run.stats.tree_nodes) /
                       std::max(seconds, 1e-9);
    hot.AddRow({"default", FormatSeconds(seconds),
                std::to_string(static_cast<uint64_t>(nps)),
                std::to_string(default_run.stats.fastpath_hits),
                std::to_string(default_run.races.size())});
    if (Tuples(default_run.races.reports()) != reference) invariant = false;
    default_nps += nps;
    hot.Print();
    std::printf("\n");
  }

  Check(invariant, "race reports byte-identical under thread count");
  Check(mt_much_smaller,
        "slowest single region (MT) well below single-node total (OA) - the "
        "distributed-analysis headroom of Table V");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"ablation_offline_parallel\",\"quick\":"
        << (quick ? "true" : "false")
        << ",\"default_nodes_per_sec\":" << default_nps << ",\"invariant\":"
        << (invariant ? "true" : "false") << "}\n";
  }
  return invariant ? 0 : 1;
}
