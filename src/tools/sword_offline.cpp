// sword-offline: the offline race-detection command-line tool.
//
//   sword-offline <trace-dir> [--threads N] [--stats] [--json]
//                 [--shard I --shards N] [--salvage]
//                 [--journal [PATH]] [--resume]
//                 [--bucket-deadline-ms N] [--max-tree-mb N]
//
// Reads a trace directory produced by SwordTool (sword_t*.log/.meta),
// recovers the concurrency structure, and prints the deduplicated race
// reports.
//
// Exit-code contract (stable; scripts depend on it):
//   0 = analysis completed, no races
//   2 = analysis completed, races found
//   4 = I/O or analysis failure (unreadable trace, journal mismatch, ...)
//   1 = usage error (bad flags)
//
// This is the analogue of the sword-offline-analysis driver the real SWORD
// distributes for cluster use.
#include <cstdio>

#include "common/args.h"
#include "common/fsutil.h"
#include "common/timer.h"
#include "offline/analysis.h"
#include "offline/journal.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "somp/srcloc.h"

using namespace sword;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitUsage = 1;
constexpr int kExitRaces = 2;
constexpr int kExitFailure = 4;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sword-offline <trace-dir> [options]\n"
               "  --threads N      checker threads for summary comparison (default 1)\n"
               "  --stats          print analysis statistics\n"
               "  --json           machine-readable output\n"
               "  --shard I        analyze only shard I (with --shards)\n"
               "  --shards N       total shards for distributed analysis\n"
               "  --salvage        analyze damaged traces (crashed/killed runs):\n"
               "                   resynchronize past corruption and report races\n"
               "                   from surviving data, with integrity accounting\n"
               "  --journal [PATH] checkpoint progress after every bucket; default\n"
               "                   PATH is sword_analysis_<I>of<N>.journal in the\n"
               "                   trace directory\n"
               "  --resume         replay completed buckets from the journal and\n"
               "                   analyze only the rest; the final report is\n"
               "                   bit-identical to an uninterrupted run\n"
               "  --bucket-deadline-ms N  abort any single bucket after N ms of\n"
               "                   wall clock (0 = no deadline)\n"
               "  --max-tree-mb N  abandon a bucket whose interval summaries exceed\n"
               "                   N MiB (0 = no cap)\n"
               "exit codes: 0 no races, 2 races found, 4 I/O or analysis\n"
               "failure, 1 usage error\n");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const int64_t threads = args.GetInt("threads", 1);
  const bool stats = args.GetBool("stats");
  const bool json = args.GetBool("json");
  const int64_t shard = args.GetInt("shard", 0);
  const int64_t shards = args.GetInt("shards", 1);
  const bool salvage = args.GetBool("salvage");
  const bool journal_requested = args.Has("journal");
  const std::string journal_flag = args.GetString("journal", "");
  const bool resume = args.GetBool("resume");
  const int64_t bucket_deadline_ms = args.GetInt("bucket-deadline-ms", 0);
  const int64_t max_tree_mb = args.GetInt("max-tree-mb", 0);

  if (args.GetBool("help")) {
    PrintUsage();
    return kExitClean;
  }
  if (args.positional().size() != 1) {
    PrintUsage();
    return kExitUsage;
  }
  for (const auto& flag : args.UnknownFlags()) {
    std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
    PrintUsage();
    return kExitUsage;
  }
  // Flag validation up front: a misconfigured run must die with a usage
  // error before touching the trace, not hours into an analysis.
  if (threads < 1) {
    std::fprintf(stderr, "error: --threads must be >= 1 (got %lld)\n",
                 (long long)threads);
    return kExitUsage;
  }
  if (shards < 1) {
    std::fprintf(stderr, "error: --shards must be >= 1 (got %lld)\n",
                 (long long)shards);
    return kExitUsage;
  }
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr,
                 "error: --shard must be in [0, --shards); got shard %lld of "
                 "%lld\n",
                 (long long)shard, (long long)shards);
    return kExitUsage;
  }
  if (bucket_deadline_ms < 0 || max_tree_mb < 0) {
    std::fprintf(stderr, "error: governor budgets must be >= 0\n");
    return kExitUsage;
  }

  const std::string& trace_dir = args.positional()[0];
  // --resume implies --journal (resume replays it, then keeps appending).
  std::string journal_path;
  if (journal_requested || resume) {
    journal_path = journal_flag.empty()
                       ? offline::JournalPathFor(trace_dir,
                                                 static_cast<uint32_t>(shard),
                                                 static_cast<uint32_t>(shards))
                       : journal_flag;
  }
  if (resume && !FileExists(journal_path)) {
    std::fprintf(stderr,
                 "error: --resume but no journal at %s\n"
                 "(run with --journal first; each shard keeps its own journal)\n",
                 journal_path.c_str());
    return kExitFailure;
  }
  if (resume) {
    // A salvage analysis skips damaged segments with accounting, so its
    // journaled buckets are not interchangeable with a strict run's. The
    // journal header binds the salvage policy (v3); refusing the mismatch
    // here - as a usage error, before the store is even opened - beats the
    // analyzer's generic header-mismatch failure hours later.
    const auto loaded = offline::LoadJournal(journal_path);
    if (loaded.ok() &&
        loaded.value().header.salvage != (salvage ? 1 : 0)) {
      std::fprintf(stderr,
                   "error: journal %s was written %s --salvage; resuming it "
                   "%s --salvage would silently diverge\n"
                   "(rerun with the journal's salvage mode, or delete the "
                   "journal to start fresh)\n",
                   journal_path.c_str(),
                   loaded.value().header.salvage ? "with" : "without",
                   salvage ? "with" : "without");
      return kExitUsage;
    }
  }

  offline::StoreOptions store_options;
  store_options.salvage = salvage;
  auto store = offline::TraceStore::OpenDir(trace_dir, store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
    if (!salvage) {
      std::fprintf(stderr,
                   "(if this trace came from a crashed or killed run, retry "
                   "with --salvage)\n");
    }
    return kExitFailure;
  }
  if (!json) {
    std::printf("loaded %zu thread trace(s), %llu barrier interval(s)\n",
                store.value().thread_count(),
                static_cast<unsigned long long>(store.value().TotalIntervals()));
  }

  offline::AnalysisConfig config;
  config.threads = static_cast<uint32_t>(threads);
  config.shard_index = static_cast<uint32_t>(shard);
  config.shard_count = static_cast<uint32_t>(shards);
  config.bucket_deadline_ms = static_cast<uint32_t>(bucket_deadline_ms);
  config.max_tree_bytes = static_cast<uint64_t>(max_tree_mb) * 1024 * 1024;
  config.journal_path = journal_path;
  config.resume = resume;
  const offline::AnalysisResult result = offline::Analyze(store.value(), config);
  if (!result.status.ok()) {
    std::fprintf(stderr, "analysis error: %s\n", result.status.ToString().c_str());
    if (!salvage) {
      std::fprintf(stderr,
                   "(if this trace came from a crashed or killed run, retry "
                   "with --salvage)\n");
    }
    return kExitFailure;
  }

  // PCs are process-local ids; if this analyzer process did not execute the
  // program, ids cannot be resolved to file:line, so print them raw.
  auto pc_name = [](uint32_t pc) {
    if (pc < somp::SrcLocCount()) return somp::LookupSrcLoc(pc).ToString();
    return "pc#" + std::to_string(pc);
  };

  if (json) {
    std::printf("%s\n", offline::RenderJson(result, pc_name).c_str());
    return result.races.size() ? kExitRaces : kExitClean;
  }
  std::printf("\n%s", offline::RenderText(result, pc_name).c_str());

  if (stats) {
    const auto& s = result.stats;
    std::printf("\nanalysis statistics:\n");
    std::printf("  buckets (top-level regions):  %llu\n",
                (unsigned long long)s.buckets);
    std::printf("  interval trees built:         %llu (%llu nodes from %llu events)\n",
                (unsigned long long)s.trees_built, (unsigned long long)s.tree_nodes,
                (unsigned long long)s.raw_events);
    std::printf("  label pairs judged:           %llu (%llu concurrent)\n",
                (unsigned long long)s.label_pairs_checked,
                (unsigned long long)s.concurrent_pairs);
    std::printf("  write pairs range-matched:    %llu (%llu overlap decisions)\n",
                (unsigned long long)s.node_pairs_ranged,
                (unsigned long long)s.fastpath_hits);
    std::printf("  dedup memoization hits:       %llu (%s saved)\n",
                (unsigned long long)s.dedup_hits,
                FormatBytes(s.dedup_bytes_saved).c_str());
    std::printf("  duplicate reports suppressed: %llu\n",
                (unsigned long long)s.duplicates_suppressed);
    std::printf("  build / freeze / compare / total: %s / %s / %s / %s\n",
                FormatSeconds(s.build_seconds).c_str(),
                FormatSeconds(s.freeze_seconds).c_str(),
                FormatSeconds(s.compare_seconds).c_str(),
                FormatSeconds(s.total_seconds).c_str());
    std::printf("  slowest bucket (MT proxy):    %s\n",
                FormatSeconds(s.max_bucket_seconds).c_str());
    std::printf("  peak tree memory:             %s (bucket %llu)\n",
                FormatBytes(s.peak_tree_bytes).c_str(),
                (unsigned long long)s.peak_tree_bucket);
    if (s.buckets_deadline_exceeded || s.buckets_memory_capped) {
      std::printf("  governed buckets:             %llu over deadline, %llu memory-capped\n",
                  (unsigned long long)s.buckets_deadline_exceeded,
                  (unsigned long long)s.buckets_memory_capped);
    }
    if (!journal_path.empty()) {
      std::printf("  journal:                      %llu bucket(s) resumed, %llu byte(s) appended, %llu write failure(s), %s\n",
                  (unsigned long long)s.buckets_resumed,
                  (unsigned long long)s.journal_bytes,
                  (unsigned long long)s.journal_write_failures,
                  FormatSeconds(s.journal_seconds).c_str());
      if (s.journal_records_dropped) {
        std::printf("  journal torn tail:            %llu record(s) dropped\n",
                    (unsigned long long)s.journal_records_dropped);
      }
    }
  }
  return result.races.size() ? kExitRaces : kExitClean;
}
