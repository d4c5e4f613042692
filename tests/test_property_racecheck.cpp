// Randomized equivalence properties for the race-check hot path:
//
//   1. CheckFrozenPair (sweep-merge/gallop enumeration, with and without the
//      closed-form overlap fast paths) must emit the EXACT report sequence
//      of the brute-force every-pair reference (tests/oracle), over
//      randomized strided workloads.
//   2. Under a starved solver budget, the checker without fast paths is
//      still byte-identical to the reference; with fast paths it may only be
//      MORE precise - every pair the reference proves stays proven with the
//      same witness, every pair the fast-path run reports was at least
//      flagged (possibly unproven) by the reference, and nothing is invented
//      or dropped.
//   3. The full analyzer gives byte-identical reports (text rendering
//      included) across every --no-fastpath / --no-dedup ablation and
//      thread count, over randomized multi-threaded strided traces - and
//      the same scripts written with and without strided-run coalescing
//      find the same races in the same number of summary nodes.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "common/fsutil.h"
#include "common/rng.h"
#include "offline/analysis.h"
#include "offline/racecheck.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "oracle/brute_force_check.h"
#include "oracle/interval_tree.h"
#include "trace/writer.h"

namespace sword::offline {
namespace {

using itree::AccessKey;
using itree::FrozenIntervalSet;
using itree::MutexSetTable;

using ReportTuple = std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t,
                               bool, bool, uint8_t>;

ReportTuple Tup(const RaceReport& r) {
  return {r.pc1,    r.pc2,    r.address,
          r.size1,  r.size2,  r.write1,
          r.write2, static_cast<uint8_t>(r.confidence)};
}

std::vector<ReportTuple> Tuples(const std::vector<RaceReport>& rs) {
  std::vector<ReportTuple> out;
  out.reserve(rs.size());
  for (const RaceReport& r : rs) out.push_back(Tup(r));
  return out;
}

/// A random strided workload: a mix of singleton, dense-run, and sparse
/// strided nodes with random rw/atomic flags and lock sets drawn from a
/// small pool, clustered so ranges actually touch across the two sets.
FrozenIntervalSet RandomWorkload(Rng& rng, MutexSetTable* intern,
                                 uint32_t pc_base, int nodes) {
  itree::IntervalTree tree;
  for (int i = 0; i < nodes; i++) {
    ilp::StridedInterval iv;
    iv.base = 0x1000 + rng.Below(2000);
    switch (rng.Below(4)) {
      case 0:  // singleton
        iv.stride = 0;
        iv.count = 1;
        break;
      case 1:  // dense run (stride <= size)
        iv.stride = 8;
        iv.count = 1 + rng.Below(24);
        break;
      default:  // sparse strided, adversarial strides
        iv.stride = 9 + rng.Below(56);
        iv.count = 1 + rng.Below(24);
        break;
    }
    iv.size = static_cast<uint32_t>(1 + rng.Below(8));
    if (iv.stride != 0 && iv.stride <= iv.size) iv.stride = iv.size + 1;
    if (rng.Chance(0.3)) iv.stride = 8;  // frequent equal-stride pairs

    AccessKey key;
    key.pc = pc_base + static_cast<uint32_t>(rng.Below(6));
    key.flags = rng.Chance(0.6) ? itree::kWrite : itree::kRead;
    if (rng.Chance(0.15)) key.flags |= itree::kAtomic;
    key.size = static_cast<uint8_t>(iv.size);
    key.mutexset = rng.Chance(0.25)
                       ? intern->Intern({1 + static_cast<uint32_t>(rng.Below(2))})
                       : itree::kEmptyMutexSet;
    tree.AddInterval(iv, key);
  }
  return itree::FreezeTree(tree);
}

struct RunOutput {
  std::vector<RaceReport> reports;
  CheckStats stats;
};

RunOutput RunFrozen(const FrozenIntervalSet& a, const FrozenIntervalSet& b,
                    const MutexSetTable& mutexes, const CheckLimits& limits) {
  RunOutput out;
  CheckFrozenPair(a, b, mutexes, ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { out.reports.push_back(r); },
                  &out.stats, limits);
  return out;
}

class RacecheckProperty : public testing::TestWithParam<int> {};

TEST_P(RacecheckProperty, FrozenAndFastpathMatchBruteForce) {
  Rng rng(31000 + static_cast<uint64_t>(GetParam()));
  MutexSetTable mutexes;
  // Every third seed pits a 1-4 node side against a 40-80 node one, which
  // CheckFrozenPair gallops through instead of sweeping.
  const bool gallop = GetParam() % 3 == 0;
  const int a_nodes = gallop ? 1 + static_cast<int>(rng.Below(4))
                             : 4 + static_cast<int>(rng.Below(40));
  const FrozenIntervalSet a = RandomWorkload(rng, &mutexes, 100, a_nodes);
  const int b_nodes = (gallop ? 40 : 4) + static_cast<int>(rng.Below(40));
  const FrozenIntervalSet b = RandomWorkload(rng, &mutexes, 200, b_nodes);

  oracle::BruteForceStats want;
  const std::vector<RaceReport> reference = oracle::BruteForceRaces(
      a, b, mutexes, ilp::OverlapEngine::kDiophantine, 0, &want);
  const RunOutput engine = RunFrozen(a, b, mutexes, {});
  CheckLimits fast;
  fast.use_fastpath = true;
  const RunOutput fastpath = RunFrozen(a, b, mutexes, fast);

  EXPECT_EQ(Tuples(reference), Tuples(engine.reports)) << "engine only";
  EXPECT_EQ(Tuples(reference), Tuples(fastpath.reports)) << "fast paths";

  EXPECT_EQ(want.node_pairs_ranged, engine.stats.node_pairs_ranged);
  EXPECT_EQ(want.decisions, engine.stats.solver_calls);
  EXPECT_EQ(want.duplicates_suppressed, engine.stats.duplicates_suppressed);
  // Fast paths replace solver calls one-for-one, never skip decisions.
  EXPECT_EQ(fastpath.stats.fastpath_hits + fastpath.stats.solver_calls,
            want.decisions);
}

TEST_P(RacecheckProperty, StarvedBudgetStaysSoundAndConsistent) {
  Rng rng(47000 + static_cast<uint64_t>(GetParam()));
  MutexSetTable mutexes;
  const FrozenIntervalSet a =
      RandomWorkload(rng, &mutexes, 100, 4 + static_cast<int>(rng.Below(40)));
  const FrozenIntervalSet b =
      RandomWorkload(rng, &mutexes, 200, 4 + static_cast<int>(rng.Below(40)));

  CheckLimits starved;
  starved.solver_step_budget = 1 + rng.Below(3);
  oracle::BruteForceStats reference_stats;
  const std::vector<RaceReport> reference = oracle::BruteForceRaces(
      a, b, mutexes, ilp::OverlapEngine::kDiophantine,
      starved.solver_step_budget, &reference_stats);
  const RunOutput sweep = RunFrozen(a, b, mutexes, starved);
  // Without fast paths the checker makes the reference's starved decisions
  // in the same canonical order: byte-identical, bail-outs included.
  EXPECT_EQ(Tuples(reference), Tuples(sweep.reports));
  EXPECT_EQ(reference_stats.bailouts, sweep.stats.solver_bailouts);

  CheckLimits starved_fast = starved;
  starved_fast.use_fastpath = true;
  const RunOutput fastpath = RunFrozen(a, b, mutexes, starved_fast);

  // The fast paths are exact and budget-free, so the starved fast-path run
  // may only be MORE decided than the reference, never contradictory:
  //   - every report it emits targets a pair the reference also flagged;
  //   - every pair the reference PROVED is reported identically (the closed
  //     forms reproduce engine witnesses bit-for-bit);
  //   - anything it still reports unproven, the reference reported unproven
  //     too.
  std::map<std::pair<uint32_t, uint32_t>, int> reference_pairs;
  std::map<ReportTuple, int> reference_unproven;
  for (const RaceReport& r : reference) {
    reference_pairs[{r.pc1, r.pc2}]++;
    if (r.confidence == RaceConfidence::kUnproven) reference_unproven[Tup(r)]++;
  }
  for (const RaceReport& r : fastpath.reports) {
    ASSERT_TRUE(reference_pairs.count({r.pc1, r.pc2}))
        << "fast path invented pair " << r.pc1 << "/" << r.pc2;
    if (r.confidence == RaceConfidence::kUnproven) {
      // An unproven fast-path-run report is an engine-fallback decision the
      // reference run made identically - the exact tuple must exist there.
      EXPECT_GT(reference_unproven[Tup(r)], 0)
          << "unproven report " << r.pc1 << "/" << r.pc2
          << " has no reference counterpart";
      reference_unproven[Tup(r)]--;
    }
  }
  std::map<ReportTuple, int> fast_multiset;
  for (const RaceReport& r : fastpath.reports) fast_multiset[Tup(r)]++;
  for (const RaceReport& r : reference) {
    if (r.confidence == RaceConfidence::kProven) {
      EXPECT_GT(fast_multiset[Tup(r)], 0)
          << "proven race " << r.pc1 << "/" << r.pc2
          << " lost or altered by the fast path";
      fast_multiset[Tup(r)]--;
    }
  }
  EXPECT_LE(fastpath.stats.solver_bailouts, reference_stats.bailouts);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, RacecheckProperty,
                         testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Full-analyzer ablation identity over randomized multi-threaded traces.

trace::IntervalMeta PropMeta(uint32_t lane, uint32_t span, uint64_t phase) {
  trace::IntervalMeta m;
  m.region = 0;
  m.parent_region = trace::IntervalMeta::kNoParent;
  m.phase = phase;
  osl::Label label = osl::Label::Initial().Fork(lane, span);
  for (uint64_t p = 0; p < phase; p++) label = label.AfterBarrier();
  m.label = label;
  m.level = 1;
  m.lane = lane;
  return m;
}

class AnalyzeAblationProperty : public testing::TestWithParam<int> {};

TEST_P(AnalyzeAblationProperty, AllAblationsRenderIdentically) {
  Rng rng(88000 + static_cast<uint64_t>(GetParam()));
  TempDir dir("prop-ablate");
  trace::Flusher flusher{/*async=*/false};
  const uint32_t threads = 2 + static_cast<uint32_t>(rng.Below(2));
  const uint32_t phases = 1 + static_cast<uint32_t>(rng.Below(2));
  for (uint32_t tid = 0; tid < threads; tid++) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    trace::ThreadTraceWriter writer(tid, wc);
    for (uint32_t phase = 0; phase < phases; phase++) {
      writer.BeginSegment(PropMeta(tid, threads, phase));
      const int events = static_cast<int>(rng.Below(120));
      uint64_t cursor = 0x1000 + rng.Below(512) * 8;
      for (int e = 0; e < events; e++) {
        const uint32_t pc = 10 + static_cast<uint32_t>(rng.Below(8));
        const uint8_t size = rng.Chance(0.5) ? 8 : 4;
        const bool write = rng.Chance(0.5);
        writer.Append(trace::RawEvent::Access(cursor, size, write, pc));
        cursor += rng.Chance(0.7) ? 8 * (1 + rng.Below(4))
                                  : (rng.Below(256) * 8);
        if (cursor > 0x6000) cursor = 0x1000 + rng.Below(64) * 8;
      }
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto store = TraceStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto pc_name = [](uint32_t pc) { return "pc#" + std::to_string(pc); };

  AnalysisConfig base_config;
  const AnalysisResult base = Analyze(store.value(), base_config);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  const std::string base_text = RenderText(base, pc_name);

  for (const bool use_dedup : {true, false}) {
    for (const bool use_fastpath : {true, false}) {
      for (const uint32_t nthreads : {1u, 3u}) {
        AnalysisConfig config;
        config.use_dedup = use_dedup;
        config.use_fastpath = use_fastpath;
        config.threads = nthreads;
        const AnalysisResult alt = Analyze(store.value(), config);
        ASSERT_TRUE(alt.status.ok());
        EXPECT_EQ(RenderText(alt, pc_name), base_text)
            << "dedup=" << use_dedup << " fastpath=" << use_fastpath
            << " threads=" << nthreads;
        EXPECT_EQ(Tuples(alt.races.reports()), Tuples(base.races.reports()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, AnalyzeAblationProperty,
                         testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Pipeline equivalence: repeated-subtrace memoization (use_dedup), the
// closed-form fast paths (use_fastpath) and the checker thread count must
// each - and in every combination - render byte-identically to the all-off
// serial run, across trace formats v1/v2/v3 and across salvage-cut traces
// whose tails died mid-segment. Independently, the same scripts written as a
// v3 trace (strided runs coalesced into kAccessRun events, summarized by
// StreamingSetBuilder::AddRun) and as a v2 trace (every element a separate
// access) must find the same races in the same number of summary nodes.

/// One thread's scripted event stream. Scripts are generated once and
/// sometimes REPLAYED verbatim on another thread, so dedup's
/// fingerprint-sharing path is exercised, not just tolerated.
using EventScript = std::vector<trace::RawEvent>;

EventScript RandomScript(Rng& rng) {
  EventScript script;
  const int bursts = 1 + static_cast<int>(rng.Below(4));
  for (int b = 0; b < bursts; b++) {
    if (rng.Chance(0.3)) {
      // A strided sweep: in v3 the writer coalesces this into one
      // kAccessRun, the shape the symbolic layer carries end to end.
      const uint64_t base = 0x1000 + rng.Below(64) * 8;
      const uint64_t stride = 8 * (1 + rng.Below(3));
      const int count = 16 + static_cast<int>(rng.Below(64));
      const uint32_t pc = 10 + static_cast<uint32_t>(rng.Below(8));
      const bool write = rng.Chance(0.6);
      for (int i = 0; i < count; i++) {
        script.push_back(trace::RawEvent::Access(
            base + static_cast<uint64_t>(i) * stride, 8, write, pc));
      }
    } else if (rng.Chance(0.15)) {
      const uint32_t lock = 1 + static_cast<uint32_t>(rng.Below(2));
      script.push_back(trace::RawEvent::MutexAcquire(lock));
      script.push_back(trace::RawEvent::Access(
          0x1000 + rng.Below(256) * 8, 8, true,
          10 + static_cast<uint32_t>(rng.Below(8))));
      script.push_back(trace::RawEvent::MutexRelease(lock));
    } else {
      const int events = static_cast<int>(rng.Below(40));
      uint64_t cursor = 0x1000 + rng.Below(512) * 8;
      for (int e = 0; e < events; e++) {
        script.push_back(trace::RawEvent::Access(
            cursor, rng.Chance(0.5) ? 8 : 4, rng.Chance(0.5),
            10 + static_cast<uint32_t>(rng.Below(8))));
        cursor += rng.Chance(0.7) ? 8 * (1 + rng.Below(4)) : rng.Below(256) * 8;
        if (cursor > 0x6000) cursor = 0x1000 + rng.Below(64) * 8;
      }
    }
  }
  return script;
}

class PipelineProperty : public testing::TestWithParam<int> {};

TEST_P(PipelineProperty, AllModeCombinationsRenderIdentically) {
  const int seed = GetParam();
  Rng rng(99000 + static_cast<uint64_t>(seed));
  TempDir dir("prop-stream");
  trace::Flusher flusher{/*async=*/false};
  // Rotate the wire format so every decoder front end feeds the builder;
  // only v3 carries kAccessRun, the symbolic layer's event.
  const uint8_t format = static_cast<uint8_t>(
      trace::kTraceFormatV1 + (static_cast<uint32_t>(seed) % 3));
  const uint32_t threads = 2 + static_cast<uint32_t>(rng.Below(2));
  const uint32_t phases = 1 + static_cast<uint32_t>(rng.Below(2));

  std::vector<std::vector<EventScript>> scripts(threads);
  for (uint32_t tid = 0; tid < threads; tid++) {
    for (uint32_t phase = 0; phase < phases; phase++) {
      // Half the time a later thread replays thread 0's stream verbatim -
      // identical canonical streams are dedup's fingerprint-sharing case.
      if (tid > 0 && rng.Chance(0.5)) {
        scripts[tid].push_back(scripts[0][phase]);
      } else {
        scripts[tid].push_back(RandomScript(rng));
      }
    }
  }

  auto write_trace = [&](const std::string& path, uint8_t wire_format) {
    for (uint32_t tid = 0; tid < threads; tid++) {
      trace::WriterConfig wc;
      wc.log_path = path + "/sword_t" + std::to_string(tid) + ".log";
      wc.meta_path = path + "/sword_t" + std::to_string(tid) + ".meta";
      wc.flusher = &flusher;
      wc.format = wire_format;
      trace::ThreadTraceWriter writer(tid, wc);
      for (uint32_t phase = 0; phase < phases; phase++) {
        writer.BeginSegment(PropMeta(tid, threads, phase));
        for (const trace::RawEvent& e : scripts[tid][phase]) writer.Append(e);
        writer.EndSegment();
      }
      ASSERT_TRUE(writer.Finish().ok());
    }
  };
  write_trace(dir.path(), format);
  // The run-folding oracle: the same scripts in the format on the other
  // side of coalescing (v3 <-> v2).
  TempDir twin("prop-stream-twin");
  const uint8_t twin_format = format == trace::kTraceFormatV3
                                  ? trace::kTraceFormatV2
                                  : trace::kTraceFormatV3;
  write_trace(twin.path(), twin_format);

  // Every third seed analyzes a salvage-cut trace: the last thread's log
  // loses its tail (as a SIGKILL mid-flush would leave it), so every mode
  // must agree on damaged segments and partially-streamed groups too.
  StoreOptions store_options;
  if (seed % 3 == 1) {
    const std::string victim =
        dir.path() + "/sword_t" + std::to_string(threads - 1) + ".log";
    auto size = FileSize(victim);
    ASSERT_TRUE(size.ok());
    if (size.value() > 8) {
      ASSERT_TRUE(
          TruncateFile(victim, size.value() - 1 - rng.Below(size.value() / 2))
              .ok());
      store_options.salvage = true;
    }
  }

  auto store = TraceStore::OpenDir(dir.path(), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto pc_name = [](uint32_t pc) { return "pc#" + std::to_string(pc); };

  AnalysisConfig plain;
  plain.use_dedup = false;
  plain.use_fastpath = false;
  const AnalysisResult base = Analyze(store.value(), plain);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  const std::string base_text = RenderText(base, pc_name);

  for (int mask = 1; mask < 8; mask++) {
    AnalysisConfig config;
    config.use_dedup = mask & 1;
    config.use_fastpath = mask & 2;
    config.threads = (mask & 4) ? 3 : 1;
    const AnalysisResult alt = Analyze(store.value(), config);
    ASSERT_TRUE(alt.status.ok()) << alt.status.ToString();
    EXPECT_EQ(RenderText(alt, pc_name), base_text)
        << "dedup=" << bool(mask & 1) << " fastpath=" << bool(mask & 2)
        << " threads=" << config.threads << " format=v" << int(format);
    EXPECT_EQ(Tuples(alt.races.reports()), Tuples(base.races.reports()));
  }

  if (store_options.salvage) return;  // the twin trace was not cut
  auto twin_store = TraceStore::OpenDir(twin.path());
  ASSERT_TRUE(twin_store.ok()) << twin_store.status().ToString();
  const AnalysisResult twin_result = Analyze(twin_store.value(), plain);
  ASSERT_TRUE(twin_result.status.ok()) << twin_result.status.ToString();
  EXPECT_EQ(Tuples(twin_result.races.reports()), Tuples(base.races.reports()))
      << "format=v" << int(format) << " vs v" << int(twin_format);
  EXPECT_EQ(twin_result.stats.tree_nodes, base.stats.tree_nodes);
  EXPECT_EQ(twin_result.stats.node_pairs_ranged, base.stats.node_pairs_ranged);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, PipelineProperty,
                         testing::Range(0, 27));

}  // namespace
}  // namespace sword::offline
