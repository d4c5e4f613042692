// Tests for src/offline: trace loading, summary-pair race checking, the full
// analysis pipeline over hand-written traces, engine equivalence, and
// parallel-analysis determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/fsutil.h"
#include "offline/analysis.h"
#include "offline/checker_pool.h"
#include "offline/journal.h"
#include "offline/racecheck.h"
#include "offline/tracestore.h"
#include "oracle/brute_force_check.h"
#include "oracle/interval_tree.h"
#include "oracle/journal_v4.h"
#include "trace/writer.h"

namespace sword::offline {
namespace {

using itree::AccessKey;
using itree::FreezeTree;
using itree::IntervalTree;
using itree::MutexSetTable;

AccessKey Key(uint32_t pc, uint8_t flags, uint8_t size = 8,
              itree::MutexSetId ms = itree::kEmptyMutexSet) {
  AccessKey k;
  k.pc = pc;
  k.flags = flags;
  k.size = size;
  k.mutexset = ms;
  return k;
}

TEST(CheckFrozenPair, WriteReadOverlapIsARace) {
  IntervalTree a, b;
  a.AddInterval({1000, 8, 10, 8}, Key(1, itree::kWrite));
  b.AddInterval({1040, 8, 10, 8}, Key(2, itree::kRead));
  MutexSetTable mutexes;
  RaceReportSet races;
  CheckStats stats;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { races.Add(r); }, &stats);
  EXPECT_EQ(races.size(), 1u);
  EXPECT_GT(stats.solver_calls, 0u);
}

TEST(CheckFrozenPair, CommonMutexProtects) {
  MutexSetTable mutexes;
  const auto lock_set = mutexes.Intern({7});
  IntervalTree a, b;
  a.AddInterval({1000, 0, 1, 8}, Key(1, itree::kWrite, 8, lock_set));
  b.AddInterval({1000, 0, 1, 8}, Key(2, itree::kWrite, 8, lock_set));
  RaceReportSet races;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { races.Add(r); });
  EXPECT_EQ(races.size(), 0u);
}

TEST(CheckFrozenPair, AtomicPairSkippedMixedPairNot) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  a.AddInterval({2000, 0, 1, 8},
                Key(1, itree::kWrite | itree::kAtomic));
  b.AddInterval({2000, 0, 1, 8},
                Key(2, itree::kWrite | itree::kAtomic));
  b.AddInterval({2008, 0, 1, 8}, Key(3, itree::kWrite));
  a.AddInterval({2008, 0, 1, 8},
                Key(4, itree::kWrite | itree::kAtomic));
  RaceReportSet races;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { races.Add(r); });
  EXPECT_EQ(races.size(), 1u);  // only the atomic-vs-plain pair at 2008
}

TEST(CheckFrozenPair, InterleavedStridesNeedExactCheck) {
  // Fig. 4: range overlap without address overlap must NOT race.
  IntervalTree a, b;
  a.AddInterval({10, 8, 5, 4}, Key(1, itree::kWrite, 4));
  b.AddInterval({14, 8, 5, 4}, Key(2, itree::kWrite, 4));
  MutexSetTable mutexes;
  RaceReportSet races;
  CheckStats stats;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { races.Add(r); }, &stats);
  EXPECT_EQ(races.size(), 0u);
  EXPECT_GT(stats.node_pairs_ranged, 0u) << "ranges DO overlap";
}

// ---------------------------------------------------------------------------
// Full pipeline over hand-written traces.

struct SyntheticTrace {
  TempDir dir;
  trace::Flusher flusher{/*async=*/false};
  uint8_t format = trace::kTraceFormatV2;  // event encoding for written logs

  /// Writes one thread's trace: a list of (meta, events) segments.
  void WriteThread(uint32_t tid,
                   const std::vector<std::pair<trace::IntervalMeta,
                                               std::vector<trace::RawEvent>>>& segs) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    wc.format = format;
    trace::ThreadTraceWriter writer(tid, wc);
    for (const auto& [meta, events] : segs) {
      writer.BeginSegment(meta);
      for (const auto& e : events) writer.Append(e);
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  AnalysisResult Analyze(const AnalysisConfig& config = {}) {
    auto store = TraceStore::OpenDir(dir.path());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return offline::Analyze(store.value(), config);
  }
};

trace::IntervalMeta Meta(uint32_t lane, uint32_t span, uint64_t phase = 0) {
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

TEST(Analysis, DetectsCrossThreadWriteReadRace) {
  SyntheticTrace t;
  t.WriteThread(0, {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  t.WriteThread(1, {{Meta(1, 2), {trace::RawEvent::Access(0x1000, 8, 0, 22)}}});
  const AnalysisResult result = t.Analyze();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
  EXPECT_EQ(result.stats.intervals, 2u);
  EXPECT_EQ(result.stats.trees_built, 2u);
}

TEST(Analysis, BarrierSeparatedIntervalsDoNotRace) {
  SyntheticTrace t;
  t.WriteThread(0, {{Meta(0, 2, 0), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  t.WriteThread(1, {{Meta(1, 2, 1), {trace::RawEvent::Access(0x1000, 8, 1, 22)}}});
  const AnalysisResult result = t.Analyze();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.races.size(), 0u);
  EXPECT_EQ(result.stats.concurrent_pairs, 0u);
}

TEST(Analysis, LocksetRecoveryFromMutexEvents) {
  SyntheticTrace t;
  // Thread 0 writes under lock 5; thread 1 writes under lock 5 too.
  t.WriteThread(0, {{Meta(0, 2),
                     {trace::RawEvent::MutexAcquire(5),
                      trace::RawEvent::Access(0x1000, 8, 1, 11),
                      trace::RawEvent::MutexRelease(5)}}});
  t.WriteThread(1, {{Meta(1, 2),
                     {trace::RawEvent::MutexAcquire(5),
                      trace::RawEvent::Access(0x1000, 8, 1, 22),
                      trace::RawEvent::MutexRelease(5)}}});
  const AnalysisResult result = t.Analyze();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.races.size(), 0u);
}

TEST(Analysis, LocksetFromMetaInitialSet) {
  SyntheticTrace t;
  // Thread 0's segment OPENS with lock 9 already held (recorded in meta).
  trace::IntervalMeta m0 = Meta(0, 2);
  m0.lockset = {9};
  t.WriteThread(0, {{m0, {trace::RawEvent::Access(0x2000, 8, 1, 11)}}});
  trace::IntervalMeta m1 = Meta(1, 2);
  m1.lockset = {9};
  t.WriteThread(1, {{m1, {trace::RawEvent::Access(0x2000, 8, 1, 22)}}});
  const AnalysisResult result = t.Analyze();
  EXPECT_EQ(result.races.size(), 0u);
}

TEST(Analysis, MismatchedLocksStillRace) {
  SyntheticTrace t;
  t.WriteThread(0, {{Meta(0, 2),
                     {trace::RawEvent::MutexAcquire(5),
                      trace::RawEvent::Access(0x1000, 8, 1, 11),
                      trace::RawEvent::MutexRelease(5)}}});
  t.WriteThread(1, {{Meta(1, 2),
                     {trace::RawEvent::MutexAcquire(6),  // different lock
                      trace::RawEvent::Access(0x1000, 8, 1, 22),
                      trace::RawEvent::MutexRelease(6)}}});
  const AnalysisResult result = t.Analyze();
  EXPECT_EQ(result.races.size(), 1u);
}

TEST(Analysis, SegmentsOfOneIntervalMergeIntoOneTree) {
  SyntheticTrace t;
  // Two segments with the SAME label (nested-region interruption shape).
  t.WriteThread(0, {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}},
                    {Meta(0, 2), {trace::RawEvent::Access(0x1008, 8, 1, 11)}}});
  t.WriteThread(1, {{Meta(1, 2), {trace::RawEvent::Access(0x1008, 8, 0, 22)}}});
  const AnalysisResult result = t.Analyze();
  EXPECT_EQ(result.stats.trees_built, 2u);  // one per thread, segments merged
  EXPECT_EQ(result.races.size(), 1u);
}

TEST(Analysis, CrossTopLevelRegionsPruned) {
  SyntheticTrace t;
  // Thread 0's interval in top-level region 0; thread 1's in region 1
  // (root label advanced by a join in between).
  trace::IntervalMeta m0 = Meta(0, 2);
  trace::IntervalMeta m1 = Meta(1, 2);
  m1.region = 1;
  m1.label = osl::Label(
      {osl::Pair{1, 1, 0}, osl::Pair{1, 2, 0}});  // root advanced by join
  t.WriteThread(0, {{m0, {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  t.WriteThread(1, {{m1, {trace::RawEvent::Access(0x1000, 8, 1, 22)}}});
  const AnalysisResult result = t.Analyze();
  EXPECT_EQ(result.races.size(), 0u);
  EXPECT_EQ(result.stats.buckets, 2u);
  EXPECT_EQ(result.stats.label_pairs_checked, 0u);  // pruned before judgment
}

TEST(Analysis, ParallelAnalysisMatchesSerial) {
  SyntheticTrace t;
  // Many threads racing pairwise on scattered addresses.
  for (uint32_t tid = 0; tid < 6; tid++) {
    std::vector<trace::RawEvent> events;
    for (uint64_t i = 0; i < 50; i++) {
      events.push_back(
          trace::RawEvent::Access(0x1000 + (i % 10) * 8, 8, 1, 100 + tid));
    }
    t.WriteThread(tid, {{Meta(tid, 6), events}});
  }
  AnalysisConfig serial;
  serial.threads = 1;
  AnalysisConfig parallel;
  parallel.threads = 4;
  const AnalysisResult r1 = t.Analyze(serial);
  const AnalysisResult r2 = t.Analyze(parallel);
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.races.size(), r2.races.size());
  EXPECT_EQ(r1.races.size(), 15u);  // C(6,2) pc pairs
}

TEST(Analysis, IlpEngineMatchesDiophantine) {
  SyntheticTrace t;
  // Strided writes: thread 0 even slots, thread 1 odd slots (no race), plus
  // one genuine collision.
  std::vector<trace::RawEvent> e0, e1;
  for (uint64_t i = 0; i < 20; i++) {
    e0.push_back(trace::RawEvent::Access(0x1000 + i * 16, 8, 1, 11));
    e1.push_back(trace::RawEvent::Access(0x1008 + i * 16, 8, 1, 22));
  }
  e1.push_back(trace::RawEvent::Access(0x1000, 4, 0, 33));  // collides
  t.WriteThread(0, {{Meta(0, 2), e0}});
  t.WriteThread(1, {{Meta(1, 2), e1}});

  AnalysisConfig dio;
  dio.engine = ilp::OverlapEngine::kDiophantine;
  AnalysisConfig ilp_cfg;
  ilp_cfg.engine = ilp::OverlapEngine::kIlp;
  const AnalysisResult r1 = t.Analyze(dio);
  const AnalysisResult r2 = t.Analyze(ilp_cfg);
  EXPECT_EQ(r1.races.size(), 1u);
  EXPECT_EQ(r2.races.size(), 1u);
  EXPECT_TRUE(r1.races.Contains(11, 33));
  EXPECT_TRUE(r2.races.Contains(11, 33));
}

TEST(Analysis, ShardUnionEqualsFullAnalysis) {
  // Distributed mode: every shard analyzes a disjoint subset of top-level
  // regions; the union of their reports must equal the full run. Build a
  // trace with 5 top-level regions, each carrying a distinct race.
  SyntheticTrace t;
  std::vector<std::pair<trace::IntervalMeta, std::vector<trace::RawEvent>>> t0_segs,
      t1_segs;
  for (uint32_t region = 0; region < 5; region++) {
    trace::IntervalMeta m0 = Meta(0, 2);
    m0.region = region;
    m0.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{0, 2, 0}});
    trace::IntervalMeta m1 = Meta(1, 2);
    m1.region = region;
    m1.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{1, 2, 0}});
    const uint64_t addr = 0x1000 + region * 64;
    t0_segs.push_back({m0, {trace::RawEvent::Access(addr, 8, 1, 100 + region)}});
    t1_segs.push_back({m1, {trace::RawEvent::Access(addr, 8, 0, 200 + region)}});
  }
  t.WriteThread(0, t0_segs);
  t.WriteThread(1, t1_segs);

  AnalysisConfig full;
  const AnalysisResult everything = t.Analyze(full);
  ASSERT_TRUE(everything.status.ok());
  EXPECT_EQ(everything.races.size(), 5u);

  RaceReportSet merged;
  uint64_t shard_total = 0;
  for (uint32_t shard = 0; shard < 3; shard++) {
    AnalysisConfig config;
    config.shard_index = shard;
    config.shard_count = 3;
    const AnalysisResult result = t.Analyze(config);
    ASSERT_TRUE(result.status.ok());
    shard_total += result.races.size();
    for (const RaceReport& r : result.races.reports()) merged.Add(r);
    EXPECT_LT(result.stats.intervals == 0 ? 0 : result.races.size(), 5u);
  }
  EXPECT_EQ(shard_total, 5u);  // buckets are disjoint: no double reports
  EXPECT_EQ(merged.size(), everything.races.size());
}

TEST(Analysis, IdenticalRaceSetsOnV1AndV2Traces) {
  // Cross-format acceptance: the same execution traced in event format v1
  // and v2 must analyze to identical race sets.
  auto write_all = [](SyntheticTrace& t) {
    std::vector<trace::RawEvent> e0, e1;
    for (uint64_t i = 0; i < 40; i++) {
      e0.push_back(trace::RawEvent::Access(0x1000 + i * 16, 8, 1, 11));
      e1.push_back(trace::RawEvent::Access(0x1008 + i * 16, 8, 1, 22));
    }
    e1.push_back(trace::RawEvent::Access(0x1000, 4, 0, 33));   // races with 11
    e0.push_back(trace::RawEvent::MutexAcquire(5));
    e0.push_back(trace::RawEvent::Access(0x9000, 8, 1, 44));   // lock-protected
    e0.push_back(trace::RawEvent::MutexRelease(5));
    e1.push_back(trace::RawEvent::MutexAcquire(5));
    e1.push_back(trace::RawEvent::Access(0x9000, 8, 1, 55));
    e1.push_back(trace::RawEvent::MutexRelease(5));
    t.WriteThread(0, {{Meta(0, 2), e0}});
    t.WriteThread(1, {{Meta(1, 2), e1}});
  };

  SyntheticTrace v1;
  v1.format = trace::kTraceFormatV1;
  write_all(v1);
  SyntheticTrace v2;
  v2.format = trace::kTraceFormatV2;
  write_all(v2);

  const AnalysisResult r1 = v1.Analyze();
  const AnalysisResult r2 = v2.Analyze();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  ASSERT_EQ(r1.races.size(), r2.races.size());
  EXPECT_EQ(r1.races.size(), 1u);
  for (const RaceReport& r : r1.races.reports()) {
    EXPECT_TRUE(r2.races.Contains(r.pc1, r.pc2))
        << "race " << r.pc1 << "/" << r.pc2 << " missing from v2 analysis";
  }
  EXPECT_EQ(r1.stats.raw_events, r2.stats.raw_events);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume journal, resource governor, solver bail-out.

/// Five top-level regions, each with a distinct cross-thread race (the
/// ShardUnionEqualsFullAnalysis shape) - the bucket structure the journal
/// and governor tests need.
void WriteFiveRegionTrace(SyntheticTrace& t, uint64_t events_per_segment = 1) {
  std::vector<std::pair<trace::IntervalMeta, std::vector<trace::RawEvent>>> t0_segs,
      t1_segs;
  for (uint32_t region = 0; region < 5; region++) {
    trace::IntervalMeta m0 = Meta(0, 2);
    m0.region = region;
    m0.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{0, 2, 0}});
    trace::IntervalMeta m1 = Meta(1, 2);
    m1.region = region;
    m1.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{1, 2, 0}});
    const uint64_t addr = 0x1000 + region * 0x100;
    std::vector<trace::RawEvent> e0, e1;
    for (uint64_t i = 0; i < events_per_segment; i++) {
      e0.push_back(trace::RawEvent::Access(addr + i * 8, 8, 1, 100 + region));
      e1.push_back(trace::RawEvent::Access(addr + i * 8, 8, 0, 200 + region));
    }
    t0_segs.push_back({m0, e0});
    t1_segs.push_back({m1, e1});
  }
  t.WriteThread(0, t0_segs);
  t.WriteThread(1, t1_segs);
}

/// Element-wise report equality: content AND order (the resume contract is
/// bit-identical reports, not merely equal sets).
void ExpectSameReports(const RaceReportSet& got, const RaceReportSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    const RaceReport& a = got.reports()[i];
    const RaceReport& b = want.reports()[i];
    EXPECT_EQ(a.pc1, b.pc1) << "report " << i;
    EXPECT_EQ(a.pc2, b.pc2) << "report " << i;
    EXPECT_EQ(a.address, b.address) << "report " << i;
    EXPECT_EQ(a.write1, b.write1) << "report " << i;
    EXPECT_EQ(a.write2, b.write2) << "report " << i;
    EXPECT_EQ(a.confidence, b.confidence) << "report " << i;
  }
}

TEST(Journal, RoundTrip) {
  TempDir dir("journal-test");
  const std::string path = JournalPathFor(dir.path(), 0, 1);
  JournalHeader header;
  header.shard_index = 0;
  header.shard_count = 1;
  header.engine = 1;
  header.use_fastpath = 0;
  header.use_dedup = 0;
  header.solver_step_budget = 42;
  header.thread_count = 2;
  header.total_intervals = 10;
  header.total_log_bytes = 1234;
  auto writer = JournalWriter::Create(path, header);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  JournalBucketRecord rec;
  rec.ordinal = 7;
  rec.flags = JournalBucketRecord::kMemoryCapped;
  rec.trees_built = 3;
  rec.tree_nodes = 99;
  rec.solver_calls = 12;
  rec.fastpath_hits = 8;
  rec.dedup_hits = 6;
  rec.dedup_bytes_saved = 2048;
  rec.duplicates_suppressed = 5;
  rec.solver_bailouts = 2;
  rec.tree_bytes = 4096;
  RaceReport r1;
  r1.pc1 = 11;
  r1.pc2 = 22;
  r1.address = 0x1000;
  r1.write1 = true;
  RaceReport r2;
  r2.pc1 = 33;
  r2.pc2 = 44;
  r2.address = 0x2000;
  r2.write1 = r2.write2 = true;
  r2.confidence = RaceConfidence::kUnproven;
  rec.races = {r1, r2};
  ASSERT_TRUE(writer.value().AppendBucket(rec).ok());

  auto loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().header == header);
  EXPECT_EQ(loaded.value().records_dropped, 0u);
  ASSERT_EQ(loaded.value().records.size(), 1u);
  const JournalBucketRecord& got = loaded.value().records[0];
  EXPECT_EQ(got.ordinal, 7u);
  EXPECT_EQ(got.flags, JournalBucketRecord::kMemoryCapped);
  EXPECT_EQ(got.trees_built, 3u);
  EXPECT_EQ(got.tree_nodes, 99u);
  EXPECT_EQ(got.solver_calls, 12u);
  EXPECT_EQ(got.fastpath_hits, 8u);
  EXPECT_EQ(got.dedup_hits, 6u);
  EXPECT_EQ(got.dedup_bytes_saved, 2048u);
  EXPECT_EQ(got.duplicates_suppressed, 5u);
  EXPECT_EQ(got.solver_bailouts, 2u);
  EXPECT_EQ(got.tree_bytes, 4096u);
  ASSERT_EQ(got.races.size(), 2u);
  EXPECT_EQ(got.races[0].pc1, 11u);
  EXPECT_EQ(got.races[0].confidence, RaceConfidence::kProven);
  EXPECT_EQ(got.races[1].pc2, 44u);
  EXPECT_EQ(got.races[1].confidence, RaceConfidence::kUnproven);
}

TEST(Journal, HeaderBindsSalvagePolicy) {
  // v3 headers carry the store's salvage policy: a salvage run's buckets
  // skip damaged segments with accounting, so they must never replay into
  // a strict analysis (or vice versa). The byte round-trips, and the two
  // policies yield headers that compare unequal even when every other
  // field matches.
  TempDir dir("journal-salvage");
  const std::string path = dir.path() + "/s.journal";
  JournalHeader strict;
  strict.thread_count = 2;
  strict.total_intervals = 8;
  strict.total_log_bytes = 512;
  JournalHeader salvaged = strict;
  salvaged.salvage = 1;
  EXPECT_FALSE(strict == salvaged);

  {
    auto writer = JournalWriter::Create(path, salvaged);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  }
  auto loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().header.salvage, 1);
  EXPECT_TRUE(loaded.value().header == salvaged);
  EXPECT_FALSE(loaded.value().header == strict);
}

TEST(Journal, HeaderBindsDedupKnob) {
  // The header carries use_dedup: race output is byte-identical either way,
  // but the journaled stat deltas are not, so replaying a dedup run's
  // buckets into a --no-dedup analysis (or the reverse) must be refused.
  TempDir dir("journal-dedup");
  JournalHeader base;
  base.thread_count = 2;
  base.total_intervals = 8;
  base.total_log_bytes = 512;
  JournalHeader no_dedup = base;
  no_dedup.use_dedup = 0;
  EXPECT_FALSE(base == no_dedup);

  const std::string path = dir.path() + "/k.journal";
  {
    auto writer = JournalWriter::Create(path, no_dedup);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  }
  auto loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().header.use_dedup, 0);
  EXPECT_TRUE(loaded.value().header == no_dedup);
  EXPECT_FALSE(loaded.value().header == base);
}

TEST(Journal, RefusesVersion4Header) {
  // v5 dropped three header bytes; a v4 journal must be refused by version,
  // never parsed with its knob bytes shifted into the wrong fields.
  TempDir dir("journal-v4");
  const std::string path = dir.path() + "/v4.journal";
  JournalHeader header;
  header.thread_count = 2;
  header.total_intervals = 8;
  header.total_log_bytes = 512;
  ASSERT_TRUE(WriteFile(path, oracle::JournalV4File(header)).ok());
  const auto loaded = LoadJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kUnsupported);
  EXPECT_NE(loaded.status().ToString().find("journal version 4"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(Analysis, ResumeRefusesCrossDedupJournal) {
  // A journal written with dedup on must not resume a --no-dedup analysis:
  // the replayed stat deltas would be the wrong mode's.
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  AnalysisConfig journaled;
  journaled.journal_path = t.dir.path() + "/mode.journal";
  ASSERT_TRUE(t.Analyze(journaled).status.ok());

  AnalysisConfig flipped = journaled;
  flipped.resume = true;
  flipped.use_dedup = false;
  EXPECT_FALSE(t.Analyze(flipped).status.ok());

  // Matching modes resume fine.
  AnalysisConfig same = journaled;
  same.resume = true;
  EXPECT_TRUE(t.Analyze(same).status.ok());
}

TEST(Analysis, PipelineAblationsProduceIdenticalRaces) {
  // Dedup, the fast paths and the checker thread count are pure
  // optimizations: every combination must find exactly the five races the
  // trace holds, in the same order, as the all-off serial run.
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  AnalysisConfig plain;
  plain.use_dedup = false;
  plain.use_fastpath = false;
  const AnalysisResult base = t.Analyze(plain);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.races.size(), 5u);

  for (int mask = 1; mask < 8; mask++) {
    AnalysisConfig config;
    config.use_dedup = mask & 1;
    config.use_fastpath = mask & 2;
    config.threads = (mask & 4) ? 3 : 1;
    const AnalysisResult got = t.Analyze(config);
    ASSERT_TRUE(got.status.ok()) << "mask " << mask;
    ExpectSameReports(got.races, base.races);
  }
}

TEST(Analysis, DedupSharesFrozenSetsAcrossIdenticalGroups) {
  // Many threads per region executing the SAME canonical event stream (same
  // pcs, same addresses): their groups fingerprint identically, so dedup
  // freezes one set per distinct stream and memoizes the repeated pair
  // checks - visible in dedup_hits/dedup_bytes_saved, invisible in races.
  SyntheticTrace t;
  constexpr uint32_t kThreads = 4;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    trace::IntervalMeta m = Meta(tid, kThreads);
    m.label = osl::Label({osl::Pair{0, 1, 0}, osl::Pair{tid, kThreads, 0}});
    std::vector<trace::RawEvent> events;
    // 200 distinct-pc writes defeat summarization so the frozen sets are
    // big enough to clear the sweep cutover (and worth sharing).
    for (uint64_t i = 0; i < 200; i++) {
      events.push_back(trace::RawEvent::Access(
          0x1000 + i * 8, 8, 1, static_cast<uint32_t>(100 + i)));
    }
    t.WriteThread(tid, {{m, events}});
  }

  AnalysisConfig with_dedup;
  const AnalysisResult deduped = t.Analyze(with_dedup);
  ASSERT_TRUE(deduped.status.ok());
  // 4 identical groups -> 1 leader + 3 frozen-sharing followers, and
  // C(4,2)=6 concurrent pairs -> 1 checked + 5 memoized: 8 hits total.
  EXPECT_EQ(deduped.stats.dedup_hits, 8u);
  EXPECT_GT(deduped.stats.dedup_bytes_saved, 0u);

  AnalysisConfig no_dedup;
  no_dedup.use_dedup = false;
  const AnalysisResult plain = t.Analyze(no_dedup);
  ASSERT_TRUE(plain.status.ok());
  EXPECT_EQ(plain.stats.dedup_hits, 0u);
  EXPECT_EQ(plain.stats.dedup_bytes_saved, 0u);
  ExpectSameReports(deduped.races, plain.races);
}

TEST(Journal, TornTailDroppedAndContinueRepairs) {
  TempDir dir("journal-torn");
  const std::string path = dir.path() + "/t.journal";
  auto writer = JournalWriter::Create(path, JournalHeader{});
  ASSERT_TRUE(writer.ok());
  JournalBucketRecord rec;
  rec.ordinal = 0;
  rec.tree_nodes = 5;
  ASSERT_TRUE(writer.value().AppendBucket(rec).ok());
  rec.ordinal = 1;
  ASSERT_TRUE(writer.value().AppendBucket(rec).ok());

  // Tear the last record: a mid-append SIGKILL leaves a short tail whose
  // frame fails validation. Everything before it must survive.
  const auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, size.value() - 1).ok());
  auto loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().records[0].ordinal, 0u);
  EXPECT_EQ(loaded.value().records_dropped, 1u);

  // Continue trims the torn tail; new appends land on a clean boundary.
  auto cont = JournalWriter::Continue(path, loaded.value().valid_bytes);
  ASSERT_TRUE(cont.ok());
  rec.ordinal = 2;
  ASSERT_TRUE(cont.value().AppendBucket(rec).ok());
  auto reloaded = LoadJournal(path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded.value().records.size(), 2u);
  EXPECT_EQ(reloaded.value().records[1].ordinal, 2u);
  EXPECT_EQ(reloaded.value().records_dropped, 0u);

  // Trailing garbage (crash wrote junk) is likewise dropped, not fatal.
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("XYZ", f);
    std::fclose(f);
  }
  auto garbled = LoadJournal(path);
  ASSERT_TRUE(garbled.ok());
  EXPECT_EQ(garbled.value().records.size(), 2u);
  EXPECT_EQ(garbled.value().records_dropped, 1u);
}

TEST(Analysis, ResumeEqualsCleanRun) {
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  const AnalysisResult clean = t.Analyze();
  ASSERT_TRUE(clean.status.ok());
  ASSERT_EQ(clean.races.size(), 5u);

  // Journal a full run, then tear its last record to simulate a SIGKILL
  // after four of five buckets checkpointed.
  AnalysisConfig journaled;
  journaled.journal_path = t.dir.path() + "/resume.journal";
  const AnalysisResult full = t.Analyze(journaled);
  ASSERT_TRUE(full.status.ok());
  ExpectSameReports(full.races, clean.races);
  const auto size = FileSize(journaled.journal_path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(journaled.journal_path, size.value() - 1).ok());

  AnalysisConfig resume = journaled;
  resume.resume = true;
  const AnalysisResult resumed = t.Analyze(resume);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  ExpectSameReports(resumed.races, clean.races);
  EXPECT_EQ(resumed.stats.buckets_resumed, 4u);
  EXPECT_EQ(resumed.stats.journal_records_dropped, 1u);
  // The resumed run's result-bearing stats equal the clean run's: replay
  // and re-analysis fold through the same accounting.
  EXPECT_EQ(resumed.stats.tree_nodes, clean.stats.tree_nodes);
  EXPECT_EQ(resumed.stats.raw_events, clean.stats.raw_events);
  EXPECT_EQ(resumed.stats.label_pairs_checked, clean.stats.label_pairs_checked);
  EXPECT_EQ(resumed.stats.concurrent_pairs, clean.stats.concurrent_pairs);
  EXPECT_EQ(resumed.stats.solver_calls, clean.stats.solver_calls);
  EXPECT_EQ(resumed.stats.peak_tree_bytes, clean.stats.peak_tree_bytes);

  // Resuming the repaired journal again replays everything.
  const AnalysisResult all_replayed = t.Analyze(resume);
  ASSERT_TRUE(all_replayed.status.ok());
  ExpectSameReports(all_replayed.races, clean.races);
  EXPECT_EQ(all_replayed.stats.buckets_resumed, 5u);
}

TEST(Analysis, ResumeComposesWithSharding) {
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  for (uint32_t shard = 0; shard < 2; shard++) {
    AnalysisConfig base;
    base.shard_index = shard;
    base.shard_count = 2;
    const AnalysisResult clean = t.Analyze(base);
    ASSERT_TRUE(clean.status.ok());

    AnalysisConfig journaled = base;
    journaled.journal_path = JournalPathFor(t.dir.path(), shard, 2);
    ASSERT_TRUE(t.Analyze(journaled).status.ok());
    const auto size = FileSize(journaled.journal_path);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(TruncateFile(journaled.journal_path, size.value() - 1).ok());

    AnalysisConfig resume = journaled;
    resume.resume = true;
    const AnalysisResult resumed = t.Analyze(resume);
    ASSERT_TRUE(resumed.status.ok());
    ExpectSameReports(resumed.races, clean.races);
    EXPECT_GT(resumed.stats.buckets_resumed, 0u);
  }
}

TEST(Analysis, ResumeRefusesMismatchedJournal) {
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  AnalysisConfig journaled;
  journaled.journal_path = t.dir.path() + "/mismatch.journal";
  ASSERT_TRUE(t.Analyze(journaled).status.ok());

  // Same journal, different engine: replaying it would fake the other
  // engine's results, so resume must refuse.
  AnalysisConfig resume = journaled;
  resume.resume = true;
  resume.engine = ilp::OverlapEngine::kIlp;
  const AnalysisResult result = t.Analyze(resume);
  EXPECT_FALSE(result.status.ok());

  // Different shard key is refused too.
  AnalysisConfig wrong_shard = journaled;
  wrong_shard.resume = true;
  wrong_shard.shard_index = 1;
  wrong_shard.shard_count = 2;
  EXPECT_FALSE(t.Analyze(wrong_shard).status.ok());
}

TEST(Analysis, MemoryCapAbandonsBucketHonestly) {
  SyntheticTrace t;
  WriteFiveRegionTrace(t, /*events_per_segment=*/8);
  AnalysisConfig config;
  config.max_tree_bytes = 1;  // every bucket's trees exceed one byte
  const AnalysisResult result = t.Analyze(config);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.races.size(), 0u);  // no compare on half-built trees
  EXPECT_EQ(result.stats.buckets_memory_capped, 5u);
  EXPECT_GT(result.stats.peak_tree_bytes, 0u);

  // A generous cap changes nothing.
  AnalysisConfig roomy;
  roomy.max_tree_bytes = 64ull * 1024 * 1024;
  const AnalysisResult ok = t.Analyze(roomy);
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.races.size(), 5u);
  EXPECT_EQ(ok.stats.buckets_memory_capped, 0u);
}

TEST(Analysis, DeadlineWatchdogAbortsOnlyThatBucket) {
  SyntheticTrace t;
  // Region 0: three heavyweight groups whose build alone takes far longer
  // than the deadline. Every event walks DOWN one element, so each one
  // starts a new node (descending accesses never extend a run): the build
  // costs a node arena slot, two index entries and a spill entry per event,
  // however cheap the summarizer's fold of a run continuation is. Run to
  // completion it takes about 1.3s on one 2.0 GHz Xeon core, over 25x the
  // 50ms deadline. The events come in 80 segments per group because the
  // builder polls the watchdog between segments: the breached build stops
  // within a segment of the deadline instead of finishing. Region 1: a
  // two-event race that finishes far inside the deadline.
  constexpr uint64_t kSegments = 80;
  constexpr uint64_t kEventsPerSegment = 10000;
  for (uint32_t tid = 0; tid < 3; tid++) {
    trace::WriterConfig wc;
    wc.log_path = t.dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = t.dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &t.flusher;
    wc.format = t.format;
    trace::ThreadTraceWriter writer(tid, wc);
    trace::IntervalMeta heavy = Meta(tid, 3);
    heavy.label = osl::Label({osl::Pair{0, 1, 0}, osl::Pair{tid, 3, 0}});
    uint64_t addr = 0x10000 + kSegments * kEventsPerSegment * 8;
    for (uint64_t s = 0; s < kSegments; s++) {
      writer.BeginSegment(heavy);
      for (uint64_t i = 0; i < kEventsPerSegment; i++) {
        addr -= 8;
        writer.Append(trace::RawEvent::Access(addr, 8, 1, 10 + tid));
      }
      writer.EndSegment();
    }
    if (tid < 2) {
      trace::IntervalMeta light = Meta(tid, 3);
      light.region = 1;
      light.label = osl::Label({osl::Pair{1, 1, 0}, osl::Pair{tid, 3, 0}});
      writer.BeginSegment(light);
      writer.Append(trace::RawEvent::Access(0x9000, 8, 1, 50 + tid));
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  AnalysisConfig config;
  // The heavy bucket's build takes hundreds of milliseconds, so any
  // deadline well below that breaches it reliably; the light bucket is two
  // events and finishes in microseconds. 50ms leaves the light bucket real
  // headroom on a loaded CI machine (parallel ctest) without letting the
  // heavy bucket slip under. Sanitizer builds run the light bucket an
  // order of magnitude slower still; widen the deadline further there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  config.bucket_deadline_ms = 200;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  config.bucket_deadline_ms = 200;
#else
  config.bucket_deadline_ms = 50;
#endif
#else
  config.bucket_deadline_ms = 50;
#endif
  const AnalysisResult result = t.Analyze(config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.buckets_deadline_exceeded, 1u);
  // The light bucket's race survives: the governor aborted ONLY the
  // runaway bucket.
  EXPECT_TRUE(result.races.Contains(50, 51));
}

TEST(Analysis, SolverBudgetYieldsUnprovenNeverDropped) {
  SyntheticTrace t;
  // Interleaved strides (no true overlap) plus one genuine collision - the
  // shape where an exhausted solver must say "unproven", not "no race".
  std::vector<trace::RawEvent> e0, e1;
  for (uint64_t i = 0; i < 40; i++) {
    e0.push_back(trace::RawEvent::Access(0x1000 + i * 16, 8, 1, 11));
    e1.push_back(trace::RawEvent::Access(0x1008 + i * 16, 8, 1, 22));
  }
  e1.push_back(trace::RawEvent::Access(0x1000, 4, 0, 33));
  t.WriteThread(0, {{Meta(0, 2), e0}});
  t.WriteThread(1, {{Meta(1, 2), e1}});

  const AnalysisResult unlimited = t.Analyze();
  ASSERT_TRUE(unlimited.status.ok());
  EXPECT_EQ(unlimited.stats.races_unproven, 0u);

  AnalysisConfig starved;
  starved.solver_step_budget = 1;
  // The closed-form fast path would decide these strided pairs exactly
  // without spending solver steps; ablate it so the budget governor is
  // actually exercised.
  starved.use_fastpath = false;
  const AnalysisResult budgeted = t.Analyze(starved);
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_GT(budgeted.stats.solver_bailouts, 0u);
  EXPECT_GT(budgeted.stats.races_unproven, 0u);
  // Soundness: every race the exact run proves is still reported (possibly
  // as unproven) by the starved run - bail-out may over-report, never drop.
  for (const RaceReport& r : unlimited.races.reports()) {
    EXPECT_TRUE(budgeted.races.Contains(r.pc1, r.pc2))
        << "race " << r.pc1 << "/" << r.pc2 << " dropped under budget";
  }

  // With the fast path ON, the same starved budget never bails: every pair
  // in this workload fits a closed form, which is exact at zero step cost.
  AnalysisConfig starved_fast;
  starved_fast.solver_step_budget = 1;
  const AnalysisResult fast = t.Analyze(starved_fast);
  ASSERT_TRUE(fast.status.ok());
  EXPECT_EQ(fast.stats.solver_bailouts, 0u);
  EXPECT_EQ(fast.stats.races_unproven, 0u);
  EXPECT_GT(fast.stats.fastpath_hits, 0u);
  EXPECT_EQ(fast.races.size(), unlimited.races.size());
}

TEST(Analysis, PeakTreeBytesNamesTheBucket) {
  SyntheticTrace t;
  std::vector<std::pair<trace::IntervalMeta, std::vector<trace::RawEvent>>> segs;
  for (uint32_t region = 0; region < 4; region++) {
    trace::IntervalMeta m = Meta(0, 2);
    m.region = region;
    m.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{0, 2, 0}});
    std::vector<trace::RawEvent> events;
    const uint64_t count = region == 2 ? 512 : 1;  // region 2 dominates
    for (uint64_t i = 0; i < count; i++) {
      // Distinct pcs defeat strided summarization, so region 2's tree
      // really holds ~512 nodes instead of one coalesced interval.
      events.push_back(trace::RawEvent::Access(
          0x1000 + i * 64, 8, 1, static_cast<uint32_t>(11 + i)));
    }
    segs.push_back({m, events});
  }
  t.WriteThread(0, segs);
  const AnalysisResult result = t.Analyze();
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.peak_tree_bytes, 0u);
  EXPECT_EQ(result.stats.peak_tree_bucket, 2u);
}

TEST(CheckFrozenPair, SolverBudgetReportsUnproven) {
  // Fig. 4 interleaved strides: truly disjoint, but proving it needs more
  // than one solver step - a one-step budget must yield an UNPROVEN report.
  IntervalTree a, b;
  a.AddInterval({10, 8, 5, 4}, Key(1, itree::kWrite, 4));
  b.AddInterval({14, 8, 5, 4}, Key(2, itree::kWrite, 4));
  MutexSetTable mutexes;
  RaceReportSet races;
  CheckStats stats;
  CheckLimits limits;
  limits.solver_step_budget = 1;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { races.Add(r); }, &stats, limits);
  EXPECT_EQ(stats.solver_bailouts, 1u);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races.reports()[0].confidence, RaceConfidence::kUnproven);
}

TEST(RaceReportSetTest, ProvenUpgradesUnprovenInPlace) {
  RaceReportSet set;
  RaceReport unproven;
  unproven.pc1 = 1;
  unproven.pc2 = 2;
  unproven.confidence = RaceConfidence::kUnproven;
  EXPECT_EQ(set.AddReport(unproven), RaceReportSet::AddOutcome::kNew);

  RaceReport proven = unproven;
  proven.confidence = RaceConfidence::kProven;
  proven.address = 0x1234;
  EXPECT_EQ(set.AddReport(proven), RaceReportSet::AddOutcome::kUpgraded);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.reports()[0].confidence, RaceConfidence::kProven);
  EXPECT_EQ(set.reports()[0].address, 0x1234u);
  EXPECT_EQ(set.unproven_count(), 0u);

  // Once proven, a later unproven sighting is a duplicate, not a downgrade.
  EXPECT_EQ(set.AddReport(unproven), RaceReportSet::AddOutcome::kDuplicate);
  EXPECT_EQ(set.reports()[0].confidence, RaceConfidence::kProven);
}

TEST(TraceStoreTest, OpenDirFindsAllThreads) {
  SyntheticTrace t;
  t.WriteThread(0, {{Meta(0, 3), {trace::RawEvent::Access(1, 1, 0, 1)}}});
  t.WriteThread(1, {{Meta(1, 3), {trace::RawEvent::Access(2, 1, 0, 2)}}});
  t.WriteThread(2, {{Meta(2, 3), {trace::RawEvent::Access(3, 1, 0, 3)}}});
  auto store = TraceStore::OpenDir(t.dir.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().thread_count(), 3u);
  EXPECT_EQ(store.value().TotalIntervals(), 3u);
}

TEST(TraceStoreTest, MissingDirErrors) {
  EXPECT_FALSE(TraceStore::OpenDir("/nonexistent-sword-dir").ok());
}

// ---------------------------------------------------------------------------
// CheckFrozenPair against the brute-force reference (tests/oracle): the exact
// report SEQUENCE every-pair enumeration yields, whichever strategy (sweep or
// gallop) the checker picks.

std::vector<RaceReport> CollectFrozen(const IntervalTree& a,
                                      const IntervalTree& b,
                                      const MutexSetTable& mutexes,
                                      CheckStats* stats = nullptr,
                                      const CheckLimits& limits = {}) {
  std::vector<RaceReport> out;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { out.push_back(r); }, stats, limits);
  return out;
}

std::vector<RaceReport> CollectBruteForce(
    const IntervalTree& a, const IntervalTree& b, const MutexSetTable& mutexes,
    oracle::BruteForceStats* stats = nullptr) {
  return oracle::BruteForceRaces(FreezeTree(a), FreezeTree(b), mutexes,
                                 ilp::OverlapEngine::kDiophantine,
                                 /*solver_step_budget=*/0, stats);
}

void ExpectSameReports(const std::vector<RaceReport>& x,
                       const std::vector<RaceReport>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); i++) {
    EXPECT_EQ(x[i].pc1, y[i].pc1) << i;
    EXPECT_EQ(x[i].pc2, y[i].pc2) << i;
    EXPECT_EQ(x[i].address, y[i].address) << i;
    EXPECT_EQ(x[i].size1, y[i].size1) << i;
    EXPECT_EQ(x[i].size2, y[i].size2) << i;
    EXPECT_EQ(x[i].write1, y[i].write1) << i;
    EXPECT_EQ(x[i].write2, y[i].write2) << i;
    EXPECT_EQ(x[i].confidence, y[i].confidence) << i;
  }
}

/// Reports AND counters agree with the reference; the checker runs with the
/// fast paths off (CheckLimits' default), so every decision is a solver call.
void ExpectMatchesBruteForce(const IntervalTree& a, const IntervalTree& b,
                             const MutexSetTable& mutexes) {
  CheckStats got;
  oracle::BruteForceStats want;
  const auto reports = CollectFrozen(a, b, mutexes, &got);
  ExpectSameReports(reports, CollectBruteForce(a, b, mutexes, &want));
  EXPECT_EQ(got.node_pairs_ranged, want.node_pairs_ranged);
  EXPECT_EQ(got.solver_calls, want.decisions);
  EXPECT_EQ(got.fastpath_hits, 0u);
  EXPECT_EQ(got.races_found, reports.size());
  EXPECT_EQ(got.duplicates_suppressed, want.duplicates_suppressed);
}

TEST(CheckFrozenPair, SweepMatchesBruteForce) {
  // Comparable sizes => the sweep path.
  MutexSetTable mutexes;
  IntervalTree a, b;
  for (uint32_t i = 0; i < 30; i++) {
    a.AddInterval({1000 + i * 40, 8, 4, 8}, Key(1 + i, itree::kWrite));
    b.AddInterval({1004 + i * 36, 12, 4, 4}, Key(100 + i, itree::kRead, 4));
  }
  EXPECT_GT(CollectFrozen(a, b, mutexes).size(), 0u);
  ExpectMatchesBruteForce(a, b, mutexes);
}

TEST(CheckFrozenPair, GallopPathMatchesBruteForce) {
  // One side >= 8x smaller => the galloping per-node path.
  MutexSetTable mutexes;
  IntervalTree small, big;
  small.AddInterval({5000, 16, 8, 8}, Key(1, itree::kWrite));
  small.AddInterval({9000, 0, 1, 4}, Key(2, itree::kWrite, 4));
  for (uint32_t i = 0; i < 64; i++) {
    big.AddInterval({4000 + i * 80, 8, 6, 4}, Key(100 + i, itree::kRead, 4));
  }
  EXPECT_GT(CollectFrozen(small, big, mutexes).size(), 0u);
  ExpectMatchesBruteForce(small, big, mutexes);
  // Symmetric argument order must agree too (outer/inner selection).
  ExpectMatchesBruteForce(big, small, mutexes);
}

TEST(CheckFrozenPair, FastPathMatchesEngineDecisions) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  for (uint32_t i = 0; i < 20; i++) {
    a.AddInterval({1000 + i * 64, 8, 8, 8}, Key(1 + i, itree::kWrite));
    b.AddInterval({1004 + i * 64, 8, 8, 4}, Key(50 + i, itree::kRead, 4));
  }
  CheckLimits fast;
  fast.use_fastpath = true;
  CheckStats s_fast, s_engine;
  const auto with_fast = CollectFrozen(a, b, mutexes, &s_fast, fast);
  const auto engine_only = CollectFrozen(a, b, mutexes, &s_engine);
  ExpectSameReports(engine_only, with_fast);
  EXPECT_GT(s_fast.fastpath_hits, 0u);
  // Every decision either took the fast path or the engine; totals match.
  EXPECT_EQ(s_fast.fastpath_hits + s_fast.solver_calls, s_engine.solver_calls);
}

TEST(CheckFrozenPair, DuplicateReportsSuppressedAndCounted) {
  // Two b-nodes identical except for (non-protecting) mutex sets produce two
  // byte-identical reports against the same a-node; exactly one must be
  // emitted, and the suppression must be counted.
  MutexSetTable mutexes;
  IntervalTree a, b;
  a.AddInterval({1000, 0, 1, 8}, Key(1, itree::kWrite));
  b.AddInterval({1000, 0, 1, 8}, Key(2, itree::kRead, 8, mutexes.Intern({3})));
  b.AddInterval({1000, 0, 1, 8}, Key(2, itree::kRead, 8, mutexes.Intern({4})));
  CheckStats stats;
  const auto reports = CollectFrozen(a, b, mutexes, &stats);
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_EQ(stats.races_found, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.node_pairs_ranged, 2u);
  ExpectMatchesBruteForce(a, b, mutexes);
}

TEST(CheckFrozenPair, CancelFlagStopsComparison) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  for (uint32_t i = 0; i < 50; i++) {
    a.AddInterval({1000 + i * 8, 0, 1, 8}, Key(1 + i, itree::kWrite));
    b.AddInterval({1000 + i * 8, 0, 1, 8}, Key(100 + i, itree::kWrite));
  }
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  std::atomic<bool> cancel{true};  // cancelled before the first pair
  CheckLimits limits;
  limits.cancel = &cancel;
  CheckStats stats;
  size_t emitted = 0;
  CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport&) { emitted++; }, &stats, limits);
  EXPECT_EQ(stats.node_pairs_ranged, 0u);
  EXPECT_EQ(emitted, 0u);
}

/// Two all-read sides of `n` nodes each in which every node overlaps every
/// other: n*n read-read pairs, all of which the sweep only counts.
void OverlappingReads(uint32_t n, IntervalTree* a, IntervalTree* b) {
  for (uint32_t i = 0; i < n; i++) {
    a->AddInterval({1000 + i * 8, 8, 4 * n, 8}, Key(1 + i, itree::kRead));
    b->AddInterval({1004 + i * 8, 8, 4 * n, 8}, Key(1 + n + i, itree::kRead));
  }
}

TEST(CheckFrozenPair, ReadReadPairsAreCountedNotDecided) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  OverlappingReads(200, &a, &b);
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  CheckStats stats;
  size_t emitted = 0;
  CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport&) { emitted++; }, &stats);
  EXPECT_EQ(stats.node_pairs_ranged, 200u * 200u);
  EXPECT_EQ(stats.solver_calls + stats.fastpath_hits, 0u);
  EXPECT_EQ(emitted, 0u);
}

TEST(CheckFrozenPair, CancelFlagStopsReadOnlyComparison) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  OverlappingReads(500, &a, &b);
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  std::atomic<bool> cancel{true};  // cancelled before the first start event
  CheckLimits limits;
  limits.cancel = &cancel;
  CheckStats stats;
  size_t emitted = 0;
  CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport&) { emitted++; }, &stats, limits);
  EXPECT_EQ(stats.node_pairs_ranged, 0u);
  EXPECT_EQ(emitted, 0u);
}

TEST(CheckFrozenPair, BreachFromWritePairCallbackStopsSweep) {
  // A write pair at the front, then a long read-only stretch. The breach is
  // raised from the first write-pair callback exactly as CheckFrozenPair's
  // own callback would see it; the sweep must stop at its next start event
  // and report itself incomplete, which is what keeps CheckFrozenPair from
  // adding the partial read-read count.
  IntervalTree a, b;
  a.AddInterval({0, 0, 1, 8}, Key(1, itree::kWrite));
  b.AddInterval({0, 0, 1, 8}, Key(2, itree::kWrite));
  for (uint32_t i = 0; i < 100; i++) {
    a.AddInterval({64 + i * 8, 8, 400, 8}, Key(10 + i, itree::kRead));
    b.AddInterval({68 + i * 8, 8, 400, 8}, Key(200 + i, itree::kRead));
  }
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  std::atomic<bool> cancel{false};
  size_t emitted = 0;
  const itree::SweepResult sweep = itree::SweepMatchingPairs(
      fa, fb,
      [&](uint32_t, uint32_t) {
        if (cancel.load()) return false;
        emitted++;
        cancel.store(true);
        return true;
      },
      &cancel);
  EXPECT_FALSE(sweep.completed);
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(sweep.read_read_pairs, 0u);
}

TEST(CheckFrozenPair, BreachDuringReadOnlyStretchDropsPartialCount) {
  // One write pair, then n*n read-read pairs - seconds of counting if the
  // breach were ignored. A watchdog thread raises the breach as the
  // comparison starts; whenever it lands, at most the write pair may have
  // been decided and no partial read-read count may be added.
  MutexSetTable mutexes;
  IntervalTree a, b;
  a.AddInterval({0, 0, 1, 8}, Key(100000, itree::kWrite));
  b.AddInterval({0, 0, 1, 8}, Key(100001, itree::kWrite));
  OverlappingReads(40000, &a, &b);
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};
  std::thread watchdog([&] {
    while (!started.load()) std::this_thread::yield();
    cancel.store(true);
  });
  CheckLimits limits;
  limits.cancel = &cancel;
  CheckStats stats;
  started.store(true);
  CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                  [](const RaceReport&) {}, &stats, limits);
  watchdog.join();
  EXPECT_LE(stats.node_pairs_ranged, 1u);
}

// ---------------------------------------------------------------------------
// The persistent work-stealing pool.

TEST(CheckerPool, ExecutesEveryIndexExactlyOnce) {
  CheckerPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr size_t kCount = 1013;  // not a multiple of any block size
  std::vector<std::atomic<uint32_t>> hits(kCount);
  pool.ParallelFor(kCount, 7, [&](size_t i, uint32_t worker) {
    ASSERT_LT(worker, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; i++) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
  EXPECT_EQ(pool.blocks_executed(), (kCount + 6) / 7);
}

TEST(CheckerPool, ReusableAcrossCallsAndEmptyCalls) {
  CheckerPool pool(3);
  for (int round = 0; round < 20; round++) {
    const size_t count = static_cast<size_t>(round * 13 % 37);
    std::atomic<size_t> sum{0};
    pool.ParallelFor(count, 4, [&](size_t i, uint32_t) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2) << "round " << round;
  }
}

TEST(CheckerPool, SingleWorkerRunsOnCaller) {
  CheckerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<uint32_t> workers_seen;
  pool.ParallelFor(10, 3, [&](size_t, uint32_t worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    workers_seen.push_back(worker);
  });
  ASSERT_EQ(workers_seen.size(), 10u);
  for (uint32_t w : workers_seen) EXPECT_EQ(w, 0u);
}

TEST(CheckerPool, UnevenWorkStillCompletes) {
  // One pathological block plus many trivial ones: stealing (or the caller
  // draining) must finish them all regardless of the initial deal.
  CheckerPool pool(4);
  std::atomic<size_t> done{0};
  pool.ParallelFor(64, 1, [&](size_t i, uint32_t) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64u);
  EXPECT_EQ(pool.blocks_executed(), 64u);
}

// ---------------------------------------------------------------------------
// End-to-end ablation equivalence: the fast-path optimization must not change
// the analyzer's output in any way - same races, same order, same
// confidences - serial or parallel.

TEST(Analysis, FastpathAblationIsByteIdentical) {
  SyntheticTrace t;
  std::vector<trace::RawEvent> e0, e1;
  for (uint64_t i = 0; i < 30; i++) {
    e0.push_back(trace::RawEvent::Access(0x1000 + i * 16, 8, 1, 11));     // strided writes
    e1.push_back(trace::RawEvent::Access(0x1008 + i * 16, 8, 1, 22));     // interleaved (no race)
    e1.push_back(trace::RawEvent::Access(0x1000 + i * 16, 4, 0, 33));     // colliding reads
    e1.push_back(trace::RawEvent::Access(0x9000 + i * 24, 8, 1, 44));     // disjoint writes
  }
  e0.push_back(trace::RawEvent::Access(0x9000, 8, 0, 55));  // one read hits t1's run
  t.WriteThread(0, {{Meta(0, 2), e0}});
  t.WriteThread(1, {{Meta(1, 2), e1}});

  const AnalysisResult base = t.Analyze();
  ASSERT_TRUE(base.status.ok());
  ASSERT_GT(base.races.size(), 0u);
  EXPECT_GT(base.stats.fastpath_hits, 0u);

  AnalysisConfig engine_only;
  engine_only.use_fastpath = false;
  for (uint32_t threads : {1u, 3u}) {
    engine_only.threads = threads;
    const AnalysisResult alt = t.Analyze(engine_only);
    ASSERT_TRUE(alt.status.ok());
    ExpectSameReports(base.races.reports(), alt.races.reports());
    EXPECT_EQ(base.stats.node_pairs_ranged, alt.stats.node_pairs_ranged);
    EXPECT_EQ(base.stats.duplicates_suppressed, alt.stats.duplicates_suppressed);
    // With the fast path off, every decision goes to the engine.
    EXPECT_EQ(alt.stats.fastpath_hits, 0u);
    EXPECT_EQ(alt.stats.solver_calls,
              base.stats.solver_calls + base.stats.fastpath_hits);
  }
}

}  // namespace
}  // namespace sword::offline
