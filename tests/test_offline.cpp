// Tests for src/offline: trace loading, summary-pair race checking, the full
// analysis pipeline over hand-written traces, the analysis journal, and
// parallel-analysis determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/frame.h"
#include "offline/analysis.h"
#include "offline/checker_pool.h"
#include "offline/fingerprint.h"
#include "offline/journal.h"
#include "offline/racecheck.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "oracle/brute_force_check.h"
#include "oracle/interval_tree.h"
#include "oracle/journal_legacy.h"
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
                  [&](const RaceReport& r) { races.Add(r); }, &stats);
  EXPECT_EQ(races.size(), 1u);
  EXPECT_GT(stats.fastpath_hits, 0u);
}

TEST(CheckFrozenPair, CommonMutexProtects) {
  MutexSetTable mutexes;
  const auto lock_set = mutexes.Intern({7});
  IntervalTree a, b;
  a.AddInterval({1000, 0, 1, 8}, Key(1, itree::kWrite, 8, lock_set));
  b.AddInterval({1000, 0, 1, 8}, Key(2, itree::kWrite, 8, lock_set));
  RaceReportSet races;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
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
  uint64_t buffer_bytes = 0;               // writer buffer; 0 = the default

  /// Writes one thread's trace: a list of (meta, events) segments.
  void WriteThread(uint32_t tid,
                   const std::vector<std::pair<trace::IntervalMeta,
                                               std::vector<trace::RawEvent>>>& segs) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    wc.format = format;
    if (buffer_bytes > 0) wc.buffer_bytes = buffer_bytes;
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

TEST(SegmentFingerprint, FoldIsIndependentOfBlockBoundaries) {
  Rng rng(44);
  std::vector<trace::RawEvent> events;
  for (int i = 0; i < 2000; i++) {
    const uint32_t pc = static_cast<uint32_t>(rng.Below(16));
    switch (rng.Below(4)) {
      case 0:
        events.push_back(trace::RawEvent::MutexAcquire(static_cast<uint32_t>(rng.Below(4))));
        break;
      case 1:
        events.push_back(trace::RawEvent::Run(rng.Below(1 << 20), 1 + rng.Below(16),
                                              2 + rng.Below(40), 8, 1, pc));
        break;
      default:
        events.push_back(trace::RawEvent::Access(rng.Below(1 << 20), 8,
                                                 static_cast<uint8_t>(rng.Below(2)), pc));
    }
  }
  SegmentFingerprint whole, single;
  whole.MixBlock(events);
  for (const trace::RawEvent& e : events) single.MixBlock({&e, 1});
  EXPECT_EQ(whole, single);
  for (int cut = 0; cut < 20; cut++) {
    SegmentFingerprint blocks;
    for (size_t at = 0; at < events.size();) {
      const size_t n = std::min<size_t>(events.size() - at, rng.Below(300));
      blocks.MixBlock({events.data() + at, n});
      at += n;
    }
    EXPECT_EQ(blocks, whole) << "cut " << cut;
  }
  // Changing any one field of any one event changes the fingerprint.
  for (int trial = 0; trial < 200; trial++) {
    std::vector<trace::RawEvent> changed = events;
    trace::RawEvent& e = changed[rng.Below(changed.size())];
    switch (rng.Below(6)) {
      case 0: e.addr ^= 1ULL << rng.Below(64); break;
      case 1: e.pc ^= 1u << rng.Below(32); break;
      case 2: e.size ^= static_cast<uint8_t>(1u << rng.Below(8)); break;
      case 3: e.flags ^= static_cast<uint8_t>(1u << rng.Below(8)); break;
      case 4: e.stride ^= 1ULL << rng.Below(64); break;
      default: e.count ^= 1ULL << rng.Below(64); break;
    }
    if (e == events[static_cast<size_t>(&e - changed.data())]) continue;
    const bool run_field_of_non_run =
        e.kind != trace::EventKind::kAccessRun &&
        (e.stride != events[static_cast<size_t>(&e - changed.data())].stride ||
         e.count != events[static_cast<size_t>(&e - changed.data())].count);
    if (run_field_of_non_run) continue;  // stride/count only count for runs
    SegmentFingerprint fp;
    fp.MixBlock(changed);
    EXPECT_NE(fp, whole) << "trial " << trial;
  }
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

TEST(Analysis, InterleavedSlotsRaceOnlyWhereBytesMeet) {
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

  const AnalysisResult r = t.Analyze({});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.races.size(), 1u);
  EXPECT_TRUE(r.races.Contains(11, 33));
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
// Checkpoint/resume journal and resource governor.

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
  }
}

TEST(Journal, RoundTrip) {
  TempDir dir("journal-test");
  const std::string path = JournalPathFor(dir.path(), 0, 1);
  JournalHeader header;
  header.shard_index = 0;
  header.shard_count = 1;
  header.bucket_deadline_ms = 42;
  header.max_tree_bytes = 1 << 20;
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
  rec.fastpath_hits = 8;
  rec.dedup_hits = 6;
  rec.dedup_bytes_saved = 2048;
  rec.duplicates_suppressed = 5;
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
  EXPECT_EQ(got.fastpath_hits, 8u);
  EXPECT_EQ(got.dedup_hits, 6u);
  EXPECT_EQ(got.dedup_bytes_saved, 2048u);
  EXPECT_EQ(got.duplicates_suppressed, 5u);
  EXPECT_EQ(got.tree_bytes, 4096u);
  ASSERT_EQ(got.races.size(), 2u);
  EXPECT_EQ(got.races[0].pc1, 11u);
  EXPECT_TRUE(got.races[0].write1);
  EXPECT_FALSE(got.races[0].write2);
  EXPECT_EQ(got.races[1].pc2, 44u);
  EXPECT_TRUE(got.races[1].write2);
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

TEST(Journal, RefusesVersion4To7Headers) {
  // v5, v6 and v7 each dropped header bytes; an older journal must be
  // refused by version, never parsed with its knob bytes shifted into the
  // wrong fields. v7 has v8's layout but counted every group as a built
  // tree, so folding its records would mix two meanings of trees_built.
  TempDir dir("journal-old");
  JournalHeader header;
  header.thread_count = 2;
  header.total_intervals = 8;
  header.total_log_bytes = 512;
  const std::pair<int, Bytes> files[] = {{4, oracle::JournalV4File(header)},
                                         {5, oracle::JournalV5File(header)},
                                         {6, oracle::JournalV6File(header)},
                                         {7, oracle::JournalV7File(header)}};
  for (const auto& [version, file] : files) {
    const std::string path = dir.path() + "/v" + std::to_string(version) + ".journal";
    ASSERT_TRUE(WriteFile(path, file).ok());
    const auto loaded = LoadJournal(path);
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.status().code(), ErrorCode::kUnsupported) << version;
    EXPECT_NE(loaded.status().ToString().find("journal version " +
                                              std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// Fixed-seed fuzz target for the v8 journal reader - the one parser
// sword-offline --resume and sword-serve feed with files from disk. Seeds
// are the headers and bucket records the journal tests above write; mutants
// are bit flips, truncations and spliced varints, applied either to the raw
// file (the checksums then reject most of them) or to one record's payload
// re-framed with a valid checksum (so the field parsers see the damage).
// LoadJournal must either fail cleanly (Corrupt/Unsupported) or yield a
// journal that survives encode -> decode unchanged, compared through its
// encoding, which covers every field.

/// Writes `header` and `records` as a journal at `path`; returns its bytes.
Bytes EncodeJournal(const std::string& path, const JournalHeader& header,
                    const std::vector<JournalBucketRecord>& records) {
  auto writer = JournalWriter::Create(path, header);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  if (!writer.ok()) return {};
  for (const auto& rec : records) EXPECT_TRUE(writer.value().AppendBucket(rec).ok());
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : Bytes{};
}

struct JournalFrame {
  uint32_t magic = 0;
  Bytes payload;
};

std::vector<JournalFrame> SplitFrames(const Bytes& file) {
  std::vector<JournalFrame> frames;
  ByteReader r(file);
  while (!r.AtEnd()) {
    JournalFrame f;
    uint64_t size = 0, crc = 0;
    EXPECT_TRUE(r.GetU32(&f.magic).ok());
    EXPECT_TRUE(r.GetVarU64(&size).ok());
    EXPECT_TRUE(r.GetU64(&crc).ok());
    f.payload.assign(r.cursor(), r.cursor() + size);
    EXPECT_TRUE(r.Skip(static_cast<size_t>(size)).ok());
    frames.push_back(std::move(f));
  }
  return frames;
}

Bytes JoinFrames(const std::vector<JournalFrame>& frames) {
  ByteWriter w;
  for (const auto& f : frames) {
    w.PutU32(f.magic);
    w.PutVarU64(f.payload.size());
    w.PutU64(FrameChecksum(f.magic, f.payload.data(), f.payload.size()));
    w.PutRaw(f.payload.data(), f.payload.size());
  }
  return std::move(w.buffer());
}

void SpliceJournalVarint(Bytes& b, Rng& rng) {
  static constexpr uint64_t kValues[] = {0,          1,          127,
                                         128,        16383,      1ULL << 32,
                                         1ULL << 62, ~0ULL - 1,  ~0ULL};
  const uint64_t v = rng.Chance(0.5) ? kValues[rng.Below(std::size(kValues))]
                                     : rng.Next() >> rng.Below(64);
  ByteWriter w;
  w.PutVarU64(v);
  const Bytes& varint = w.buffer();
  const size_t at = rng.Below(b.size() + 1);
  if (rng.Chance(0.5)) {
    b.insert(b.begin() + static_cast<ptrdiff_t>(at), varint.begin(), varint.end());
  } else {
    for (size_t i = 0; i < varint.size(); i++) {
      if (at + i < b.size()) b[at + i] = varint[i];
      else b.push_back(varint[i]);
    }
  }
}

void MutateBytes(Bytes& b, Rng& rng) {
  const int ops = 1 + static_cast<int>(rng.Below(3));
  for (int op = 0; op < ops; op++) {
    switch (rng.Below(3)) {
      case 0:
        if (!b.empty()) b[rng.Below(b.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
        break;
      case 1:
        b.resize(rng.Below(b.size() + 1));
        break;
      default:
        SpliceJournalVarint(b, rng);
    }
  }
}

TEST(Journal, FuzzedJournalsFailCleanlyOrRoundTrip) {
  TempDir dir("journal-fuzz");
  // As in RoundTrip: every header field and stat delta set, two races.
  JournalHeader full;
  full.bucket_deadline_ms = 42;
  full.max_tree_bytes = 1 << 20;
  full.thread_count = 2;
  full.total_intervals = 10;
  full.total_log_bytes = 1234;
  JournalBucketRecord rec;
  rec.ordinal = 7;
  rec.flags = JournalBucketRecord::kMemoryCapped;
  rec.trees_built = 3;
  rec.tree_nodes = 99;
  rec.fastpath_hits = 8;
  rec.dedup_hits = 6;
  rec.dedup_bytes_saved = 2048;
  rec.duplicates_suppressed = 5;
  rec.tree_bytes = 4096;
  RaceReport r1;
  r1.pc1 = 11;
  r1.pc2 = 22;
  r1.address = 0x1000;
  r1.write1 = true;
  RaceReport r2 = r1;
  r2.pc1 = 33;
  r2.pc2 = 44;
  r2.write2 = true;
  rec.races = {r1, r2};
  // As in TornTailDroppedAndContinueRepairs: default header, two records.
  JournalBucketRecord plain;
  plain.tree_nodes = 5;
  JournalBucketRecord plain2 = plain;
  plain2.ordinal = 1;
  // As in HeaderBindsSalvagePolicy: a header-only salvage journal.
  JournalHeader salvaged;
  salvaged.salvage = 1;
  salvaged.thread_count = 2;
  salvaged.total_intervals = 8;
  salvaged.total_log_bytes = 512;

  const std::string seed_path = dir.path() + "/seed.journal";
  const std::vector<Bytes> seeds = {
      EncodeJournal(seed_path, full, {rec}),
      EncodeJournal(seed_path, JournalHeader{}, {plain, plain2}),
      EncodeJournal(seed_path, salvaged, {})};

  const std::string mutant_path = dir.path() + "/mutant.journal";
  const std::string first_path = dir.path() + "/first.journal";
  const std::string second_path = dir.path() + "/second.journal";
  Rng rng(20261019);
  uint64_t decoded = 0, rejected = 0, partial = 0;
  for (int trial = 0; trial < 3000; trial++) {
    Bytes mutant = seeds[static_cast<size_t>(trial) % seeds.size()];
    if (rng.Chance(0.5)) {
      MutateBytes(mutant, rng);
    } else {
      std::vector<JournalFrame> frames = SplitFrames(mutant);
      MutateBytes(frames[rng.Below(frames.size())].payload, rng);
      mutant = JoinFrames(frames);
    }
    ASSERT_TRUE(WriteFile(mutant_path, mutant).ok());
    const auto first = LoadJournal(mutant_path);
    if (!first.ok()) {
      const ErrorCode code = first.status().code();
      ASSERT_TRUE(code == ErrorCode::kCorruptData || code == ErrorCode::kUnsupported)
          << "trial " << trial << ": " << first.status().ToString();
      rejected++;
      continue;
    }
    decoded++;
    if (first.value().records_dropped > 0) partial++;
    const Bytes encoded =
        EncodeJournal(first_path, first.value().header, first.value().records);
    const auto second = LoadJournal(first_path);
    ASSERT_TRUE(second.ok()) << "trial " << trial << ": " << second.status().ToString();
    EXPECT_EQ(second.value().records_dropped, 0u) << "trial " << trial;
    EXPECT_EQ(second.value().valid_bytes, encoded.size()) << "trial " << trial;
    ASSERT_EQ(EncodeJournal(second_path, second.value().header, second.value().records),
              encoded)
        << "trial " << trial;
  }
  // The corpus exercises every outcome.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(partial, 100u);
}

/// The code pairs `races` holds, as RaceReport::Key() values.
std::set<uint64_t> RaceKeys(const RaceReportSet& races) {
  std::set<uint64_t> keys;
  for (const RaceReport& r : races.reports()) keys.insert(r.Key());
  return keys;
}

/// The code pairs the element-wise brute-force oracle finds in `t`'s trace.
std::set<uint64_t> BruteForceKeys(const SyntheticTrace& t) {
  auto store = TraceStore::OpenDir(t.dir.path());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? oracle::BruteForceRaceKeys(store.value())
                    : std::set<uint64_t>{};
}

TEST(Analysis, ThreadCountsMatchBruteForceRaces) {
  // The checker thread count is a pure optimization: the serial and the
  // parallel run find exactly the five races the trace holds, in the same
  // order, and the same code pairs as the element-wise brute force.
  SyntheticTrace t;
  WriteFiveRegionTrace(t);
  const AnalysisResult base = t.Analyze();
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.races.size(), 5u);
  EXPECT_EQ(RaceKeys(base.races), BruteForceKeys(t));

  AnalysisConfig config;
  config.threads = 3;
  const AnalysisResult got = t.Analyze(config);
  ASSERT_TRUE(got.status.ok());
  ExpectSameReports(got.races, base.races);
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

  EXPECT_EQ(RaceKeys(deduped.races), BruteForceKeys(t));
  EXPECT_GT(deduped.races.size(), 0u);
}

/// Text reports of `t` analyzed with 1, 3 and 4 checker threads; the first
/// run's result is returned through `base`.
std::vector<std::string> ReportsAtThreadCounts(SyntheticTrace& t, AnalysisResult* base) {
  const auto pc_name = [](uint32_t pc) { return "pc#" + std::to_string(pc); };
  std::vector<std::string> texts;
  for (const uint32_t threads : {1u, 3u, 4u}) {
    AnalysisConfig config;
    config.threads = threads;
    const AnalysisResult r = t.Analyze(config);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    texts.push_back(RenderText(r, pc_name));
    if (threads == 1) *base = r;
  }
  return texts;
}

TEST(Analysis, SummarizesOneLeaderPerDistinctStream) {
  // Three threads run the same canonical stream and a fourth a different
  // one: the bucket fingerprints all four groups, then summarizes only the
  // two leaders. The followers and the memoized pairs count as before.
  SyntheticTrace t;
  constexpr uint32_t kThreads = 4;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    trace::IntervalMeta m = Meta(tid, kThreads);
    m.label = osl::Label({osl::Pair{0, 1, 0}, osl::Pair{tid, kThreads, 0}});
    const bool distinct = tid == kThreads - 1;
    std::vector<trace::RawEvent> events;
    for (uint64_t i = 0; i < 64; i++) {
      events.push_back(trace::RawEvent::Access(
          0x1000 + i * 8, 8, distinct ? 0 : 1,
          static_cast<uint32_t>((distinct ? 500 : 100) + i)));
    }
    t.WriteThread(tid, {{m, events}});
  }

  AnalysisResult base;
  const std::vector<std::string> texts = ReportsAtThreadCounts(t, &base);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.stats.trees_built, 2u);    // one per distinct named stream
  EXPECT_EQ(base.stats.tree_nodes, 128u);   // distinct pcs: one node each
  // 2 followers alias a leader; of the 6 concurrent pairs, (X,X) and (X,D)
  // are checked once each and the other 4 replay them.
  EXPECT_EQ(base.stats.dedup_hits, 6u);
  EXPECT_EQ(base.stats.raw_events, 4u * 64);  // every group decoded once
  EXPECT_EQ(RaceKeys(base.races), BruteForceKeys(t));
  EXPECT_GT(base.races.size(), 0u);
  EXPECT_EQ(texts[1], texts[0]);
  EXPECT_EQ(texts[2], texts[0]);
}

TEST(Analysis, LeaderInsideAFrameResumesFromItsSavedCursor) {
  // The graphsearch shape: each thread's segments share one delta-coded
  // frame, so every leader but the first starts mid-frame and pass 2 enters
  // it from the resume point pass 1 saved. Both logs' frames begin at
  // logical 0 and thread 0's whole log is shorter than thread 1's first
  // segment, so a thread-0 cursor would pass StreamRange's position check
  // on thread 1's later segments and decode them from the wrong bytes and
  // codec state; the races must still be the brute force's. Thread 0 also
  // hosts lane 2 between its two lane-0 segments, so its lane-0 group
  // resumes past a segment of another group.
  SyntheticTrace t;
  t.format = trace::kTraceFormatV3;
  constexpr uint32_t kPhases = 3;
  std::vector<std::pair<trace::IntervalMeta, std::vector<trace::RawEvent>>> segs0,
      segs1;
  for (uint32_t phase = 0; phase < kPhases; phase++) {
    const uint64_t base = 0x10000 + phase * 0x1000;
    std::vector<trace::RawEvent> e0, e0b, e1;
    for (uint64_t i = 0; i < 24; i++) {
      e0.push_back(trace::RawEvent::Access(base + i * 40, 8, 1, 10 + phase));
    }
    for (uint64_t i = 0; i < 200; i++) {
      e1.push_back(
          trace::RawEvent::Access(base + 0x800 - (i % 50) * 24, 8, 0, 20 + phase));
    }
    e0.push_back(trace::RawEvent::Run(base + 0x400, 16, 9, 4, 1, 30 + phase));
    e1.push_back(trace::RawEvent::Run(base + 0x410, 16, 9, 4, 0, 40 + phase));
    e0b.push_back(trace::RawEvent::Access(base + 0x800, 8, 1, 50 + phase));
    trace::IntervalMeta lane0 = Meta(0, 3, phase);
    trace::IntervalMeta lane2 = Meta(2, 3, phase);
    segs0.push_back({lane0, {e0.begin(), e0.begin() + 12}});
    segs0.push_back({lane2, e0b});
    segs0.push_back({lane0, {e0.begin() + 12, e0.end()}});
    segs1.push_back({Meta(1, 3, phase), e1});
  }
  t.WriteThread(0, segs0);
  t.WriteThread(1, segs1);
  {
    auto store = TraceStore::OpenDir(t.dir.path());
    ASSERT_TRUE(store.ok());
    const auto& threads = store.value().threads();
    for (const auto& thread : threads) {
      ASSERT_EQ(thread.log->frame_count(), 1u);  // every segment in one frame
    }
    ASSERT_LT(threads[0].log->total_logical_bytes(),
              threads[1].meta.intervals[1].data_begin);
  }

  AnalysisResult base;
  const std::vector<std::string> texts = ReportsAtThreadCounts(t, &base);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.stats.trees_built, 3u * kPhases);  // every stream distinct
  EXPECT_EQ(RaceKeys(base.races), BruteForceKeys(t));
  EXPECT_GT(base.races.size(), 0u);
  EXPECT_TRUE(base.races.Contains(52, 20 + 2));  // the lane-2 write of the last phase
  EXPECT_EQ(texts[1], texts[0]);
  EXPECT_EQ(texts[2], texts[0]);
}

TEST(Analysis, UnnamedGroupIsCountedButNeverSummarized) {
  // Thread 0's phase-1 interval follows a barrier no other thread reached:
  // no concurrent pair names it, so it is decoded for the counts and never
  // summarized.
  SyntheticTrace t;
  std::vector<trace::RawEvent> named0, named1, lonely;
  for (uint32_t i = 0; i < 5; i++) {
    named0.push_back(trace::RawEvent::Access(0x1000 + i * 64, 8, 1, 10 + i));
    named1.push_back(trace::RawEvent::Access(0x1000 + i * 64, 8, 0, 20 + i));
  }
  for (uint32_t i = 0; i < 7; i++) {
    lonely.push_back(trace::RawEvent::Access(0x1000 + i * 64, 8, 1, 30 + i));
  }
  t.WriteThread(0, {{Meta(0, 2, 0), named0}, {Meta(0, 2, 1), lonely}});
  t.WriteThread(1, {{Meta(1, 2, 0), named1}});

  const AnalysisResult r = t.Analyze();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.stats.buckets, 1u);
  EXPECT_EQ(r.stats.concurrent_pairs, 1u);
  EXPECT_EQ(r.stats.raw_events, 5u + 5u + 7u);  // decoded for accounting
  EXPECT_EQ(r.stats.trees_built, 2u);            // but summarized: the pair only
  EXPECT_EQ(r.stats.tree_nodes, 10u);
  EXPECT_EQ(r.stats.dedup_hits, 0u);
  EXPECT_EQ(RaceKeys(r.races), BruteForceKeys(t));
  EXPECT_EQ(r.races.size(), 5u);
}

/// Byte offset just past the first frame of the log at `path`.
uint64_t FirstFrameEnd(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) return 0;
  ByteReader r(bytes.value());
  FrameHeader header;
  EXPECT_TRUE(ParseFrameHeader(r, &header).ok());
  EXPECT_TRUE(r.Skip(header.payload_size).ok());
  return r.position();
}

TEST(Analysis, SalvageTruncatedLeaderCountedOnce) {
  // Thread 1's named segment spans two frames and the second never reached
  // the disk. Pass 1 counts its missing events; pass 2 streams the same
  // truncated range into the leader's summary and must not count them again.
  SyntheticTrace t;
  t.buffer_bytes = 160;  // v2 events are short: a few dozen per frame
  std::vector<trace::RawEvent> e1;
  for (uint32_t i = 0; i < 200; i++) {
    e1.push_back(trace::RawEvent::Access(0x1000 + i * 8, 8, 0, 22));
  }
  t.WriteThread(0, {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  t.WriteThread(1, {{Meta(1, 2), e1}});
  const std::string t1_log = t.dir.path() + "/sword_t1.log";
  ASSERT_TRUE(TruncateFile(t1_log, FirstFrameEnd(t1_log)).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(t.dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const AnalysisResult r = offline::Analyze(store.value());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.races.Contains(11, 22));
  EXPECT_EQ(r.stats.trees_built, 2u);  // the damaged segment's group is a leader
  EXPECT_GT(r.stats.events_missing, 0u);
  EXPECT_LT(r.stats.events_missing, 200u);
  EXPECT_EQ(r.stats.raw_events + r.stats.events_missing, 201u);
  EXPECT_GT(r.stats.bytes_skipped_read, 0u);
  EXPECT_EQ(r.stats.segments_skipped, 0u);
  EXPECT_EQ(RaceKeys(r.races), oracle::BruteForceRaceKeys(store.value()));
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
  EXPECT_EQ(resumed.stats.fastpath_hits, clean.stats.fastpath_hits);
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

  // Same journal, different governor knob: a capped run's buckets may hold
  // fewer races than an uncapped run's, so resume must refuse.
  AnalysisConfig resume = journaled;
  resume.resume = true;
  resume.max_tree_bytes = uint64_t{1} << 30;
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

/// The deadline for the watchdog tests. The heavy buckets take hundreds of
/// milliseconds, so any deadline well below that breaches them reliably; the
/// light buckets are two events and finish in microseconds. 50ms leaves the
/// light bucket real headroom on a loaded CI machine (parallel ctest)
/// without letting a heavy bucket slip under. Sanitizer builds run the light
/// bucket an order of magnitude slower still; the deadline widens there.
uint32_t WatchdogDeadlineMs() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return 200;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return 200;
#else
  return 50;
#endif
#else
  return 50;
#endif
}

TEST(Analysis, DeadlineWatchdogAbortsOnlyThatBucket) {
  SyntheticTrace t;
  // Region 0: three heavyweight groups whose build alone takes far longer
  // than the deadline. Every event walks DOWN one element, so each one
  // starts a new node (descending accesses never extend a run): the build
  // costs a node arena slot and two index entries per event, however cheap
  // the summarizer's fold of a run continuation is. Run to completion the
  // build alone takes about 0.8s on a 4-core x86-64 container, over 15x the
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
  config.bucket_deadline_ms = WatchdogDeadlineMs();
  const AnalysisResult result = t.Analyze(config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.buckets_deadline_exceeded, 1u);
  // The light bucket's race survives: the governor aborted ONLY the
  // runaway bucket.
  EXPECT_TRUE(result.races.Contains(50, 51));
}

TEST(Analysis, DeadlineBreachInSummarizePassAbandonsOnlyThatBucket) {
  // Region 0: two groups whose decode is cheap and whose summary is not.
  // Each segment holds one writer-coalesced run of kRunCount accesses; a
  // run decodes as one event, but its key is already carried by two nodes
  // (the two descending accesses up front), so the summarizer replays it
  // element by element. Pass 1 decodes all 2 x kSegments runs in about a
  // millisecond; pass 2, run to completion, takes seconds, and the watchdog
  // breaches it. Region 1: a two-event race that finishes far inside the
  // deadline.
  constexpr uint64_t kSegments = 400;
  constexpr uint64_t kRunCount = 100000;
  SyntheticTrace t;
  t.format = trace::kTraceFormatV3;
  for (uint32_t tid = 0; tid < 2; tid++) {
    trace::WriterConfig wc;
    wc.log_path = t.dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = t.dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &t.flusher;
    wc.format = t.format;
    trace::ThreadTraceWriter writer(tid, wc);
    trace::IntervalMeta heavy = Meta(tid, 2);
    heavy.label = osl::Label({osl::Pair{0, 1, 0}, osl::Pair{tid, 2, 0}});
    const uint32_t pc = 10 + tid;
    uint64_t base = 0x100000000ULL * (tid + 1);
    for (uint64_t s = 0; s < kSegments; s++) {
      writer.BeginSegment(heavy);
      if (s == 0) {
        writer.Append(trace::RawEvent::Access(base - 8, 8, 1, pc));
        writer.Append(trace::RawEvent::Access(base - 16, 8, 1, pc));
      }
      writer.Append(trace::RawEvent::Run(base, 8, kRunCount, 8, 1, pc));
      base += kRunCount * 8 + 64;
      writer.EndSegment();
    }
    trace::IntervalMeta light = Meta(tid, 2);
    light.region = 1;
    light.label = osl::Label({osl::Pair{1, 1, 0}, osl::Pair{tid, 2, 0}});
    writer.BeginSegment(light);
    writer.Append(trace::RawEvent::Access(0x9000, 8, 1, 50 + tid));
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }

  AnalysisConfig config;
  config.bucket_deadline_ms = WatchdogDeadlineMs();
  const AnalysisResult result = t.Analyze(config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.buckets_deadline_exceeded, 1u);
  // Pass 1 finished the heavy bucket: every event was decoded and counted.
  EXPECT_EQ(result.stats.raw_events, 2 * (kSegments + 2) + 2);
  // Pass 2 was cut: no heavy leader closed, only the light bucket's two.
  EXPECT_EQ(result.stats.trees_built, 2u);
  EXPECT_TRUE(result.races.Contains(50, 51));
  EXPECT_FALSE(result.races.Contains(10, 11));
}

TEST(Analysis, PeakTreeBytesNamesTheBucket) {
  SyntheticTrace t;
  // Each region pairs thread 0's group with a one-event group on thread 1:
  // only groups some concurrent pair names are summarized.
  std::vector<std::pair<trace::IntervalMeta, std::vector<trace::RawEvent>>> segs,
      partners;
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
    trace::IntervalMeta p = Meta(1, 2);
    p.region = region;
    p.label = osl::Label({osl::Pair{region, 1, 0}, osl::Pair{1, 2, 0}});
    partners.push_back({p, {trace::RawEvent::Access(0x80000, 8, 0, 9)}});
  }
  t.WriteThread(0, segs);
  t.WriteThread(1, partners);
  const AnalysisResult result = t.Analyze();
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.peak_tree_bytes, 0u);
  EXPECT_EQ(result.stats.peak_tree_bucket, 2u);
}

TEST(RaceReportSetTest, KeepsLeastReportPerCodePair) {
  RaceReportSet set;
  RaceReport first;
  first.pc1 = 1;
  first.pc2 = 2;
  first.address = 0x1000;
  EXPECT_TRUE(set.Add(first));

  // The same code pair in either orientation is one entry. A report that
  // orders after the kept one changes nothing...
  RaceReport again = first;
  again.pc1 = 2;
  again.pc2 = 1;
  again.address = 0x800;
  EXPECT_FALSE(set.Add(again));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.reports()[0].pc1, 1u);
  EXPECT_EQ(set.reports()[0].address, 0x1000u);

  // ...and one that orders before it replaces it in place.
  RaceReport other;
  other.pc1 = 5;
  other.pc2 = 6;
  EXPECT_TRUE(set.Add(other));
  RaceReport lower = first;
  lower.address = 0x400;
  EXPECT_TRUE(set.Add(lower));
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.reports()[0].address, 0x400u);
  EXPECT_EQ(set.reports()[1].pc1, 5u);
  EXPECT_TRUE(set.Contains(2, 1));
  EXPECT_FALSE(set.Contains(1, 3));
}

TEST(RaceReportSetTest, KeptReportIgnoresArrivalOrder) {
  // Both orientations of one pair, each as write-vs-read and read-vs-write
  // at two witness addresses: every arrival order keeps the same report.
  std::vector<RaceReport> offered;
  for (const auto& [pc1, pc2] : {std::pair{7u, 3u}, std::pair{3u, 7u}}) {
    for (const bool write1 : {true, false}) {
      for (const uint64_t address : {0x2000u, 0x1000u}) {
        RaceReport r;
        r.pc1 = pc1;
        r.pc2 = pc2;
        r.write1 = write1;
        r.write2 = !write1;
        r.size1 = 8;
        r.size2 = 4;
        r.address = address;
        offered.push_back(r);
      }
    }
  }
  std::sort(offered.begin(), offered.end(),
            [](const RaceReport& l, const RaceReport& r) {
              return l.OrderKey() < r.OrderKey();
            });
  const RaceReport want = offered.front();
  EXPECT_EQ(want.pc1, 3u);
  EXPECT_FALSE(want.write1);
  EXPECT_EQ(want.address, 0x1000u);
  size_t orders = 0;
  do {
    RaceReportSet set;
    for (const RaceReport& r : offered) set.Add(r);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set.reports()[0].OrderKey(), want.OrderKey());
    orders++;
  } while (std::next_permutation(offered.begin(), offered.end(),
                                 [](const RaceReport& l, const RaceReport& r) {
                                   return l.OrderKey() < r.OrderKey();
                                 }));
  EXPECT_EQ(orders, 40320u);  // 8!
}

TEST(RaceReportSetTest, ReplayingChangesReproducesTheSet) {
  // The journal records only the reports whose Add changed the set - new
  // pairs and in-place replacements - and resume replays them in order.
  Rng rng(17);
  RaceReportSet live;
  std::vector<RaceReport> journal;
  for (int i = 0; i < 500; i++) {
    RaceReport r;
    r.pc1 = static_cast<uint32_t>(rng.Below(6));
    r.pc2 = static_cast<uint32_t>(rng.Below(6));
    r.write1 = rng.Chance(0.5);
    r.write2 = !r.write1 || rng.Chance(0.5);
    r.size1 = static_cast<uint8_t>(1 << rng.Below(4));
    r.size2 = static_cast<uint8_t>(1 << rng.Below(4));
    r.address = 0x1000 + rng.Below(256);
    if (live.Add(r)) journal.push_back(r);
  }
  EXPECT_GT(journal.size(), live.size());  // some reports were replaced
  RaceReportSet replayed;
  for (const RaceReport& r : journal) replayed.Add(r);
  ASSERT_EQ(replayed.size(), live.size());
  for (size_t i = 0; i < live.size(); i++) {
    EXPECT_EQ(replayed.reports()[i].OrderKey(), live.reports()[i].OrderKey()) << i;
  }
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

// Traces recorded by versions that had a static pre-filter carry elision
// counters in their SWM6 metas (IntervalMeta::elided per record,
// elided_accesses / elided_lost per file). The current writer writes them
// as 0; old traces must still be read, summed and reported, with only
// elided_lost counting as damage.
TEST(TraceStoreTest, ElisionCountersOfOlderTracesAreReadAndReported) {
  SyntheticTrace t;
  t.format = trace::kTraceFormatV3;
  t.WriteThread(0, {{Meta(0, 2), {trace::RawEvent::Run(0x1000, 8, 16, 8, 1, 11),
                                  trace::RawEvent::Access(0x8000, 8, 0, 12)}},
                    {Meta(0, 2, 1), {trace::RawEvent::Access(0x9000, 8, 1, 13)}}});
  t.WriteThread(1, {{Meta(1, 2), {trace::RawEvent::Access(0x1040, 8, 0, 21)}},
                    {Meta(1, 2, 1), {trace::RawEvent::Access(0x9000, 8, 0, 22)}}});

  // A fresh trace's metas carry zeros everywhere.
  std::vector<trace::MetaFile> pristine;
  for (uint32_t tid = 0; tid < 2; tid++) {
    auto bytes = ReadFileBytes(t.dir.path() + "/sword_t" + std::to_string(tid) + ".meta");
    ASSERT_TRUE(bytes.ok());
    trace::MetaFile meta;
    ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
    EXPECT_EQ(meta.elided_accesses, 0u);
    EXPECT_EQ(meta.elided_lost, 0u);
    ASSERT_EQ(meta.intervals.size(), 2u);
    for (const auto& m : meta.intervals) EXPECT_EQ(m.elided, 0u);
    pristine.push_back(std::move(meta));
  }
  auto race_set = [](const AnalysisResult& r) {
    std::set<std::pair<uint32_t, uint32_t>> out;
    for (const RaceReport& race : r.races.reports()) {
      out.insert({std::min(race.pc1, race.pc2), std::max(race.pc1, race.pc2)});
    }
    return out;
  };
  auto namer = [](uint32_t pc) { return "pc" + std::to_string(pc); };
  const AnalysisResult fresh = t.Analyze();
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  const auto fresh_races = race_set(fresh);
  ASSERT_EQ(fresh_races, (std::set<std::pair<uint32_t, uint32_t>>{{11, 21}, {13, 22}}));
  EXPECT_TRUE(fresh.stats.integrity.clean());
  EXPECT_EQ(RenderText(fresh, namer).find("static pre-filter"), std::string::npos);

  // Re-encode the metas as an older pre-filtering writer would have left
  // them: `elided` on every record, the per-file total in the header.
  auto rewrite = [&](uint64_t lost_per_thread) {
    for (uint32_t tid = 0; tid < 2; tid++) {
      trace::MetaFile meta = pristine[tid];
      meta.elided_accesses = 0;
      for (auto& m : meta.intervals) {
        m.elided = 10 * (tid + 1);
        meta.elided_accesses += m.elided;
      }
      meta.elided_lost = lost_per_thread;
      ASSERT_TRUE(WriteFile(t.dir.path() + "/sword_t" + std::to_string(tid) + ".meta",
                            meta.Encode())
                      .ok());
    }
  };
  constexpr uint64_t kElided = 2 * 10 + 2 * 20;

  rewrite(/*lost_per_thread=*/0);
  {
    auto store = TraceStore::OpenDir(t.dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.value().integrity().elided_accesses, kElided);
    EXPECT_EQ(store.value().integrity().elided_lost, 0u);
    EXPECT_TRUE(store.value().integrity().clean());  // elision is not loss
    const AnalysisResult r = offline::Analyze(store.value());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(race_set(r), fresh_races);
    const std::string text = RenderText(r, namer);
    EXPECT_NE(text.find("static pre-filter: 60 access(es) elided"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("lost their receipts"), std::string::npos) << text;
    EXPECT_EQ(text.find("DAMAGED"), std::string::npos) << text;
    const std::string json = RenderJson(r, namer);
    EXPECT_NE(json.find("\"elided_accesses\":60"), std::string::npos) << json;
    EXPECT_NE(json.find("\"elided_lost\":0"), std::string::npos) << json;
  }

  rewrite(/*lost_per_thread=*/3);
  {
    auto store = TraceStore::OpenDir(t.dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.value().integrity().elided_accesses, kElided);
    EXPECT_EQ(store.value().integrity().elided_lost, 6u);
    EXPECT_FALSE(store.value().integrity().clean());  // lost receipts are loss
    const AnalysisResult r = offline::Analyze(store.value());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(race_set(r), fresh_races);
    const std::string text = RenderText(r, namer);
    EXPECT_NE(text.find("static pre-filter: 60 access(es) elided"), std::string::npos)
        << text;
    EXPECT_NE(text.find("6 elided access(es) lost their receipts"), std::string::npos)
        << text;
    EXPECT_NE(text.find("trace integrity: DAMAGED"), std::string::npos) << text;
    const std::string json = RenderJson(r, namer);
    EXPECT_NE(json.find("\"elided_accesses\":60"), std::string::npos) << json;
    EXPECT_NE(json.find("\"elided_lost\":6"), std::string::npos) << json;
  }
}

// ---------------------------------------------------------------------------
// CheckFrozenPair against the brute-force reference (tests/oracle): the exact
// report SEQUENCE every-pair enumeration yields, whatever the set shapes.

std::vector<RaceReport> CollectFrozen(const IntervalTree& a,
                                      const IntervalTree& b,
                                      const MutexSetTable& mutexes,
                                      CheckStats* stats = nullptr,
                                      const CheckLimits& limits = {}) {
  std::vector<RaceReport> out;
  CheckFrozenPair(FreezeTree(a), FreezeTree(b), mutexes,
                  [&](const RaceReport& r) { out.push_back(r); }, stats, limits);
  return out;
}

std::vector<RaceReport> CollectBruteForce(
    const IntervalTree& a, const IntervalTree& b, const MutexSetTable& mutexes,
    oracle::BruteForceStats* stats = nullptr) {
  return oracle::BruteForceRaces(FreezeTree(a), FreezeTree(b), mutexes, stats);
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
  }
}

/// Reports AND counters agree with the reference: every pair that passes the
/// filters is one exact overlap decision.
void ExpectMatchesBruteForce(const IntervalTree& a, const IntervalTree& b,
                             const MutexSetTable& mutexes) {
  CheckStats got;
  oracle::BruteForceStats want;
  const auto reports = CollectFrozen(a, b, mutexes, &got);
  ExpectSameReports(reports, CollectBruteForce(a, b, mutexes, &want));
  EXPECT_EQ(got.node_pairs_ranged, want.node_pairs_ranged);
  EXPECT_EQ(got.fastpath_hits, want.decisions);
  EXPECT_EQ(got.races_found, reports.size());
  EXPECT_EQ(got.duplicates_suppressed, want.duplicates_suppressed);
}

TEST(CheckFrozenPair, SweepMatchesBruteForce) {
  // Comparable sizes.
  MutexSetTable mutexes;
  IntervalTree a, b;
  for (uint32_t i = 0; i < 30; i++) {
    a.AddInterval({1000 + i * 40, 8, 4, 8}, Key(1 + i, itree::kWrite));
    b.AddInterval({1004 + i * 36, 12, 4, 4}, Key(100 + i, itree::kRead, 4));
  }
  EXPECT_GT(CollectFrozen(a, b, mutexes).size(), 0u);
  ExpectMatchesBruteForce(a, b, mutexes);
}

TEST(CheckFrozenPair, TinyVersusHugeMatchesBruteForce) {
  // One side 32x smaller: the sweep walks the big side almost alone.
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

TEST(CheckFrozenPair, UnequalSparseStridesMatchBruteForce) {
  // Sparse x sparse with unequal strides - the shape the closed form once
  // left to a general engine - decided against the Diophantine oracle.
  MutexSetTable mutexes;
  IntervalTree a, b;
  for (uint32_t i = 0; i < 20; i++) {
    a.AddInterval({1000 + i * 200, 24, 8, 8}, Key(1 + i, itree::kWrite));
    b.AddInterval({1004 + i * 200, 40, 5, 4}, Key(50 + i, itree::kRead, 4));
  }
  EXPECT_GT(CollectFrozen(a, b, mutexes).size(), 0u);
  ExpectMatchesBruteForce(a, b, mutexes);
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
  CheckFrozenPair(fa, fb, mutexes,
                  [&](const RaceReport&) { emitted++; }, &stats, limits);
  EXPECT_EQ(stats.node_pairs_ranged, 0u);
  EXPECT_EQ(emitted, 0u);
}

/// Two all-read sides of `n` nodes each in which every node overlaps every
/// other: n*n read-read pairs, none of which the sweep visits.
void OverlappingReads(uint32_t n, IntervalTree* a, IntervalTree* b) {
  for (uint32_t i = 0; i < n; i++) {
    a->AddInterval({1000 + i * 8, 8, 4 * n, 8}, Key(1 + i, itree::kRead));
    b->AddInterval({1004 + i * 8, 8, 4 * n, 8}, Key(1 + n + i, itree::kRead));
  }
}

TEST(CheckFrozenPair, ReadReadPairsAreNeitherCountedNorDecided) {
  MutexSetTable mutexes;
  IntervalTree a, b;
  OverlappingReads(200, &a, &b);
  const itree::FrozenIntervalSet fa = FreezeTree(a), fb = FreezeTree(b);
  CheckStats stats;
  size_t emitted = 0;
  CheckFrozenPair(fa, fb, mutexes,
                  [&](const RaceReport&) { emitted++; }, &stats);
  EXPECT_EQ(stats.node_pairs_ranged, 0u);
  EXPECT_EQ(stats.fastpath_hits, 0u);
  EXPECT_EQ(emitted, 0u);
  ExpectMatchesBruteForce(a, b, mutexes);
}

TEST(CheckFrozenPair, BreachFromWritePairCallbackStopsSweep) {
  // A write pair at the front, then a long read-only stretch. The breach is
  // raised from the first write-pair callback exactly as CheckFrozenPair's
  // own callback would see it; the sweep must stop at its next start event
  // and report itself incomplete.
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
  const bool completed = itree::SweepMatchingPairs(
      fa, fb,
      [&](uint32_t, uint32_t) {
        if (cancel.load()) return false;
        emitted++;
        cancel.store(true);
        return true;
      },
      &cancel);
  EXPECT_FALSE(completed);
  EXPECT_EQ(emitted, 1u);
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
// Mixed access shapes end to end: every pair is one exact closed-form
// decision, and the output is byte-identical serial or parallel.

TEST(Analysis, MixedShapesAreByteIdenticalAcrossThreadCounts) {
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
  EXPECT_TRUE(base.races.Contains(11, 33));
  EXPECT_TRUE(base.races.Contains(44, 55));
  EXPECT_FALSE(base.races.Contains(11, 22));
  EXPECT_GT(base.stats.fastpath_hits, 0u);
  EXPECT_EQ(base.stats.solver_calls, 0u);

  AnalysisConfig parallel;
  parallel.threads = 3;
  const AnalysisResult alt = t.Analyze(parallel);
  ASSERT_TRUE(alt.status.ok());
  ExpectSameReports(base.races.reports(), alt.races.reports());
  EXPECT_EQ(base.stats.node_pairs_ranged, alt.stats.node_pairs_ranged);
  EXPECT_EQ(base.stats.fastpath_hits, alt.stats.fastpath_hits);
  EXPECT_EQ(base.stats.duplicates_suppressed, alt.stats.duplicates_suppressed);
}

}  // namespace
}  // namespace sword::offline
