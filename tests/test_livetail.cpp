// Reading a LIVE trace directory - the serve daemon's staple diet.
//
// While the traced application runs, its trace directory is perpetually
// mid-write: the log tail may end inside a frame, the meta checkpoint may
// be behind the log (events flushed, checkpoint pending) or ahead of it
// (checkpoint written, log buffer not yet flushed). This suite pins down,
// for every trace format (v1/v2/v3), the contract the service relies on:
//
//   - strict open REFUSES every live shape (that is what strict is for);
//   - salvage open recovers the clean prefix and analyzes it;
//   - the analysis NEVER invents a race - every race found in a cut trace
//     is one the full trace also reports (soundness under truncation);
//   - what was lost is accounted exactly: streamed events plus counted
//     missing events equal what the surviving metas claim.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/fsutil.h"
#include "harness/harness.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "trace/writer.h"

namespace sword {
namespace {

/// Produces a real multi-thread trace of `format` in `dir`.
void GenerateTrace(const std::string& dir, uint8_t format,
                   const char* workload = "truedep1-orig-yes") {
  harness::RunConfig config;
  config.tool = harness::ToolKind::kSword;
  config.params.threads = 2;
  config.params.size = 512;
  config.sword.out_dir = dir;
  config.sword.trace_format = format;
  config.run_offline = false;
  auto result = harness::RunByName("drb", workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

std::set<uint64_t> RaceKeys(const offline::AnalysisResult& r) {
  std::set<uint64_t> keys;
  for (const auto& race : r.races.reports()) keys.insert(race.Key());
  return keys;
}

/// Salvage-opens and analyzes; asserts the analysis itself succeeds.
offline::AnalysisResult SalvageAnalyze(const std::string& dir,
                                       offline::TraceIntegrity* integrity = nullptr) {
  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir, so);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return {};
  if (integrity != nullptr) *integrity = store.value().integrity();
  offline::AnalysisResult result = offline::Analyze(store.value());
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return result;
}

/// Total events the salvage-opened store's metas claim (the accounting
/// baseline for the streamed + missing identity).
uint64_t MetaClaimedEvents(const std::string& dir) {
  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir, so);
  EXPECT_TRUE(store.ok());
  uint64_t claimed = 0;
  if (store.ok()) {
    for (const auto& t : store.value().threads()) {
      for (const auto& rec : t.meta.intervals) claimed += rec.EventCount();
    }
  }
  return claimed;
}

/// The biggest per-thread log in the dir - v2/v3 coalescing can shrink a
/// quiet thread's log to a few records, too small to cut meaningfully.
std::string LargestLog(const std::string& dir) {
  std::string best;
  uint64_t best_size = 0;
  for (int t = 0; t < 16; ++t) {
    const std::string path = dir + "/sword_t" + std::to_string(t) + ".log";
    auto size = FileSize(path);
    if (size.ok() && size.value() > best_size) {
      best_size = size.value();
      best = path;
    }
  }
  return best;
}

/// True when the strict pipeline refuses the directory - at open or, if the
/// open happens to pass, during analysis. A live dir must never produce a
/// CLEAN strict verdict.
bool StrictRejects(const std::string& dir) {
  auto store = offline::TraceStore::OpenDir(dir, {});
  if (!store.ok()) return true;
  return !offline::Analyze(store.value()).status.ok();
}

class LiveTail : public ::testing::TestWithParam<uint8_t> {};

TEST_P(LiveTail, CleanTraceIsCleanEitherWay) {
  TempDir dir;
  GenerateTrace(dir.path(), GetParam());
  // Strict accepts a finished trace...
  auto store = offline::TraceStore::OpenDir(dir.path(), {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto strict = offline::Analyze(store.value());
  ASSERT_TRUE(strict.status.ok());
  EXPECT_GT(strict.races.size(), 0u);  // the documented race is there
  // ...and salvage finds the identical result with clean integrity.
  offline::TraceIntegrity integ;
  auto salvage = SalvageAnalyze(dir.path(), &integ);
  EXPECT_TRUE(integ.clean());
  EXPECT_EQ(RaceKeys(salvage), RaceKeys(strict));
  EXPECT_EQ(salvage.stats.events_missing, 0u);
}

TEST_P(LiveTail, MidAppendLogTailStrictRejectsSalvageRecovers) {
  TempDir dir;
  GenerateTrace(dir.path(), GetParam());
  const auto baseline = RaceKeys(SalvageAnalyze(dir.path()));

  // The writer dies (or is snapshotted) mid-frame: junk bytes on the log
  // tail that cannot parse as a frame header.
  const uint8_t junk[] = {0x00, 0x01, 0x02, 0x00, 0x03, 0x00, 0x04};
  ASSERT_TRUE(AppendFile(dir.path() + "/sword_t0.log", junk, sizeof(junk)).ok());

  EXPECT_TRUE(StrictRejects(dir.path()));

  offline::TraceIntegrity integ;
  auto salvage = SalvageAnalyze(dir.path(), &integ);
  EXPECT_FALSE(integ.clean());
  // The torn tail is accounted byte for byte, nothing silently vanishes.
  EXPECT_GE(integ.truncated_tail_bytes + integ.bytes_skipped, sizeof(junk));
  // Soundness: the cut trace reports a subset of the full trace's races.
  for (uint64_t key : RaceKeys(salvage)) {
    EXPECT_TRUE(baseline.count(key)) << "race invented by torn tail";
  }
}

TEST_P(LiveTail, MetaCheckpointBehindLogDropsOnlyTailRecords) {
  TempDir dir;
  GenerateTrace(dir.path(), GetParam());
  const auto baseline = RaceKeys(SalvageAnalyze(dir.path()));

  // The live shape where the checkpointer lags: the meta's own tail is
  // torn mid-record.
  const std::string meta = dir.path() + "/sword_t0.meta";
  const uint64_t size = FileSize(meta).value();
  ASSERT_GT(size, 8u);
  ASSERT_TRUE(TruncateFile(meta, size - 5).ok());

  EXPECT_TRUE(StrictRejects(dir.path()));

  offline::TraceIntegrity integ;
  auto salvage = SalvageAnalyze(dir.path(), &integ);
  EXPECT_GE(integ.meta_records_dropped + integ.threads_missing_meta, 1u);
  for (uint64_t key : RaceKeys(salvage)) {
    EXPECT_TRUE(baseline.count(key)) << "race invented by torn meta";
  }
  // Exact accounting: everything the SURVIVING meta records claim either
  // streamed or is counted missing.
  if (salvage.stats.segments_skipped == 0) {
    EXPECT_EQ(salvage.stats.raw_events + salvage.stats.events_missing,
              MetaClaimedEvents(dir.path()));
  }
}

TEST_P(LiveTail, MetaAheadOfLogClampsAndCountsMissing) {
  TempDir dir;
  // Indirect accesses defeat the v2/v3 strided-run coalescing, so the log
  // stays big enough that a partial flush actually loses events.
  GenerateTrace(dir.path(), GetParam(), "indirectaccess1-orig-yes");
  const auto baseline = RaceKeys(SalvageAnalyze(dir.path()));
  const uint64_t claimed_full = MetaClaimedEvents(dir.path());

  // The opposite live shape: meta checkpoint is current, the log buffer was
  // never fully flushed - the last meta records point past the log's end.
  // v2/v3 coalescing can pack a whole loop into one small frame, so the cut
  // only needs to land past the 8-byte file header to tear real events off.
  const std::string log = LargestLog(dir.path());
  ASSERT_FALSE(log.empty());
  const uint64_t size = FileSize(log).value();
  ASSERT_GT(size, 16u);
  ASSERT_TRUE(TruncateFile(log, size - size / 3).ok());

  EXPECT_TRUE(StrictRejects(dir.path()));

  offline::TraceIntegrity integ;
  auto salvage = SalvageAnalyze(dir.path(), &integ);
  EXPECT_FALSE(integ.clean());
  for (uint64_t key : RaceKeys(salvage)) {
    EXPECT_TRUE(baseline.count(key)) << "race invented by unflushed log tail";
  }
  // The meta still claims the full run; the shortfall is explicit.
  if (salvage.stats.segments_skipped == 0) {
    EXPECT_EQ(salvage.stats.raw_events + salvage.stats.events_missing,
              claimed_full);
    EXPECT_GT(salvage.stats.events_missing, 0u);
  }
}

TEST_P(LiveTail, NoFalseRacesAtAnyCutDepth) {
  TempDir dir;
  GenerateTrace(dir.path(), GetParam());
  const auto baseline = RaceKeys(SalvageAnalyze(dir.path()));
  const std::string log = dir.path() + "/sword_t1.log";
  const auto pristine = ReadFileBytes(log);
  ASSERT_TRUE(pristine.ok());
  const uint64_t full = pristine.value().size();

  // Sweep snapshot depths: at every cut the analysis must stay sound.
  for (uint64_t pct : {90, 75, 50, 25, 5}) {
    ASSERT_TRUE(WriteFile(log, pristine.value()).ok());
    ASSERT_TRUE(TruncateFile(log, full * pct / 100).ok());
    auto salvage = SalvageAnalyze(dir.path());
    for (uint64_t key : RaceKeys(salvage)) {
      EXPECT_TRUE(baseline.count(key))
          << "false race at " << pct << "% snapshot";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, LiveTail,
                         ::testing::Values(trace::kTraceFormatV1,
                                           trace::kTraceFormatV2,
                                           trace::kTraceFormatV3));

}  // namespace
}  // namespace sword
