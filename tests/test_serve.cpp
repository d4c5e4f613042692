// The serve subsystem: admission control, incremental ingest with
// retry/backoff, cross-run aggregation, the verdict ledger, and the
// AnalysisService that ties them together.
//
// Every timing-sensitive test runs on a ManualClock and every fault is a
// deterministic injection (one FaultFile for reads and writes),
// so nothing here depends on scheduler luck. The service end-to-end tests
// drive real traces produced by the harness through the daemon core and
// hold it to the ISSUE's acceptance bar: poison runs quarantined with
// counted reasons, ledger replay byte-identical, never a false race.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "common/rng.h"
#include "harness/harness.h"
#include "offline/analysis.h"
#include "offline/journal.h"
#include "offline/tracestore.h"
#include "oracle/journal_legacy.h"
#include "serve/admission.h"
#include "serve/aggregate.h"
#include "serve/control.h"
#include "serve/ingest.h"
#include "serve/ledger.h"
#include "serve/service.h"

namespace sword {
namespace {

using serve::AdmissionConfig;
using serve::AdmissionController;
using serve::AdmissionLevel;
using serve::IngestConfig;
using serve::IngestState;
using serve::ManualClock;
using serve::RunIngestor;
using serve::RunVerdict;

// --- JsonField: the control protocol's tiny extractor ----------------------

TEST(JsonField, ExtractsQuotedAndBareValues) {
  const std::string line =
      "{\"cmd\":\"add\",\"dir\":\"/tmp/run 1\",\"count\":42,\"flag\":true}";
  EXPECT_EQ(serve::JsonField(line, "cmd"), "add");
  EXPECT_EQ(serve::JsonField(line, "dir"), "/tmp/run 1");
  EXPECT_EQ(serve::JsonField(line, "count"), "42");
  EXPECT_EQ(serve::JsonField(line, "flag"), "true");
  EXPECT_EQ(serve::JsonField(line, "missing"), "");
}

TEST(JsonField, HandlesEscapesAndMalformedInput) {
  EXPECT_EQ(serve::JsonField("{\"p\":\"a\\\"b\\\\c\"}", "p"), "a\"b\\c");
  EXPECT_EQ(serve::JsonField("{\"p\" : \"x\"}", "p"), "x");
  EXPECT_EQ(serve::JsonField("not json at all", "p"), "");
  EXPECT_EQ(serve::JsonField("{\"p\"}", "p"), "");
  EXPECT_EQ(serve::JsonField("{\"p\":", "p"), "");
}

// --- AdmissionController ---------------------------------------------------

AdmissionConfig SmallAdmission() {
  AdmissionConfig c;
  c.max_inflight = 2;
  c.queue_soft_limit = 3;
  c.queue_deadline_ns = 1'000'000'000;  // 1s
  c.calm_evals_to_recover = 2;
  return c;
}

TEST(Admission, StartsOpenAndAdmitsEverything) {
  AdmissionController adm(SmallAdmission());
  EXPECT_EQ(adm.level(), AdmissionLevel::kOpen);
  EXPECT_TRUE(adm.AdmitNew());
  EXPECT_TRUE(adm.AdmitWork());
}

TEST(Admission, StepsDownImmediatelyOnPressure) {
  AdmissionController adm(SmallAdmission());
  adm.Evaluate(/*inflight=*/2, /*queue=*/0, /*wait=*/0);  // at the cap
  EXPECT_EQ(adm.level(), AdmissionLevel::kThrottled);
  ASSERT_EQ(adm.transitions().size(), 1u);
  EXPECT_EQ(adm.transitions()[0].reason & serve::kAdmitReasonInflight,
            serve::kAdmitReasonInflight);
  // Pressure persists: one more level per evaluation, floor at kShedAll.
  adm.Evaluate(2, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedNew);
  EXPECT_FALSE(adm.AdmitNew());
  EXPECT_TRUE(adm.AdmitWork());
  adm.Evaluate(2, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedAll);
  EXPECT_FALSE(adm.AdmitWork());
  adm.Evaluate(2, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedAll);  // saturates
}

TEST(Admission, QueueDepthAndStaleQueueTrip) {
  AdmissionController adm(SmallAdmission());
  adm.Evaluate(0, /*queue=*/4, 0);  // over the soft limit
  ASSERT_EQ(adm.transitions().size(), 1u);
  EXPECT_EQ(adm.transitions()[0].reason & serve::kAdmitReasonQueueDepth,
            serve::kAdmitReasonQueueDepth);

  AdmissionController adm2(SmallAdmission());
  adm2.Evaluate(0, 1, /*wait=*/2'000'000'000);  // stale queue
  ASSERT_EQ(adm2.transitions().size(), 1u);
  EXPECT_EQ(adm2.transitions()[0].reason & serve::kAdmitReasonQueueWait,
            serve::kAdmitReasonQueueWait);
}

TEST(Admission, RecoversHysteretically) {
  AdmissionController adm(SmallAdmission());
  adm.Evaluate(2, 0, 0);
  adm.Evaluate(2, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedNew);
  // One calm eval is not enough (calm_evals_to_recover = 2).
  adm.Evaluate(0, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedNew);
  adm.Evaluate(0, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kThrottled);
  EXPECT_EQ(adm.transitions().back().reason & serve::kAdmitReasonRecovered,
            serve::kAdmitReasonRecovered);
  // A pressure blip resets the calm streak.
  adm.Evaluate(0, 0, 0);
  adm.Evaluate(2, 0, 0);  // blip: down to kShedNew again
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedNew);
  adm.Evaluate(0, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kShedNew);  // streak restarted
}

TEST(Admission, LatencyEwmaTripsWhenEnabled) {
  AdmissionConfig c = SmallAdmission();
  c.latency_step_ns = 1'000'000;  // 1ms
  AdmissionController adm(c);
  // Feed slow analyses until the EWMA (alpha 1/4) crosses the step.
  for (int i = 0; i < 8; i++) adm.NoteAnalysisNanos(4'000'000);
  adm.Evaluate(0, 0, 0);
  EXPECT_EQ(adm.level(), AdmissionLevel::kThrottled);
  EXPECT_EQ(adm.transitions().back().reason & serve::kAdmitReasonLatency,
            serve::kAdmitReasonLatency);
}

TEST(Admission, PackedStateCarriesSeqReasonLevel) {
  AdmissionController adm(SmallAdmission());
  const uint64_t before = adm.PackedState();
  EXPECT_EQ(before & 0xff, 0u);
  adm.Evaluate(2, 0, 0);
  const uint64_t after = adm.PackedState();
  EXPECT_EQ(after & 0xff, 1u);                       // level
  EXPECT_NE((after >> 8) & 0xff, 0u);                // reason bits
  EXPECT_GT(after >> 16, before >> 16);              // seq advanced
  adm.NoteRunShed();
  EXPECT_EQ(adm.runs_shed(), 1u);
}

// --- FaultFile read faults ------------------------------------------------

TEST(FaultFileRead, TransientThenHardFaultsAreCallNumbered) {
  TempDir dir;
  const std::string path = dir.File("data");
  ASSERT_TRUE(WriteFile(path, Bytes{1, 2, 3}).ok());

  testing::FaultFile fs;
  fs.TransientReads(2);
  fs.FailReads(/*from_call=*/4, /*count=*/1);

  auto r1 = fs.ReadWhole(path);
  EXPECT_EQ(r1.status().code(), ErrorCode::kUnavailable);
  auto r2 = fs.ReadWhole(path);
  EXPECT_EQ(r2.status().code(), ErrorCode::kUnavailable);
  auto r3 = fs.ReadWhole(path);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().size(), 3u);
  auto r4 = fs.ReadWhole(path);  // call 4: hard window
  EXPECT_EQ(r4.status().code(), ErrorCode::kIoError);
  auto r5 = fs.ReadWhole(path);
  EXPECT_TRUE(r5.ok());
  // Size and Exists probes are not numbered: faults aim at data reads.
  EXPECT_TRUE(fs.Exists(path));
  EXPECT_EQ(fs.Size(path).value(), 3u);
  EXPECT_EQ(fs.read_calls(), 5u);
  EXPECT_EQ(fs.read_transients_injected(), 2u);
  EXPECT_EQ(fs.read_failures_injected(), 1u);
  // Read faults are not write-path fault kinds.
  EXPECT_EQ(fs.fired(), 0u);
}

TEST(FaultFileRead, PlanStringDrivesReadFaults) {
  auto plan = testing::ParseFaultPlan("read_transient=3;read_fail@5+2;read_slow=100@1+2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().read_transient, 3u);
  EXPECT_EQ(plan.value().read_fail_from, 5u);
  EXPECT_EQ(plan.value().read_fail_count, 2u);
  EXPECT_EQ(plan.value().read_slow_usec, 100u);
  EXPECT_EQ(plan.value().read_slow_from, 1u);
  EXPECT_EQ(plan.value().read_slow_count, 2u);
  EXPECT_EQ(plan.value().kinds(), 0u);

  testing::FaultFile fs;
  plan.value().ApplyTo(fs);
  TempDir dir;
  ASSERT_TRUE(WriteFile(dir.File("f"), Bytes{9}).ok());
  EXPECT_EQ(fs.ReadWhole(dir.File("f")).status().code(), ErrorCode::kUnavailable);
}

// --- RunIngestor -----------------------------------------------------------

/// Produces a real two-thread trace in `dir` (no offline analysis).
void MakeTrace(const std::string& dir, const char* workload = "truedep1-orig-yes") {
  harness::RunConfig config;
  config.tool = harness::ToolKind::kSword;
  config.params.threads = 2;
  config.params.size = 256;
  config.sword.out_dir = dir;
  config.run_offline = false;
  auto result = harness::RunByName("drb", workload, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

IngestConfig FastIngest() {
  IngestConfig c;
  c.max_read_attempts = 3;
  c.backoff_base_ns = 1'000'000;
  c.backoff_max_ns = 8'000'000;
  c.quiesce_polls = 2;
  c.max_hard_failures = 2;
  return c;
}

TEST(Ingest, StaticDirectorySettlesAfterQuiescePolls) {
  TempDir dir;
  MakeTrace(dir.path());
  ManualClock clock;
  RunIngestor ing(dir.path(), FastIngest(), nullptr, clock.fn());

  EXPECT_EQ(ing.Poll(), IngestState::kGrowing);  // first sight: live probe
  EXPECT_GE(ing.stats().live_probes, 1u);
  EXPECT_GT(ing.stats().intervals_seen, 0u);
  EXPECT_GT(ing.stats().bytes_seen, 0u);
  EXPECT_EQ(ing.Poll(), IngestState::kGrowing);  // unchanged poll 1
  EXPECT_EQ(ing.Poll(), IngestState::kSettled);  // unchanged poll 2 = quiesce
  EXPECT_TRUE(ing.settled());
}

TEST(Ingest, DoneMarkerSettlesImmediately) {
  TempDir dir;
  MakeTrace(dir.path());
  ASSERT_TRUE(WriteFile(dir.path() + "/sword.done", Bytes{}).ok());
  ManualClock clock;
  RunIngestor ing(dir.path(), FastIngest(), nullptr, clock.fn());
  EXPECT_EQ(ing.Poll(), IngestState::kSettled);
}

TEST(Ingest, GrowingDirectoryDoesNotSettle) {
  TempDir dir;
  MakeTrace(dir.path());
  ManualClock clock;
  RunIngestor ing(dir.path(), FastIngest(), nullptr, clock.fn());
  // Append to a log between polls: the fingerprint keeps moving, so the
  // quiesce streak never forms.
  for (int i = 0; i < 6; i++) {
    EXPECT_EQ(ing.Poll(), IngestState::kGrowing);
    ASSERT_TRUE(AppendFile(dir.path() + "/sword_t0.log",
                           reinterpret_cast<const uint8_t*>("x"), 1)
                    .ok());
  }
  // Writer stops: now it settles.
  ing.Poll();
  ing.Poll();
  EXPECT_EQ(ing.Poll(), IngestState::kSettled);
}

TEST(Ingest, TransientReadsAbsorbedByRetryBudget) {
  TempDir dir;
  MakeTrace(dir.path());
  testing::FaultFile fs;
  fs.TransientReads(2);  // first two meta reads EINTR; budget is 3 attempts
  ManualClock clock;
  RunIngestor ing(dir.path(), FastIngest(), &fs, clock.fn());
  ing.Poll();
  ing.Poll();
  EXPECT_EQ(ing.Poll(), IngestState::kSettled);
  EXPECT_GE(ing.stats().read_retries, 2u);
  EXPECT_EQ(ing.stats().hard_failures, 0u);
}

TEST(Ingest, HardReadFailuresQuarantineAfterBudgetWithBackoff) {
  TempDir dir;
  MakeTrace(dir.path());
  testing::FaultFile fs;
  fs.FailReads(/*from_call=*/1, /*count=*/1'000'000);  // every read fails hard
  ManualClock clock(1);
  IngestConfig cfg = FastIngest();  // max_hard_failures = 2
  RunIngestor ing(dir.path(), cfg, &fs, clock.fn());

  EXPECT_EQ(ing.Poll(), IngestState::kGrowing);  // hard failure 1, backoff armed
  EXPECT_EQ(ing.stats().hard_failures, 1u);

  // Before the backoff deadline, Poll is a no-op - one service thread can
  // interleave many backed-off runs without hammering the filesystem.
  const uint64_t polls_before = ing.stats().polls;
  EXPECT_EQ(ing.Poll(), IngestState::kGrowing);
  EXPECT_EQ(ing.stats().polls, polls_before);

  // Keep the directory changing so each due poll re-probes.
  ASSERT_TRUE(AppendFile(dir.path() + "/sword_t0.log",
                         reinterpret_cast<const uint8_t*>("x"), 1)
                  .ok());
  clock.Advance(cfg.backoff_max_ns + 1);
  EXPECT_EQ(ing.Poll(), IngestState::kFailed);  // hard failure 2 = budget
  EXPECT_FALSE(ing.last_error().ok());
  EXPECT_EQ(ing.last_error().code(), ErrorCode::kIoError);
}

// --- ReportAggregator ------------------------------------------------------

RaceReport MakeRace(uint32_t pc1, uint32_t pc2) {
  RaceReport r;
  r.pc1 = pc1;
  r.pc2 = pc2;
  r.address = 0x1000 + pc1;
  r.size1 = r.size2 = 4;
  r.write1 = true;
  return r;
}

RunVerdict MakeVerdict(const std::string& run, uint64_t fingerprint,
                       std::vector<RaceReport> races) {
  RunVerdict v;
  v.run = run;
  v.fingerprint = fingerprint;
  v.status = Status::Ok();
  v.races = std::move(races);
  return v;
}

TEST(Aggregate, MergeIsOrderIndependent) {
  const std::vector<RunVerdict> verdicts = {
      MakeVerdict("run-a", 1, {MakeRace(1, 2), MakeRace(3, 4)}),
      MakeVerdict("run-b", 2, {MakeRace(2, 1), MakeRace(5, 6)}),
      MakeVerdict("run-c", 3, {MakeRace(3, 4)}),
  };
  serve::ReportAggregator fwd, rev;
  for (const auto& v : verdicts) fwd.AddRun(v);
  for (auto it = verdicts.rbegin(); it != verdicts.rend(); ++it) rev.AddRun(*it);
  EXPECT_EQ(fwd.RenderJson(), rev.RenderJson());
  EXPECT_EQ(fwd.site_count(), 3u);
  EXPECT_EQ(fwd.run_count(), 3u);
}

TEST(Aggregate, SampleElectionPrefersSmallestRun) {
  serve::ReportAggregator agg;
  agg.AddRun(MakeVerdict("z-run", 1, {MakeRace(1, 2)}));
  auto sites = agg.Sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].sample_run, "z-run");
  EXPECT_EQ(sites[0].runs, 1u);
  // A later run with a smaller name takes the sample; a larger one does not.
  agg.AddRun(MakeVerdict("b-run", 3, {MakeRace(2, 1)}));
  agg.AddRun(MakeVerdict("m-run", 4, {MakeRace(1, 2)}));
  sites = agg.Sites();
  EXPECT_EQ(sites[0].sample_run, "b-run");
  EXPECT_EQ(sites[0].runs, 3u);
}

TEST(Aggregate, DuplicateAddIsNoOpAndRetraceReplaces) {
  serve::ReportAggregator agg;
  EXPECT_TRUE(agg.AddRun(MakeVerdict("r", 1, {MakeRace(1, 2)})));
  EXPECT_FALSE(agg.AddRun(MakeVerdict("r", 1, {MakeRace(1, 2)})));  // same fp
  EXPECT_EQ(agg.site_count(), 1u);
  // Re-traced (new fingerprint): old races must not linger.
  EXPECT_TRUE(agg.AddRun(MakeVerdict("r", 2, {MakeRace(7, 8)})));
  auto sites = agg.Sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].sample.pc1, 7u);
}

// --- Ledger ----------------------------------------------------------------

serve::LedgerRecord MakeRecord(const std::string& run, uint64_t fp,
                               std::vector<RaceReport> races,
                               uint8_t quarantine = 0) {
  serve::LedgerRecord rec;
  rec.verdict = MakeVerdict(run, fp, std::move(races));
  rec.dir = "/traces/" + run;
  rec.quarantine = quarantine;
  return rec;
}

TEST(Ledger, RoundTripsRecords) {
  TempDir dir;
  const std::string path = dir.File("serve.ledger");
  auto w = serve::LedgerWriter::Open(path, 0);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w.value().Append(MakeRecord("r1", 11, {MakeRace(1, 2)})).ok());
  ASSERT_TRUE(w.value()
                  .Append(MakeRecord("r2", 22, {}, /*quarantine=*/3))
                  .ok());

  auto loaded = serve::LoadLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().records.size(), 2u);
  EXPECT_EQ(loaded.value().records_dropped, 0u);
  const auto& r1 = loaded.value().records[0];
  EXPECT_EQ(r1.verdict.run, "r1");
  EXPECT_EQ(r1.verdict.fingerprint, 11u);
  EXPECT_EQ(r1.dir, "/traces/r1");
  ASSERT_EQ(r1.verdict.races.size(), 1u);
  EXPECT_EQ(r1.verdict.races[0].pc1, 1u);
  EXPECT_EQ(r1.verdict.races[0].address, 0x1001u);
  const auto& r2 = loaded.value().records[1];
  EXPECT_EQ(r2.quarantine, 3u);
  EXPECT_TRUE(r2.verdict.races.empty());
}

TEST(Ledger, TornTailDroppedAndTruncatedOnReopen) {
  TempDir dir;
  const std::string path = dir.File("serve.ledger");
  {
    auto w = serve::LedgerWriter::Open(path, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(MakeRecord("r1", 1, {MakeRace(1, 2)})).ok());
  }
  // Simulate a mid-append kill: garbage past the valid prefix.
  const uint8_t junk[] = {0x52, 0x53, 0x57, 0x53, 0x01, 0x02};
  ASSERT_TRUE(AppendFile(path, junk, sizeof(junk)).ok());

  auto loaded = serve::LoadLedger(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().records_dropped, 1u);
  const auto before_junk = loaded.value().valid_bytes;
  EXPECT_LT(before_junk, FileSize(path).value());

  // Reopen truncates the tail; a fresh append then loads cleanly.
  auto w = serve::LedgerWriter::Open(path, before_junk);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(FileSize(path).value(), before_junk);
  ASSERT_TRUE(w.value().Append(MakeRecord("r2", 2, {})).ok());
  auto reloaded = serve::LoadLedger(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().records.size(), 2u);
  EXPECT_EQ(reloaded.value().records_dropped, 0u);
}

TEST(Ledger, EnospcAppendCountedPrefixStaysLoadable) {
  TempDir dir;
  const std::string path = dir.File("serve.ledger");
  testing::FaultFile fault;
  auto w = serve::LedgerWriter::Open(path, 0, &fault);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value().Append(MakeRecord("r1", 1, {MakeRace(1, 2)})).ok());
  fault.EnospcAppends(/*from_call=*/2, /*count=*/1'000'000);
  EXPECT_FALSE(w.value().Append(MakeRecord("r2", 2, {})).ok());
  EXPECT_EQ(w.value().append_failures(), 1u);

  auto loaded = serve::LoadLedger(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().records.size(), 1u);  // the prefix survived intact
}

/// Every field LoadLedger restores, in one comparable value.
auto LedgerRecordKey(const serve::LedgerRecord& rec) {
  std::vector<decltype(RaceReport{}.OrderKey())> races;
  for (const RaceReport& r : rec.verdict.races) races.push_back(r.OrderKey());
  return std::make_tuple(rec.verdict.run, rec.dir, rec.verdict.fingerprint,
                         rec.verdict.status.code(), rec.verdict.status.message(),
                         rec.verdict.salvaged, rec.quarantine, races);
}

TEST(Ledger, FuzzedLedgersFailCleanlyOrLoadAPrefix) {
  TempDir dir;
  const std::string path = dir.File("serve.ledger");
  std::vector<serve::LedgerRecord> originals = {
      MakeRecord("r1", 11, {MakeRace(1, 2), MakeRace(3, 4)}),
      MakeRecord("r2", 22, {}, /*quarantine=*/3),
      MakeRecord("r3", 33, {MakeRace(5, 6)})};
  originals[2].verdict.status = Status::Corrupt("damaged trace");
  originals[2].verdict.salvaged = true;
  // record_ends[k] is the file size once record k is appended; records
  // start where the header (or the previous record) ends.
  uint64_t header_end = 0;
  std::vector<uint64_t> record_ends;
  {
    auto w = serve::LedgerWriter::Open(path, 0);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    header_end = FileSize(path).value();
    for (const auto& rec : originals) {
      ASSERT_TRUE(w.value().Append(rec).ok());
      record_ends.push_back(FileSize(path).value());
    }
  }
  const auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());
  const Bytes& file = original.value();
  ASSERT_EQ(file.size(), record_ends.back());

  // `damage_at` is the first byte the mutation changed or cut: every record
  // ending at or before it must load, and nothing after it may.
  const std::string mutant_path = dir.File("mutant.ledger");
  uint64_t rejected = 0, partial = 0;
  const auto check = [&](const Bytes& mutant, uint64_t damage_at,
                         const std::string& what) {
    ASSERT_TRUE(WriteFile(mutant_path, mutant).ok());
    const auto loaded = serve::LoadLedger(mutant_path);
    if (!loaded.ok()) {
      EXPECT_LT(damage_at, header_end)
          << what << ": a damaged record failed the whole load: "
          << loaded.status().ToString();
      const ErrorCode code = loaded.status().code();
      EXPECT_TRUE(code == ErrorCode::kCorruptData || code == ErrorCode::kUnsupported)
          << what << ": " << loaded.status().ToString();
      rejected++;
      return;
    }
    ASSERT_GE(damage_at, header_end) << what << ": a damaged header loaded";
    const auto& result = loaded.value();
    size_t kept = 0;
    while (kept < record_ends.size() && record_ends[kept] <= damage_at) kept++;
    ASSERT_EQ(result.records.size(), kept) << what;
    for (size_t k = 0; k < kept; k++) {
      EXPECT_EQ(LedgerRecordKey(result.records[k]), LedgerRecordKey(originals[k]))
          << what << ", record " << k;
    }
    const uint64_t prefix_end = kept == 0 ? header_end : record_ends[kept - 1];
    EXPECT_EQ(result.valid_bytes, prefix_end) << what;
    EXPECT_LE(result.valid_bytes, mutant.size()) << what;
    // A short prefix is a dropped record unless the file simply ends where
    // the prefix does (a cut exactly at a record boundary).
    EXPECT_EQ(result.records_dropped, mutant.size() > prefix_end ? 1u : 0u) << what;
    if (result.records_dropped > 0) partial++;
  };

  for (size_t len = 0; len < file.size(); len++) {
    check(Bytes(file.begin(), file.begin() + static_cast<std::ptrdiff_t>(len)), len,
          "truncated to " + std::to_string(len));
  }
  Rng rng(20261020);
  for (int trial = 0; trial < 400; trial++) {
    Bytes mutant = file;
    const uint64_t at = rng.Below(mutant.size());
    const auto bit = static_cast<uint8_t>(1u << rng.Below(8));
    mutant[at] ^= bit;
    check(mutant, at, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
  }
  // Both outcomes occur: header damage fails the load, record damage drops.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(partial, 100u);
}

// --- AnalysisService end-to-end --------------------------------------------

serve::ServiceConfig FastService(const std::string& state_dir) {
  serve::ServiceConfig c;
  c.state_dir = state_dir;
  c.ingest = FastIngest();
  c.analysis_threads = 2;
  return c;
}

TEST(Service, DrainsRunsAndMatchesDirectAnalysis) {
  TempDir traces;
  TempDir state;
  const std::string run1 = traces.path() + "/run1";
  const std::string run2 = traces.path() + "/run2";
  ASSERT_TRUE(MakeDirs(run1).ok());
  ASSERT_TRUE(MakeDirs(run2).ok());
  MakeTrace(run1, "truedep1-orig-yes");
  MakeTrace(run2, "plusplus-orig-yes");

  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.AddRun(run1).ok());
  ASSERT_TRUE(service.AddRun(run2).ok());
  ASSERT_TRUE(service.AddRun(run1).ok());  // idempotent re-add
  service.Drain(/*max_ticks=*/1000);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_added, 2u);
  EXPECT_EQ(stats.runs_done, 2u);
  EXPECT_EQ(stats.runs_quarantined, 0u);

  // The daemon's verdict must equal what sword-offline computes directly.
  for (const std::string& dir : {run1, run2}) {
    offline::StoreOptions so;
    so.salvage = true;
    auto store = offline::TraceStore::OpenDir(dir, so);
    ASSERT_TRUE(store.ok());
    const auto direct = offline::Analyze(store.value());
    ASSERT_TRUE(direct.status.ok());
    bool found = false;
    for (const auto& snap : service.Runs()) {
      if (snap.dir != dir) continue;
      found = true;
      EXPECT_EQ(snap.races, direct.races.size()) << dir;
      EXPECT_EQ(snap.phase, serve::RunPhase::kDone);
    }
    EXPECT_TRUE(found) << dir;
  }
  EXPECT_GT(service.SiteCount(), 0u);
}

TEST(Service, PoisonRunQuarantinedOthersFinish) {
  TempDir traces;
  TempDir state;
  const std::string good = traces.path() + "/good";
  const std::string poison = traces.path() + "/poison";
  ASSERT_TRUE(MakeDirs(good).ok());
  ASSERT_TRUE(MakeDirs(poison).ok());
  MakeTrace(good);
  // The poison run: a directory with no trace files at all. It settles
  // (static), then the store open rejects it even under salvage - there is
  // nothing to analyze - and the service must contain that, not die.

  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.AddRun(good).ok());
  ASSERT_TRUE(service.AddRun(poison).ok());
  service.Drain(1000);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_done + stats.runs_quarantined, 2u);
  EXPECT_EQ(stats.runs_done, 1u);
  EXPECT_EQ(stats.runs_quarantined, 1u);
  // The reason is COUNTED, not just a log line.
  EXPECT_EQ(stats.quarantined_open + stats.quarantined_analysis +
                stats.quarantined_ingest + stats.quarantined_crash,
            1u);
  for (const auto& snap : service.Runs()) {
    if (snap.dir == poison) {
      EXPECT_EQ(snap.phase, serve::RunPhase::kQuarantined);
      EXPECT_NE(snap.quarantine, serve::QuarantineReason::kNone);
    } else {
      EXPECT_EQ(snap.phase, serve::RunPhase::kDone);
    }
  }
}

TEST(Service, IngestHardFailureQuarantinesWithReason) {
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);

  testing::FaultFile fs;
  fs.FailReads(1, 1'000'000);
  offline::AnalyzerEnv env;
  env.fs = &fs;
  ManualClock clock(1);
  serve::AnalysisService service(FastService(state.path()), env, clock.fn());
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.AddRun(run).ok());

  // Each tick polls; keep the dir growing so probes re-fire, and advance the
  // clock past the backoff each time.
  for (int i = 0; i < 10 && !service.Idle(); i++) {
    ASSERT_TRUE(AppendFile(run + "/sword_t0.log",
                           reinterpret_cast<const uint8_t*>("x"), 1)
                    .ok());
    service.Tick();
    clock.Advance(100'000'000);
  }
  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_quarantined, 1u);
  EXPECT_EQ(stats.quarantined_ingest, 1u);
}

TEST(Service, CorruptJournalResetOnceThenRunSucceeds) {
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);

  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.Recover().ok());
  // Plant a garbage journal where the service will look for this run's:
  // resume fails, the journal is dropped, the analysis retried fresh - the
  // journal is an optimization, never a reason to lose a run.
  ASSERT_TRUE(WriteFile(state.path() + "/journal_run1.journal",
                        Bytes(128, 0xAB))
                  .ok());
  ASSERT_TRUE(service.AddRun(run).ok());
  service.Drain(1000);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_done, 1u);
  EXPECT_EQ(stats.runs_quarantined, 0u);
  EXPECT_EQ(stats.journal_resets, 1u);
}

TEST(Service, Version4JournalResetOnceThenRunSucceeds) {
  // A journal left by a build with the v4 header is refused as Unsupported;
  // the service treats that like any failed resume: drop it once, analyze
  // fresh, and leave a current-version journal behind.
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);

  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.Recover().ok());
  const std::string journal = state.path() + "/journal_run1.journal";
  ASSERT_TRUE(
      WriteFile(journal, oracle::JournalV4File(offline::JournalHeader{})).ok());
  ASSERT_EQ(offline::LoadJournal(journal).status().code(),
            ErrorCode::kUnsupported);
  ASSERT_TRUE(service.AddRun(run).ok());
  service.Drain(1000);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_done, 1u);
  EXPECT_EQ(stats.runs_quarantined, 0u);
  EXPECT_EQ(stats.journal_resets, 1u);
  EXPECT_TRUE(offline::LoadJournal(journal).ok());
}

TEST(Service, LedgerEnospcDegradesNeverBlocksVerdicts) {
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);

  testing::FaultFile fault;
  fault.EnospcAppends(/*from_call=*/1, /*count=*/1'000'000);  // every append fails
  offline::AnalyzerEnv env;
  env.fs = &fault;
  serve::AnalysisService service(FastService(state.path()), env);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.AddRun(run).ok());
  service.Drain(1000);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_done, 1u);  // the verdict still lands in memory
  EXPECT_GE(stats.ledger_append_failures, 1u);
  EXPECT_GT(service.SiteCount(), 0u);
}

TEST(Service, LazyLedgerOpenReplacesAnUnreadableLedger) {
  // A service that skipped Recover() opens the ledger at its first verdict.
  // A ledger whose header is gone must be replaced, not continued: records
  // appended after a truncate to 0 would have no header to load behind.
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);
  const std::string ledger = state.path() + "/serve.ledger";
  ASSERT_TRUE(WriteFile(ledger, Bytes(40, 0xAB)).ok());

  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.AddRun(run).ok());
  service.Drain(1000);
  EXPECT_EQ(service.Stats().runs_done, 1u);
  EXPECT_EQ(service.Stats().ledger_append_failures, 0u);
  const auto loaded = serve::LoadLedger(ledger);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().records[0].verdict.run, "run1");
}

TEST(Service, RestartReplaysLedgerByteIdentical) {
  TempDir traces;
  TempDir state;
  const std::string run1 = traces.path() + "/run1";
  const std::string run2 = traces.path() + "/run2";
  ASSERT_TRUE(MakeDirs(run1).ok());
  ASSERT_TRUE(MakeDirs(run2).ok());
  MakeTrace(run1, "truedep1-orig-yes");
  MakeTrace(run2, "plusplus-orig-yes");

  std::string aggregate_before;
  {
    serve::AnalysisService service(FastService(state.path()));
    ASSERT_TRUE(service.Recover().ok());
    ASSERT_TRUE(service.AddRun(run1).ok());
    ASSERT_TRUE(service.AddRun(run2).ok());
    service.Drain(1000);
    ASSERT_EQ(service.Stats().runs_done, 2u);
    aggregate_before = service.AggregateJson();
  }  // daemon "dies"

  serve::AnalysisService revived(FastService(state.path()));
  ASSERT_TRUE(revived.Recover().ok());
  const auto stats = revived.Stats();
  EXPECT_EQ(stats.ledger_replayed, 2u);
  EXPECT_EQ(stats.analyses, 0u);  // nothing re-analyzed
  // The acceptance bar: byte-identical aggregate after restart.
  EXPECT_EQ(revived.AggregateJson(), aggregate_before);
  EXPECT_TRUE(revived.Idle());
  // Re-adding the recovered runs is a no-op, not a re-analysis.
  ASSERT_TRUE(revived.AddRun(run1).ok());
  revived.Drain(1000);
  EXPECT_EQ(revived.Stats().analyses, 0u);
  EXPECT_EQ(revived.AggregateJson(), aggregate_before);
}

TEST(Service, TornLedgerTailRecoversPrefixAndReanalyzesTheRest) {
  TempDir traces;
  TempDir state;
  const std::string run1 = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run1).ok());
  MakeTrace(run1);

  {
    serve::AnalysisService service(FastService(state.path()));
    ASSERT_TRUE(service.Recover().ok());
    ASSERT_TRUE(service.AddRun(run1).ok());
    service.Drain(1000);
    ASSERT_EQ(service.Stats().runs_done, 1u);
  }
  // kill -9 mid-append: garbage on the ledger tail.
  const uint8_t junk[] = {0x52, 0x53, 0x57, 0x53};
  ASSERT_TRUE(AppendFile(state.path() + "/serve.ledger", junk, sizeof(junk)).ok());

  serve::AnalysisService revived(FastService(state.path()));
  ASSERT_TRUE(revived.Recover().ok());
  const auto stats = revived.Stats();
  EXPECT_EQ(stats.ledger_replayed, 1u);
  EXPECT_EQ(stats.ledger_dropped, 1u);
  // The writer truncated the junk; future appends extend a clean file.
  auto reloaded = serve::LoadLedger(state.path() + "/serve.ledger");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().records_dropped, 0u);
}

TEST(Service, AdmissionShedsNewRunsUnderLoadAndCountsThem) {
  TempDir traces;
  TempDir state;
  serve::ServiceConfig config = FastService(state.path());
  config.admission.max_inflight = 1;
  config.admission.queue_soft_limit = 1;
  config.admission.calm_evals_to_recover = 1000;  // stay down for the test

  ManualClock clock(1);
  serve::AnalysisService service(config, {}, clock.fn());
  ASSERT_TRUE(service.Recover().ok());

  // Three empty-but-present dirs: they ingest (slowly) and pressure mounts.
  std::vector<std::string> dirs;
  for (int i = 0; i < 3; i++) {
    const std::string d = traces.path() + "/run" + std::to_string(i);
    ASSERT_TRUE(MakeDirs(d).ok());
    ASSERT_TRUE(WriteFile(d + "/sword_t0.log", Bytes{1}).ok());
    dirs.push_back(d);
  }
  ASSERT_TRUE(service.AddRun(dirs[0]).ok());
  service.Tick();  // inflight >= 1: steps to throttled
  service.Tick();  // steps to shed-new
  ASSERT_TRUE(service.AddRun(dirs[1]).ok() == false);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.runs_refused, 1u);
  EXPECT_GE((service.AdmissionPacked() & 0xff), 2u);  // at least kShedNew
}

TEST(Service, StatusJsonCarriesTheWholeSurface) {
  TempDir traces;
  TempDir state;
  const std::string run = traces.path() + "/run1";
  ASSERT_TRUE(MakeDirs(run).ok());
  MakeTrace(run);
  serve::AnalysisService service(FastService(state.path()));
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.AddRun(run).ok());
  service.Drain(1000);
  const std::string json = service.StatusJson();
  EXPECT_NE(json.find("\"ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"admission\""), std::string::npos);
  EXPECT_NE(json.find("\"runs_done\":1"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("run1"), std::string::npos);
}

}  // namespace
}  // namespace sword
