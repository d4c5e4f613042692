// Deterministic chaos harness (ISSUE 7): replayable fault plans driven
// through the full tracer + salvage-analysis pipeline, the degradation
// governor's step-down/step-up behavior, and the fatal-signal trace sealer.
//
// The three invariants every fault plan must preserve:
//   1. the traced application never deadlocks or crashes because of the
//      tracer (each run here simply completing is the assertion, plus the
//      watchdog bound on producer blocking);
//   2. every produced trace salvages - TraceStore opens it in salvage mode
//      and Analyze returns Ok;
//   3. drop/degradation accounting is exact - the writer-side counters, the
//      flusher's drop records, and the meta files all reconcile.
//
// Every fault plan is a string; any failure in the matrix replays from that
// string alone (the CI chaos job prints it on failure).
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "common/rng.h"
#include "core/sword_tool.h"
#include "harness/harness.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "osl/label.h"
#include "somp/runtime.h"
#include "trace/flusher.h"
#include "trace/governor.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/seal.h"
#include "trace/writer.h"
#include "workloads/workload.h"

namespace sword {
namespace {

using testing::FaultFile;
using testing::FaultPlan;
using testing::ParseFaultPlan;

// --- fault-plan grammar ----------------------------------------------------

TEST(FaultPlanParser, ParsesEveryOp) {
  auto r = ParseFaultPlan(
      "transient=3;sync_fail=2;short=512;enospc@8192;io@4096;"
      "enospc_calls@6+10;trunc@100;flip=5:128;slow=2000@4+16;"
      "raise=segv@5;alloc_fail@3+2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FaultPlan& p = r.value();
  EXPECT_EQ(p.transient, 3u);
  EXPECT_EQ(p.sync_transient, 2u);
  EXPECT_EQ(p.short_writes, 512u);
  EXPECT_EQ(p.enospc_after_bytes, 8192u);
  EXPECT_EQ(p.io_fail_after_bytes, 4096u);
  EXPECT_EQ(p.storm_from, 6u);
  EXPECT_EQ(p.storm_count, 10u);
  EXPECT_EQ(p.truncate_after_bytes, 100u);
  EXPECT_EQ(p.flip_offset, 5u);
  EXPECT_EQ(p.flip_mask, 128u);
  EXPECT_EQ(p.slow_usec, 2000u);
  EXPECT_EQ(p.slow_from, 4u);
  EXPECT_EQ(p.slow_count, 16u);
  EXPECT_EQ(p.raise_signo, SIGSEGV);
  EXPECT_EQ(p.raise_at_call, 5u);
  EXPECT_EQ(p.alloc_fail_from, 3u);
  EXPECT_EQ(p.alloc_fail_count, 2u);
  EXPECT_EQ(p.kinds(), testing::kFaultTransient | testing::kFaultSyncTransient |
                           testing::kFaultShortWrite | testing::kFaultFailAtBytes |
                           testing::kFaultEnospcStorm | testing::kFaultTruncate |
                           testing::kFaultFlip | testing::kFaultSlow |
                           testing::kFaultRaise | testing::kFaultAllocFail);
}

TEST(FaultFileFired, ByteOffsetFaultsFireOnlyOnceReached) {
  TempDir dir;
  FaultFile fault;
  fault.EnospcAfterBytes(300);
  fault.FlipBit(/*stream_offset=*/250, /*mask=*/1);
  const std::string path = dir.path() + "/f";
  const Bytes chunk(200, 0);
  size_t written = 0;
  ASSERT_TRUE(fault.Append(path, chunk.data(), chunk.size(), &written).ok());
  EXPECT_EQ(fault.fired(), 0u);  // neither offset reached yet
  EXPECT_FALSE(fault.Append(path, chunk.data(), chunk.size(), &written).ok());
  EXPECT_EQ(fault.fired(), testing::kFaultFailAtBytes | testing::kFaultFlip);
  fault.Reset();
  EXPECT_EQ(fault.fired(), 0u);
}

TEST(FaultPlanParser, SeedExpansionIsDeterministic) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    auto a = ParseFaultPlan("seed=" + std::to_string(seed));
    auto b = ParseFaultPlan("seed=" + std::to_string(seed));
    ASSERT_TRUE(a.ok() && b.ok());
    const FaultPlan& x = a.value();
    const FaultPlan& y = b.value();
    EXPECT_EQ(x.transient, y.transient);
    EXPECT_EQ(x.sync_transient, y.sync_transient);
    EXPECT_EQ(x.short_writes, y.short_writes);
    EXPECT_EQ(x.enospc_after_bytes, y.enospc_after_bytes);
    EXPECT_EQ(x.storm_from, y.storm_from);
    EXPECT_EQ(x.storm_count, y.storm_count);
    EXPECT_EQ(x.slow_usec, y.slow_usec);
    EXPECT_EQ(x.slow_from, y.slow_from);
    EXPECT_EQ(x.slow_count, y.slow_count);
  }
  // A seed expands into at least one fault.
  auto p = ParseFaultPlan("seed=42");
  ASSERT_TRUE(p.ok());
  const FaultPlan& v = p.value();
  EXPECT_TRUE(v.transient > 0 || v.sync_transient > 0 || v.short_writes > 0 ||
              v.enospc_after_bytes != UINT64_MAX || v.storm_count > 0 ||
              v.slow_count > 0);
}

TEST(FaultPlanParser, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultPlan("bogus=1").ok());
  EXPECT_FALSE(ParseFaultPlan("transient").ok());
  EXPECT_FALSE(ParseFaultPlan("raise=wat@1").ok());
  EXPECT_FALSE(ParseFaultPlan("enospc@notanumber").ok());
}

// --- deterministic pool-allocation failure ---------------------------------

TEST(BufferPoolFault, InjectedAcquireWindowReturnsEmpty) {
  trace::BufferPool pool;
  pool.InjectAcquireFailures(/*from_call=*/2, /*count=*/2);
  Bytes a = pool.Acquire(1024);
  EXPECT_EQ(a.capacity() >= 1024, true);
  Bytes b = pool.Acquire(1024);  // call 2: injected failure
  EXPECT_EQ(b.capacity(), 0u);
  Bytes c = pool.Acquire(1024);  // call 3: injected failure
  EXPECT_EQ(c.capacity(), 0u);
  Bytes d = pool.Acquire(1024);  // window over
  EXPECT_GE(d.capacity(), 1024u);
  EXPECT_EQ(pool.acquire_failures(), 2u);
  EXPECT_EQ(pool.acquires(), 4u);
}

// --- governor state machine ------------------------------------------------

TEST(Governor, StepsDownImmediatelyAndRecoversHysteretically) {
  trace::GovernorConfig gc;
  gc.blocked_nanos_step = 1000;
  gc.calm_evals_to_recover = 3;
  trace::DegradationGovernor gov(gc);
  EXPECT_EQ(gov.level_ordinal(), 0u);

  // Pressure: one step down per evaluation, never past the last level.
  for (int i = 0; i < 5; i++) {
    gov.NoteBlockedNanos(5000);
    gov.Evaluate();
  }
  EXPECT_EQ(gov.level_ordinal(), trace::kDegradationLevels - 1);

  // Calm: one step up per full quiet streak (hysteresis), reason tagged.
  int evals = 0;
  while (gov.level_ordinal() != 0 && evals < 100) {
    gov.Evaluate();
    evals++;
  }
  EXPECT_EQ(gov.level_ordinal(), 0u);
  // 3 levels to climb, 3 calm evals each.
  EXPECT_EQ(evals, 9);

  const auto transitions = gov.Transitions();
  ASSERT_GE(transitions.size(), 6u);
  EXPECT_EQ(transitions.front().level, 1u);
  EXPECT_TRUE(transitions.front().reason & trace::kGovernorReasonBlocked);
  EXPECT_EQ(transitions.back().level, 0u);
  EXPECT_EQ(transitions.back().reason, trace::kGovernorReasonRecovered);
}

TEST(Governor, PressureResetsTheCalmStreak) {
  trace::GovernorConfig gc;
  gc.credit_stalls_step = 1;
  gc.calm_evals_to_recover = 4;
  trace::DegradationGovernor gov(gc);
  gov.NoteCreditStall();
  gov.Evaluate();
  ASSERT_EQ(gov.level_ordinal(), 1u);
  gov.Evaluate();  // calm 1
  gov.Evaluate();  // calm 2
  gov.NoteCreditStall();
  gov.Evaluate();  // pressure: streak resets, steps DOWN again
  EXPECT_EQ(gov.level_ordinal(), 2u);
  for (int i = 0; i < 3; i++) gov.Evaluate();
  EXPECT_EQ(gov.level_ordinal(), 2u);  // streak not complete yet
  gov.Evaluate();
  EXPECT_EQ(gov.level_ordinal(), 1u);
}

// --- meta seal and governor fields round-trip -------------------------------

TEST(MetaV5, CrashSealAndTransitionsRoundTrip) {
  trace::MetaFile m;
  m.thread_id = 7;
  m.log_format = trace::kTraceFormatV3;
  m.crash_sealed = true;
  m.seal_signo = SIGBUS;
  m.events_dropped = 11;
  m.bytes_dropped = 176;
  m.accesses_dropped = 3;
  m.degraded_dropped = 42;
  m.transitions.push_back({1, trace::kGovernorReasonIoLatency, 0});
  m.transitions.push_back({2, trace::kGovernorReasonPool, 2});
  m.transitions.push_back({1, trace::kGovernorReasonRecovered, 9});
  trace::IntervalMeta rec;
  rec.region = 1;
  rec.parent_region = trace::IntervalMeta::kNoParent;
  rec.label = osl::Label::Initial().Fork(0, 2);
  rec.level = 1;
  rec.data_begin = 0;
  rec.data_size = 48;
  rec.event_count = 4;
  rec.degradation_level = 2;
  rec.degraded_dropped = 42;
  m.intervals.push_back(rec);

  // The crash seal, the transitions and the totals are SWM7 records of
  // their own; each must round-trip.
  const Bytes encoded = m.Encode();
  trace::MetaFile out;
  ASSERT_TRUE(trace::MetaFile::Decode(encoded, &out).ok());
  EXPECT_EQ(out.thread_id, 7u);
  EXPECT_TRUE(out.crash_sealed);
  EXPECT_EQ(out.seal_signo, SIGBUS);
  EXPECT_EQ(out.events_dropped, 11u);
  EXPECT_EQ(out.bytes_dropped, 176u);
  EXPECT_EQ(out.accesses_dropped, 3u);
  EXPECT_EQ(out.degraded_dropped, 42u);
  ASSERT_EQ(out.transitions.size(), 3u);
  EXPECT_EQ(out.transitions[0], m.transitions[0]);
  EXPECT_EQ(out.transitions[2], m.transitions[2]);
  ASSERT_EQ(out.intervals.size(), 1u);
  EXPECT_EQ(out.intervals[0].degradation_level, 2u);
  EXPECT_EQ(out.intervals[0].degraded_dropped, 42u);
}

// --- writer-level degradation: sheds and transitions land in the meta ------

namespace {
trace::IntervalMeta SegmentMeta(uint32_t lane, uint64_t phase = 0) {
  trace::IntervalMeta m;
  m.region = 0;
  m.parent_region = trace::IntervalMeta::kNoParent;
  m.phase = phase;
  osl::Label label = osl::Label::Initial().Fork(lane, 2);
  for (uint64_t p = 0; p < phase; p++) label = label.AfterBarrier();
  m.label = label;
  m.level = 1;
  m.lane = lane;
  return m;
}
}  // namespace

TEST(GovernorWriter, SummaryLevelShedsWithExactMetaAccounting) {
  TempDir dir;
  trace::GovernorConfig gc;
  gc.credit_stalls_step = 1;
  trace::DegradationGovernor gov(gc);
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV2;  // plain events isolate the shedding
  wc.governor = &gov;
  trace::ThreadTraceWriter writer(0, wc);

  writer.BeginSegment(SegmentMeta(0));
  // Full fidelity: three sites, two events each.
  for (uint32_t pc = 1; pc <= 3; pc++) {
    writer.AppendAccess(0x1000 + pc * 64, 8, 0, pc);
    writer.AppendAccess(0x2000 + pc * 64, 8, 1, pc);
  }
  // Force kSummary (3 evaluations, each with fresh pressure).
  for (int i = 0; i < 3; i++) {
    gov.NoteCreditStall();
    gov.Evaluate();
  }
  ASSERT_EQ(gov.level(), trace::DegradationLevel::kSummary);
  // Summary-only: per-site counting starts when degradation starts, so each
  // site keeps exactly ONE more event (staying visible in the trace) and
  // sheds the rest - 3 of each site's 4 accesses here.
  uint64_t shed_expected = 0;
  for (uint32_t pc = 1; pc <= 3; pc++) {
    for (int i = 0; i < 4; i++) {
      writer.AppendAccess(0x3000 + i * 8, 8, 0, pc);
      if (i > 0) shed_expected++;
    }
  }
  // A NEW site's first access is always kept, even at kSummary.
  writer.AppendAccess(0x9000, 8, 0, /*pc=*/99);
  writer.EndSegment();
  ASSERT_TRUE(writer.Finish().ok());

  EXPECT_EQ(shed_expected, 9u);
  EXPECT_EQ(writer.degraded_dropped(), shed_expected);
  EXPECT_EQ(writer.events_logged(), 6u + 3u + 1u);

  auto bytes = ReadFileBytes(wc.meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  EXPECT_EQ(meta.degraded_dropped, shed_expected);
  ASSERT_EQ(meta.intervals.size(), 1u);
  EXPECT_EQ(meta.intervals[0].degraded_dropped, shed_expected);
  EXPECT_EQ(meta.intervals[0].degradation_level, 3u);
  EXPECT_EQ(meta.intervals[0].EventCount(), 10u);
  // The writer polls the packed governor state: three rapid back-to-back
  // transitions coalesce into one observed record at the final level (one
  // atomic word, so the level/reason pair can never be torn).
  ASSERT_GE(meta.transitions.size(), 1u);
  EXPECT_EQ(meta.transitions.back().level, 3u);
}

TEST(GovernorWriter, ShedResetsPerSegment) {
  TempDir dir;
  trace::GovernorConfig gc;
  gc.credit_stalls_step = 1;
  trace::DegradationGovernor gov(gc);
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV2;
  wc.governor = &gov;
  trace::ThreadTraceWriter writer(0, wc);

  for (int i = 0; i < 3; i++) {
    gov.NoteCreditStall();
    gov.Evaluate();
  }
  ASSERT_EQ(gov.level(), trace::DegradationLevel::kSummary);

  // Each segment keeps the FIRST event per site again: per-site state is
  // reset at the segment boundary, so no interval is ever fully silent.
  for (uint64_t phase = 0; phase < 3; phase++) {
    writer.BeginSegment(SegmentMeta(0, phase));
    writer.AppendAccess(0x1000, 8, 0, /*pc=*/5);  // kept
    writer.AppendAccess(0x1008, 8, 0, /*pc=*/5);  // shed
    writer.EndSegment();
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.events_logged(), 3u);
  EXPECT_EQ(writer.degraded_dropped(), 3u);

  auto bytes = ReadFileBytes(wc.meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 3u);
  for (const auto& rec : meta.intervals) {
    EXPECT_EQ(rec.EventCount(), 1u);
    EXPECT_EQ(rec.degraded_dropped, 1u);
    EXPECT_EQ(rec.degradation_level, 3u);
  }
}

// --- fatal-signal sealing --------------------------------------------------

TEST(Seal, SealFromSignalWritesMarkerAndSealedMeta) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV3;
  wc.crash_seal = true;
  auto writer = std::make_unique<trace::ThreadTraceWriter>(0, wc);
  ASSERT_NE(writer->seal_slot(), trace::SealRegistry::kNoSlot);
  const size_t live_before = trace::SealRegistry::Instance().live_slots();

  writer->BeginSegment(SegmentMeta(0));
  for (int i = 0; i < 32; i++) {
    writer->AppendAccess(0x1000 + i * 8, 8, i % 2, /*pc=*/uint32_t(i));
  }
  writer->EndSegment();  // the segment's record is on disk
  writer->FlushEvents();

  // The handler path, driven without dying. Everything it does is visible
  // as ordinary files afterwards.
  trace::SealRegistry::Instance().SealFromSignal(SIGSEGV);

  // Log: ends with exactly one crash marker; all frames before it intact.
  trace::SalvagePolicy salvage;
  salvage.enabled = true;
  auto reader = trace::LogReader::Open(wc.log_path, salvage);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const trace::SalvageStats& stats = reader.value().salvage_stats();
  EXPECT_EQ(stats.crash_markers, 1u);
  EXPECT_EQ(stats.crash_signo, SIGSEGV);
  EXPECT_TRUE(stats.clean());  // a seal is evidence, not damage
  EXPECT_GE(stats.frames_ok, 1u);

  // Meta: the segment's record, then the appended sealed record.
  auto meta_bytes = ReadFileBytes(wc.meta_path);
  ASSERT_TRUE(meta_bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(meta_bytes.value(), &meta).ok());
  EXPECT_TRUE(meta.crash_sealed);
  EXPECT_EQ(meta.seal_signo, SIGSEGV);
  ASSERT_EQ(meta.intervals.size(), 1u);
  EXPECT_EQ(meta.intervals[0].EventCount(), 32u);

  // A strict reader also accepts the sealed log (markers are legal frames).
  auto strict = trace::LogReader::Open(wc.log_path);
  EXPECT_TRUE(strict.ok()) << strict.status().ToString();

  // Finish() unregisters the slot: no later crash can seal the trace again.
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->seal_slot(), trace::SealRegistry::kNoSlot);
  EXPECT_EQ(trace::SealRegistry::Instance().live_slots(), live_before - 1);
}

TEST(Seal, SealedStoreAnalyzesAndReportsCrash) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.path() + "/sword_t0.log";
  wc.meta_path = dir.path() + "/sword_t0.meta";
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV3;
  wc.crash_seal = true;
  auto writer = std::make_unique<trace::ThreadTraceWriter>(0, wc);
  writer->BeginSegment(SegmentMeta(0));
  for (int i = 0; i < 16; i++) {
    writer->AppendAccess(0x2000 + i * 8, 8, 0, /*pc=*/uint32_t(i));
  }
  writer->EndSegment();
  writer->FlushEvents();
  trace::SealRegistry::Instance().SealFromSignal(SIGABRT);

  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir.path(), so);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value().integrity().crash_sealed);
  EXPECT_EQ(store.value().integrity().crash_signo, SIGABRT);
  EXPECT_EQ(store.value().integrity().crash_markers, 1u);

  offline::AnalysisResult analysis = offline::Analyze(store.value());
  EXPECT_TRUE(analysis.status.ok()) << analysis.status.ToString();

  const auto namer = [](uint32_t pc) { return "pc" + std::to_string(pc); };
  const std::string text = offline::RenderText(analysis, namer);
  EXPECT_NE(text.find("crash-sealed run"), std::string::npos) << text;
  const std::string json = offline::RenderJson(analysis, namer);
  EXPECT_NE(json.find("\"crash_sealed\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"crash_signo\":" + std::to_string(SIGABRT)),
            std::string::npos)
      << json;

  // The writer is abandoned (the "process died" shape): unregister so later
  // tests see a clean registry.
  ASSERT_TRUE(writer->Finish().ok());
}

TEST(Seal, HandlerInstallIsIdempotent) {
  trace::InstallSealHandlers();
  EXPECT_TRUE(trace::SealHandlersInstalled());
  trace::InstallSealHandlers();  // second call is a no-op
  EXPECT_TRUE(trace::SealHandlersInstalled());
}

// The real signal path: the process dies of SIGSEGV with live writers; the
// trace left behind must be crash-sealed and analyzable. The death-test
// child writes into a deterministic directory both parent and child compute
// identically (threadsafe re-execution re-runs the test body in the child).

/// Death-test child body: a live writer with one flushed segment, the seal
/// handlers installed over whatever SIGSEGV disposition the caller set, and
/// then the fatal signal.
void WriteLiveTraceThenSegv(const std::string& dir) {
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir + "/sword_t0.log";
  wc.meta_path = dir + "/sword_t0.meta";
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV3;
  wc.crash_seal = true;
  trace::ThreadTraceWriter writer(0, wc);
  writer.BeginSegment(SegmentMeta(0));
  for (int i = 0; i < 64; i++) {
    writer.AppendAccess(0x4000 + i * 8, 8, i % 2, uint32_t(i));
  }
  writer.EndSegment();
  writer.FlushEvents();
  trace::InstallSealHandlers();
  std::raise(SIGSEGV);
}

void ExpectSealedBySegv(const std::string& dir) {
  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir, so);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value().integrity().crash_sealed);
  EXPECT_EQ(store.value().integrity().crash_signo, SIGSEGV);
  EXPECT_EQ(store.value().integrity().crash_markers, 1u);
  ASSERT_EQ(store.value().thread_count(), 1u);
  EXPECT_EQ(store.value().threads()[0].meta.intervals.size(), 1u);
  EXPECT_EQ(store.value().threads()[0].meta.intervals[0].EventCount(), 64u);
  offline::AnalysisResult analysis = offline::Analyze(store.value());
  EXPECT_TRUE(analysis.status.ok()) << analysis.status.ToString();
}

TEST(SealDeath, FatalSignalSealsLiveTrace) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = "/tmp/sword_chaos_seal_death";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(MakeDirs(dir).ok());

  // The seal chains to the disposition it found. A sanitizer runtime
  // installs its own SIGSEGV handler at startup, which would turn the
  // re-raised signal into a report and exit 1; resetting to the default
  // first makes the chain end in the default action on every build.
  EXPECT_EXIT(
      {
        std::signal(SIGSEGV, SIG_DFL);
        WriteLiveTraceThenSegv(dir);
      },
      ::testing::KilledBySignal(SIGSEGV), "");

  ExpectSealedBySegv(dir);
  std::filesystem::remove_all(dir);
}

constexpr int kPriorHandlerExit = 42;
void PriorSegvHandler(int) { ::_exit(kPriorHandlerExit); }

TEST(SealDeath, SealChainsToPriorHandler) {
  // An application that installed its own SIGSEGV handler first still gets
  // it called: the seal runs, then hands the signal on.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = "/tmp/sword_chaos_seal_chain";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(MakeDirs(dir).ok());

  EXPECT_EXIT(
      {
        std::signal(SIGSEGV, &PriorSegvHandler);
        WriteLiveTraceThenSegv(dir);
      },
      ::testing::ExitedWithCode(kPriorHandlerExit), "");

  ExpectSealedBySegv(dir);
  std::filesystem::remove_all(dir);
}

// --- the chaos matrix ------------------------------------------------------

// Every plan runs the same workload under the full tracer with the fault
// injected, then salvages and analyzes the result. ≥12 plans; the CI chaos
// job sweeps these same strings across all three event formats.
const char* const kChaosPlans[] = {
    "transient=3",                        // EINTR/EAGAIN retries
    "sync_fail=2;enospc_calls@3+1",       // fsync EINTR on the gap frame
    "short=256",                          // short writes
    "enospc@6000",                        // disk fills and STAYS full
    "enospc_calls@2+4",                   // ENOSPC storm that clears
    "io@8192",                            // generic I/O failure
    "trunc@6000",                         // crash-style torn tail
    "flip=1000:16",                       // silent bit corruption
    "slow=500@2+8",                       // slow device window
    "alloc_fail@2+2",                     // buffer pool exhaustion
    "transient=2;short=512;enospc_calls@5+3",  // composed faults
    "slow=200@1+4;enospc@16384",               // slow THEN full
    "seed=1",
    "seed=2",
    "seed=3",
};

/// Every number a plan holds, in one comparable value.
auto PlanNumbers(const FaultPlan& p) {
  return std::make_tuple(
      p.transient, p.sync_transient, p.short_writes, p.enospc_after_bytes,
      p.io_fail_after_bytes, p.storm_from, p.storm_count, p.truncate_after_bytes,
      p.flip_offset, p.flip_mask, p.slow_usec, p.slow_from, p.slow_count,
      p.raise_signo, p.raise_at_call, p.alloc_fail_from, p.alloc_fail_count,
      p.read_transient, p.read_fail_from, p.read_fail_count, p.read_slow_usec,
      p.read_slow_from, p.read_slow_count);
}

/// The decimal `s` if it is one and is at most `max`. Accumulated in 128
/// bits, so it never wraps however long `s` is.
std::optional<uint64_t> Decimal(const std::string& s, uint64_t max = UINT64_MAX) {
  if (s.empty()) return std::nullopt;
  unsigned __int128 v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<unsigned>(c - '0');
    if (v > max) return std::nullopt;
  }
  return static_cast<uint64_t>(v);
}

/// "F+C" or "F" (count 1), with F + C < 2^64 + 1.
bool Window(const std::string& s, uint64_t* from, uint64_t* count) {
  const size_t plus = s.find('+');
  const auto f = Decimal(s.substr(0, plus));
  const auto c = plus == std::string::npos ? std::optional<uint64_t>(1)
                                           : Decimal(s.substr(plus + 1));
  if (!f || !c || static_cast<unsigned __int128>(*f) + *c > UINT64_MAX) return false;
  *from = *f;
  *count = *c;
  return true;
}

/// A reference reading of the grammar: the plan whose every number is the
/// decimal the spec spells, or nullopt where a number is malformed or does
/// not fit its field. Mirrors the op shapes of ParseFaultPlan, not its code.
std::optional<FaultPlan> ReferencePlan(const std::string& spec) {
  FaultPlan plan;
  std::string rest = spec;
  while (!rest.empty()) {
    const size_t end = rest.find_first_of(";,");
    const std::string op = rest.substr(0, end);
    rest = end == std::string::npos ? "" : rest.substr(end + 1);
    if (op.empty()) continue;
    const size_t eq = op.find('=');
    const size_t at = op.find('@');
    const std::string name = op.substr(0, std::min(eq, at));
    const std::string value = eq == std::string::npos ? "" : op.substr(eq + 1);
    const std::string where = at == std::string::npos ? "" : op.substr(at + 1);
    const bool has_eq = eq != std::string::npos;
    const bool has_at = at != std::string::npos;
    // NAME=VALUE@WINDOW: VALUE is what lies between the two.
    const std::string between =
        has_eq && has_at && at > eq ? op.substr(eq + 1, at - eq - 1) : "";
    const auto u32 = [](const std::string& s, uint32_t* out) {
      const auto v = Decimal(s, UINT32_MAX);
      if (v) *out = static_cast<uint32_t>(*v);
      return v.has_value();
    };
    const auto u64 = [](const std::string& s, uint64_t* out) {
      const auto v = Decimal(s);
      if (v) *out = *v;
      return v.has_value();
    };
    bool ok = false;
    if (name == "transient") {
      ok = has_eq && u32(value, &plan.transient);
    } else if (name == "sync_fail") {
      ok = has_eq && u32(value, &plan.sync_transient);
    } else if (name == "read_transient") {
      ok = has_eq && u32(value, &plan.read_transient);
    } else if (name == "short") {
      uint64_t v = 0;
      ok = has_eq && u64(value, &v);
      plan.short_writes = static_cast<size_t>(v);
    } else if (name == "enospc") {
      ok = has_at && u64(where, &plan.enospc_after_bytes);
    } else if (name == "io") {
      ok = has_at && u64(where, &plan.io_fail_after_bytes);
    } else if (name == "trunc") {
      ok = has_at && u64(where, &plan.truncate_after_bytes);
    } else if (name == "enospc_calls") {
      ok = has_at && Window(where, &plan.storm_from, &plan.storm_count);
    } else if (name == "alloc_fail") {
      ok = has_at && Window(where, &plan.alloc_fail_from, &plan.alloc_fail_count);
    } else if (name == "read_fail") {
      ok = has_at && Window(where, &plan.read_fail_from, &plan.read_fail_count);
    } else if (name == "slow") {
      ok = has_eq && has_at && at > eq && u32(between, &plan.slow_usec) &&
           Window(where, &plan.slow_from, &plan.slow_count);
    } else if (name == "read_slow") {
      ok = has_eq && has_at && at > eq && u32(between, &plan.read_slow_usec) &&
           Window(where, &plan.read_slow_from, &plan.read_slow_count);
    } else if (name == "flip") {
      // flip=OFFSET:MASK, 0 < MASK < 256
      const size_t colon = value.find(':');
      uint64_t mask = 0;
      ok = has_eq && colon != std::string::npos &&
           u64(value.substr(0, colon), &plan.flip_offset) &&
           u64(value.substr(colon + 1), &mask) && mask > 0 && mask <= 255;
      plan.flip_mask = static_cast<uint8_t>(mask);
    } else if (name == "raise") {
      const std::string sig = between;
      const int signo = sig == "segv" ? SIGSEGV : sig == "bus" ? SIGBUS
                      : sig == "abrt" ? SIGABRT : sig == "fpe" ? SIGFPE
                      : sig == "ill" ? SIGILL : sig == "term" ? SIGTERM
                      : sig == "int" ? SIGINT : 0;
      ok = has_eq && has_at && at > eq && signo != 0 && u64(where, &plan.raise_at_call);
      plan.raise_signo = signo;
    } else if (name == "seed") {
      // A seed's faults are its own expansion: compare against the seed
      // alone, laid over the ops before it.
      const auto seed = has_eq ? Decimal(value) : std::nullopt;
      ok = seed.has_value();
      if (ok) {
        const auto seeded = ParseFaultPlan("seed=" + std::to_string(*seed));
        if (!seeded.ok()) return std::nullopt;
        const FaultPlan& e = seeded.value();
        const FaultPlan none;
        if (e.transient != none.transient) plan.transient = e.transient;
        if (e.short_writes != none.short_writes) plan.short_writes = e.short_writes;
        if (e.enospc_after_bytes != none.enospc_after_bytes) {
          plan.enospc_after_bytes = e.enospc_after_bytes;
        }
        if (e.storm_count != none.storm_count) {
          plan.storm_from = e.storm_from;
          plan.storm_count = e.storm_count;
        }
        if (e.slow_count != none.slow_count) {
          plan.slow_usec = e.slow_usec;
          plan.slow_from = e.slow_from;
          plan.slow_count = e.slow_count;
        }
        if (e.sync_transient != none.sync_transient) {
          plan.sync_transient = e.sync_transient;
        }
      }
    }
    if (!ok) return std::nullopt;
  }
  return plan;
}

TEST(FaultPlanParser, RejectsNumbersThatDoNotFit) {
  // 2^64 + 1 wrapped to 1, and 2^32 + 1 narrowed to 1, before.
  for (const char* spec :
       {"transient=18446744073709551617", "transient=4294967297",
        "sync_fail=4294967297", "read_transient=4294967297",
        "slow=4294967297@1+1", "read_slow=4294967297@1+1",
        "enospc@18446744073709551616", "flip=18446744073709551616:1",
        "seed=18446744073709551616",
        // Windows whose end passes 2^64 wrapped and never fired.
        "enospc_calls@2+18446744073709551615", "read_fail@1+18446744073709551615",
        "alloc_fail@18446744073709551615+1", "slow=1@9223372036854775808+9223372036854775808"}) {
    const auto r = ParseFaultPlan(spec);
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << spec;
  }
  // The largest values that fit still parse exactly.
  const auto r = ParseFaultPlan(
      "transient=4294967295;slow=4294967295@0+18446744073709551615;"
      "enospc@18446744073709551615;read_fail@18446744073709551614+1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().transient, UINT32_MAX);
  EXPECT_EQ(r.value().slow_usec, UINT32_MAX);
  EXPECT_EQ(r.value().slow_count, UINT64_MAX);
  EXPECT_EQ(r.value().enospc_after_bytes, UINT64_MAX);
  EXPECT_EQ(r.value().read_fail_from, UINT64_MAX - 1);
}

TEST(FaultPlanParser, FuzzedSpecsParseExactlyOrFailCleanly) {
  // Seeded from the specs the tests and the serve soak already use.
  std::vector<std::string> corpus = {
      "transient=3;sync_fail=2;short=512;enospc@8192;io@4096;"
      "enospc_calls@6+10;trunc@100;flip=5:128;slow=2000@4+16;"
      "raise=segv@5;alloc_fail@3+2",
      "read_transient=3;read_fail@5+2;read_slow=100@1+2",
      "read_slow=2000@1+40",
      "read_transient=2;transient=1;read_slow=1000@2+10",
      "transient=2;slow=500@1+20",
      "seed=42",
      "raise=wat@1",
      "enospc@notanumber",
  };
  for (const char* plan : kChaosPlans) corpus.push_back(plan);

  uint64_t accepted = 0, rejected = 0;
  const auto check = [&](const std::string& spec) {
    SCOPED_TRACE("spec: '" + spec + "'");
    const auto parsed = ParseFaultPlan(spec);
    const auto expected = ReferencePlan(spec);
    ASSERT_EQ(parsed.ok(), expected.has_value()) << parsed.status().ToString();
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
      rejected++;
      return;
    }
    accepted++;
    EXPECT_EQ(PlanNumbers(parsed.value()), PlanNumbers(*expected));
    EXPECT_EQ(parsed.value().spec, spec);
    // Installing any accepted plan is safe; no I/O runs through it here.
    FaultFile fault;
    parsed.value().ApplyTo(fault);
    EXPECT_EQ(fault.fired(), 0u);
  };

  for (const std::string& spec : corpus) {
    for (size_t len = 0; len <= spec.size(); len++) check(spec.substr(0, len));
  }
  const std::string alphabet = "0123456789=@+:;,_segvreadtransientslowflip";
  Rng rng(20261020);
  for (int trial = 0; trial < 600; trial++) {
    std::string spec = corpus[rng.Below(corpus.size())];
    const uint64_t edits = 1 + rng.Below(3);
    for (uint64_t e = 0; e < edits; e++) {
      const size_t at = static_cast<size_t>(rng.Below(spec.size() + 1));
      switch (rng.Below(4)) {
        case 0:  // replace a byte (any byte value)
          if (at < spec.size()) spec[at] = static_cast<char>(rng.Below(256));
          break;
        case 1:  // replace a byte with one the grammar uses
          if (at < spec.size()) spec[at] = alphabet[rng.Below(alphabet.size())];
          break;
        case 2:  // insert digits: pushes numbers past their field width
          spec.insert(at, std::string(1 + rng.Below(20), static_cast<char>('0' + rng.Below(10))));
          break;
        case 3:  // delete a byte
          if (at < spec.size()) spec.erase(at, 1);
          break;
      }
    }
    check(spec);
  }
  // Both outcomes occur.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<uint8_t, const char*>> {};

TEST_P(ChaosMatrix, TracerSurvivesAndAccountingReconciles) {
  const uint8_t format = std::get<0>(GetParam());
  const std::string plan = std::get<1>(GetParam());
  SCOPED_TRACE("fault plan: " + plan + " format v" + std::to_string(format));

  TempDir dir;
  harness::RunConfig config;
  config.tool = harness::ToolKind::kSword;
  config.params.threads = 4;
  // c_GraphSearch's random neighbour reads stay one event each in every
  // format, so even the v3 trace runs to ~180 KB in ~30 flushes: past every
  // byte offset and append call the plans name. (A strided kernel's v2/v3
  // trace compresses to a few hundred bytes and would reach none of them.)
  config.params.size = 2000;
  config.sword.buffer_bytes = 16 * 1024;  // small buffers so the faults hit
  config.sword.trace_format = format;
  config.sword.out_dir = dir.path();
  config.fault_plan = plan;
  config.sword.adaptive_degradation = true;
  config.sword.watchdog_ms = 2000;

  // Invariant 1: the run COMPLETES - the tracer neither deadlocks nor
  // crashes the traced application, whatever the backend does.
  const auto result = harness::RunByName("ompscr", "c_GraphSearch", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const harness::RunResult& r = result.value();

  // Every fault the plan names took effect: a trace too small to reach a
  // byte offset or a call number would pass the invariants below vacuously.
  const auto parsed = ParseFaultPlan(plan);
  ASSERT_TRUE(parsed.ok());
  const uint32_t wanted = parsed.value().kinds();
  EXPECT_EQ(r.faults_fired & wanted, wanted)
      << "fault kinds that never fired: 0x" << std::hex
      << (wanted & ~r.faults_fired);

  // Invariant 2: whatever hit the disk salvages and analyzes.
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir.path(), so);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  offline::AnalysisResult analysis = offline::Analyze(store.value());
  EXPECT_TRUE(analysis.status.ok()) << analysis.status.ToString();

  // Invariant 3: exact accounting. The byte-stream and call-numbered faults
  // do not reach meta appends (only the transient knob does, and the retry
  // absorbs it), so unless a meta was lost wholesale the three ledgers must
  // agree to the event.
  const offline::TraceIntegrity& integ = store.value().integrity();
  if (integ.threads_missing_meta == 0 && integ.meta_records_rejected == 0) {
    uint64_t meta_events = 0;
    uint64_t meta_record_drops = 0;
    uint64_t meta_degraded = 0;
    for (const auto& t : store.value().threads()) {
      for (const auto& rec : t.meta.intervals) meta_events += rec.EventCount();
      meta_record_drops += t.meta.events_dropped;
      meta_degraded += t.meta.degraded_dropped;
    }
    // Writer-side event count == meta claims (drops happen AFTER counting).
    EXPECT_EQ(meta_events, r.events);
    // Flusher drop ledger == meta drop ledger.
    EXPECT_EQ(meta_record_drops, r.flusher.events_dropped);
    // Governor/pool shed ledger == meta degradation ledger.
    EXPECT_EQ(meta_degraded, r.degraded_dropped);
  }

  // Watchdog bound: no producer ever blocked past (deadline x blocks),
  // with 4x slack for scheduler noise around the timed waits - on a loaded
  // CI box a timed wait can overshoot its deadline by a full scheduling
  // quantum or more, and this invariant is about BOUNDED blocking, not
  // precise timing.
  const uint64_t deadline_nanos = config.sword.watchdog_ms * 1'000'000ull;
  EXPECT_LE(r.flusher.blocked_nanos,
            4 * deadline_nanos *
                (r.flusher.producer_blocks + r.flusher.watchdog_drops + 1));
}

INSTANTIATE_TEST_SUITE_P(
    PlansByFormat, ChaosMatrix,
    ::testing::Combine(::testing::Values(trace::kTraceFormatV1,
                                         trace::kTraceFormatV2,
                                         trace::kTraceFormatV3),
                       ::testing::ValuesIn(kChaosPlans)));

// --- governor end-to-end: ENOSPC storm + slow I/O steps down and back up --

struct GovernorWorkload {
  uint8_t format;
  const char* suite;
  const char* name;
  uint64_t size;
};

class GovernorIntegration : public ::testing::TestWithParam<GovernorWorkload> {};

TEST_P(GovernorIntegration, EnospcAndSlowIoStepDownThenRecover) {
  const GovernorWorkload& gw = GetParam();
  const workloads::Workload* w =
      workloads::WorkloadRegistry::Get().Find(gw.suite, gw.name);
  ASSERT_NE(w, nullptr);

  TempDir dir;
  FaultFile fault;
  // Slow window + ENOSPC storm wide enough to cover EVERY phase-1 append:
  // the latency EWMA and the drop pressure both trip the governor, and it
  // cannot quietly recover before the phase ends. The injected latency sits
  // 4x above the step threshold so the EWMA trips even when a loaded CI box
  // stretches or shrinks individual usleep calls.
  fault.SlowAppends(/*usec=*/20'000, /*from_call=*/1, /*count=*/100'000);
  fault.EnospcAppends(/*from_call=*/3, /*count=*/6);

  core::SwordConfig sc;
  sc.out_dir = dir.path();
  // Tiny 16-event buffers: even a summary-degraded run still fills and
  // flushes them, which is what feeds the latency EWMA the fast appends it
  // needs to decay (recovery is driven by OBSERVED I/O, not wall clock).
  sc.buffer_bytes = 256;
  sc.trace_format = gw.format;
  sc.async_flush = false;  // inline flush: fully deterministic Evaluate cadence
  sc.backend = &fault;
  sc.adaptive_degradation = true;
  // 5 ms: far enough above real-disk append latency that ONLY the injected
  // 20 ms slowdowns can trip it (a busy CI filesystem alone must not), and
  // far enough below 20 ms that the pressure phase always does.
  sc.governor_config.io_latency_step_nanos = 5'000'000;  // 5 ms
  sc.governor_config.calm_evals_to_recover = 2;
  sc.watchdog_ms = 500;
  core::SwordTool tool(sc);

  somp::RuntimeConfig rc;
  rc.tool = &tool;
  rc.default_threads = 4;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);

  workloads::WorkloadParams params;
  params.threads = 4;
  params.size = gw.size;  // many flushes mid-run
  w->run(params);  // pressure phase: slow + ENOSPC appends

  ASSERT_NE(tool.governor(), nullptr);
  const uint8_t pressured_level = tool.governor()->level_ordinal();
  EXPECT_GT(pressured_level, 0u) << "governor never stepped down";

  // Pressure clears; run the workload again so fast appends decay the
  // latency EWMA and writers OBSERVE the recovery transitions.
  fault.Reset();
  // The EWMA decays at alpha 1/4 per observed flush, so recovery needs a
  // number of FLUSHES, not wall-clock time; 200 rounds is an order of
  // magnitude past the worst decay path and exists only to bound a hang.
  int rounds = 0;
  while (tool.governor()->level_ordinal() != 0 && rounds < 200) {
    w->run(params);
    rounds++;
  }
  EXPECT_EQ(tool.governor()->level_ordinal(), 0u)
      << "governor never recovered after " << rounds << " calm rounds";

  const auto transitions = tool.governor()->Transitions();
  bool saw_down = false, saw_up = false;
  for (const auto& t : transitions) {
    if (t.reason & (trace::kGovernorReasonIoLatency |
                    trace::kGovernorReasonBlocked |
                    trace::kGovernorReasonCredit | trace::kGovernorReasonPool |
                    trace::kGovernorReasonWatchdog)) {
      saw_down = true;
    }
    if (t.reason == trace::kGovernorReasonRecovered) saw_up = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);

  // The ENOSPC drops make the sticky flusher status non-OK by design:
  // Finalize reports that SOMETHING was lost; the drop ledgers say what.
  const Status fin = tool.Finalize();
  EXPECT_FALSE(fin.ok());
  somp::RuntimeConfig off;
  off.tool = nullptr;
  somp::Runtime::Get().Configure(off);

  // The meta files carry the same story: at least one down transition and
  // at least one recovery, so offline reports can annotate the intervals.
  offline::StoreOptions so;
  so.salvage = true;
  auto store = offline::TraceStore::OpenDir(dir.path(), so);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  bool meta_down = false, meta_up = false;
  for (const auto& t : store.value().threads()) {
    for (const auto& tr : t.meta.transitions) {
      if (tr.reason == trace::kGovernorReasonRecovered) meta_up = true;
      else if (tr.level > 0) meta_down = true;
    }
  }
  EXPECT_TRUE(meta_down) << "no writer recorded a step-down in its meta";
  EXPECT_TRUE(meta_up) << "no writer recorded the recovery in its meta";
  EXPECT_GT(store.value().integrity().degradation_transitions, 0u);
}

// Each workload must fill the 16-event buffers many times per run in its
// format. truedep1 at v2 logs ~1k accesses per thread; at v3 the per-site
// coalescer folds its alternating a[i-1]/a[i] sweeps into two runs per
// segment, so the v3 row runs c_GraphSearch, whose random neighbour reads
// stay one event each.
INSTANTIATE_TEST_SUITE_P(
    Formats, GovernorIntegration,
    ::testing::Values(
        GovernorWorkload{trace::kTraceFormatV2, "drb", "truedep1-orig-yes", 2'000},
        GovernorWorkload{trace::kTraceFormatV3, "ompscr", "c_GraphSearch", 2'000}),
    [](const ::testing::TestParamInfo<GovernorWorkload>& info) {
      return std::string("V").append(std::to_string(info.param.format));
    });

// --- satellite (a): unified fsync retry path is counted -------------------

TEST(FlusherRetry, GapFrameSyncRetriesAreCounted) {
  TempDir dir;
  FaultFile fault;
  fault.EnospcAppends(/*from_call=*/1, /*count=*/1);  // one drop -> gap frame
  fault.SyncTransientErrors(2);  // the gap-frame fsync must retry twice

  trace::FlusherConfig fc;
  fc.async = false;
  fc.backend = &fault;
  fc.retry_backoff_us = 0;  // deterministic: no sleeping between retries
  trace::Flusher flusher(fc);
  Bytes raw;
  for (int i = 0; i < 256; i++) raw.push_back(uint8_t(i & 0x3f));
  flusher.AppendFrame(dir.File("t.log"), std::move(raw), FindCompressor("raw"),
                      trace::kTraceFormatV3, /*event_count=*/16);
  Bytes raw2;
  for (int i = 0; i < 256; i++) raw2.push_back(uint8_t(i & 0x3f));
  flusher.AppendFrame(dir.File("t.log"), std::move(raw2), FindCompressor("raw"),
                      trace::kTraceFormatV3, /*event_count=*/16);
  flusher.Drain();

  const trace::FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.events_dropped, 16u);
  EXPECT_GE(stats.gap_frames, 1u);
  EXPECT_GE(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_retries, 2u);
}

}  // namespace
}  // namespace sword
