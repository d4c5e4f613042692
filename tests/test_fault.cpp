// Fault-injection tests for the crash-tolerant trace-writing pipeline:
// the FaultFile backend itself, retry-on-transient-failure, ENOSPC
// drop-with-accounting (gap frames, sticky status, exact counters),
// torn-frame rollback, incremental meta checkpoints, and the record log the
// journal and the serve ledger share.
//
// Everything here is deterministic: faults are keyed on cumulative bytes
// appended or on call numbers, flushers run synchronously, and retry backoff
// is set to zero - no timing assumptions. (The one sleep, in the concurrent
// storm-window test, only widens the gap the test needs other threads in;
// its expected outcome does not depend on how long they take.)
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "compress/compressor.h"
#include "offline/journal.h"
#include "serve/ledger.h"
#include "trace/event.h"
#include "trace/flusher.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword::trace {
namespace {

RetryPolicy FastRetry(uint32_t max_attempts = 5) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_us = 0;
  return p;
}

Bytes EncodeV1Events(uint32_t base_pc, uint64_t count) {
  Bytes out;
  ByteWriter w(&out);
  for (uint64_t i = 0; i < count; i++) {
    EncodeEvent(RawEvent::Access(0x1000 + i * 16, 8, 1, base_pc + uint32_t(i)), w);
  }
  return out;
}

// --- the FaultFile backend itself -----------------------------------------

TEST(FaultFile, TransientErrorsFailThenSucceed) {
  TempDir dir;
  const std::string path = dir.File("f.bin");
  testing::FaultFile ff;
  ff.TransientErrors(2);
  const Bytes data{1, 2, 3, 4};
  const AppendOutcome out = AppendWithRetry(ff, path, data.data(), data.size(),
                                            FastRetry());
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.retries, 2u);
  EXPECT_EQ(out.written, 4u);
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(FaultFile, TransientErrorsExhaustRetries) {
  TempDir dir;
  testing::FaultFile ff;
  ff.TransientErrors(10);
  const Bytes data{1, 2, 3};
  const AppendOutcome out = AppendWithRetry(ff, dir.File("f.bin"), data.data(),
                                            data.size(), FastRetry(3));
  EXPECT_EQ(out.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(out.written, 0u);
  EXPECT_FALSE(FileExists(dir.File("f.bin")));
}

TEST(FaultFile, ShortWritesCompleteFromPrefix) {
  TempDir dir;
  const std::string path = dir.File("f.bin");
  testing::FaultFile ff;
  ff.ShortWrites(3);  // every call lands at most 3 bytes
  Bytes data;
  for (uint8_t i = 0; i < 20; i++) data.push_back(i);
  const AppendOutcome out = AppendWithRetry(ff, path, data.data(), data.size(),
                                            FastRetry());
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.written, 20u);
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(FaultFile, EnospcFailsOnceStreamOffsetReached) {
  TempDir dir;
  const std::string path = dir.File("f.bin");
  testing::FaultFile ff;
  ff.EnospcAfterBytes(6);  // 6 bytes of disk left
  const Bytes data{0, 1, 2, 3};
  size_t written = 0;
  ASSERT_TRUE(ff.Append(path, data.data(), data.size(), &written).ok());
  // Second append: only 2 bytes fit.
  const Status s = ff.Append(path, data.data(), data.size(), &written);
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(written, 2u);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 6u);
}

TEST(FaultFile, StormWindowFiresExactlyOnceUnderConcurrentAppends) {
  // A one-call ENOSPC storm window (enospc_calls@k+1) must fail exactly one
  // append however the calls of concurrent threads interleave. Call k also
  // sleeps between its bookkeeping and its fault decision, so the other
  // threads' calls land in that gap: a decision that read the shared call
  // counter instead of the call's own number would then skip the window.
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 3;
  for (uint64_t k = 1; k <= kThreads * kAppendsPerThread; k++) {
    TempDir dir;
    testing::FaultFile ff;
    ff.EnospcAppends(k, 1);
    ff.SlowAppends(2000, k, 1);
    std::atomic<int> nospace{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        const std::string path =
            dir.File(std::string("t").append(std::to_string(t)).append(".bin"));
        const uint8_t byte = static_cast<uint8_t>(t);
        for (int i = 0; i < kAppendsPerThread; i++) {
          size_t written = 0;
          const Status st = ff.Append(path, &byte, 1, &written);
          if (st.code() == ErrorCode::kNoSpace) nospace++;
        }
      });
    }
    go = true;
    for (auto& th : threads) th.join();
    EXPECT_EQ(nospace.load(), 1) << "window at call " << k;
    EXPECT_EQ(ff.append_calls(), uint64_t{kThreads * kAppendsPerThread});
  }
}

TEST(FaultFile, BitFlipCorruptsExactStreamOffset) {
  TempDir dir;
  const std::string path = dir.File("f.bin");
  testing::FaultFile ff;
  ff.FlipBit(5, 0x80);
  const Bytes data{10, 11, 12, 13, 14, 15, 16, 17};
  size_t written = 0;
  ASSERT_TRUE(ff.Append(path, data.data(), data.size(), &written).ok());
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < data.size(); i++) {
    EXPECT_EQ(back.value()[i], i == 5 ? (data[i] ^ 0x80) : data[i]);
  }
}

TEST(FaultFile, TruncateAfterBytesSwallowsSilently) {
  TempDir dir;
  const std::string path = dir.File("f.bin");
  testing::FaultFile ff;
  ff.TruncateAfterBytes(5);
  const Bytes data{1, 2, 3, 4, 5, 6, 7, 8};
  size_t written = 0;
  // The caller is told everything was written (crash-style lie)...
  ASSERT_TRUE(ff.Append(path, data.data(), data.size(), &written).ok());
  EXPECT_EQ(written, 8u);
  EXPECT_EQ(ff.bytes_lost(), 3u);
  // ...but only the prefix reached the file.
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 5u);
}

// --- flusher behavior under injected faults -------------------------------

FlusherConfig FaultyConfig(testing::FaultFile* ff) {
  FlusherConfig fc;
  fc.async = false;
  fc.backend = ff;
  fc.retry_backoff_us = 0;  // deterministic: no sleeping between retries
  return fc;
}

TEST(FlusherFault, TransientAppendErrorsAreRetriedInvisibly) {
  TempDir dir;
  const std::string path = dir.File("t.log");
  testing::FaultFile ff;
  Flusher flusher(FaultyConfig(&ff));
  ff.TransientErrors(2);
  flusher.AppendFrame(path, EncodeV1Events(100, 10), FindCompressor("raw"),
                      kTraceFormatV1, 10);
  ASSERT_TRUE(flusher.status().ok()) << flusher.status().ToString();
  EXPECT_GE(flusher.stats().io_retries, 2u);
  EXPECT_EQ(flusher.stats().frames_dropped, 0u);
  auto reader = LogReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().frame_count(), 1u);
  EXPECT_EQ(reader.value().total_logical_bytes(), 160u);
}

TEST(FlusherFault, EnospcDropsFrameWithExactAccountingAndGapMarker) {
  TempDir dir;
  const std::string path = dir.File("t.log");
  testing::FaultFile ff;
  Flusher flusher(FaultyConfig(&ff));
  const Compressor* raw = FindCompressor("raw");

  flusher.AppendFrame(path, EncodeV1Events(100, 10), raw, kTraceFormatV1, 10);
  ASSERT_TRUE(flusher.status().ok());
  const uint64_t disk_after_frame1 = FileSize(path).value();

  ff.EnospcAfterBytes(ff.bytes_written());  // disk is now full
  flusher.AppendFrame(path, EncodeV1Events(200, 10), raw, kTraceFormatV1, 10);

  // Sticky error + exact drop accounting; the file was rolled back so no
  // torn bytes remain.
  EXPECT_EQ(flusher.status().code(), ErrorCode::kNoSpace);
  FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.events_dropped, 10u);
  EXPECT_EQ(stats.bytes_dropped, 160u);
  EXPECT_EQ(FileSize(path).value(), disk_after_frame1);
  const DropRecord drops = flusher.DroppedFor(path);
  EXPECT_EQ(drops.frames, 1u);
  EXPECT_EQ(drops.events, 10u);
  EXPECT_EQ(drops.raw_bytes, 160u);

  // Space comes back; the next frame is preceded by a gap marker so its
  // logical offset stays trustworthy.
  ff.Reset();
  flusher.AppendFrame(path, EncodeV1Events(300, 10), raw, kTraceFormatV1, 10);
  EXPECT_EQ(flusher.stats().gap_frames, 1u);
  EXPECT_EQ(flusher.stats().frames_dropped, 1u);  // unchanged

  // Strict open: gap frames are legal (the writer was honest about the
  // loss); only streaming OVER the hole errors.
  auto strict = LogReader::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict.value().frame_count(), 3u);  // frame, gap, frame
  EXPECT_EQ(strict.value().total_logical_bytes(), 480u);
  std::vector<RawEvent> events;
  EXPECT_FALSE(strict.value().ReadRange(0, 480, &events).ok());
  // The surviving frames stream fine at their original logical offsets.
  events.clear();
  ASSERT_TRUE(strict.value().ReadRange(320, 160, &events).ok());
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events[0].pc, 300u);

  // Salvage open: the hole is skipped and accounted; injected == reported.
  SalvagePolicy policy;
  policy.enabled = true;
  auto salvaged = LogReader::Open(path, policy);
  ASSERT_TRUE(salvaged.ok());
  const SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_EQ(ss.gap_frames, 1u);
  EXPECT_EQ(ss.events_dropped_at_record, 10u);
  EXPECT_EQ(ss.bytes_dropped_at_record, 160u);
  EXPECT_EQ(ss.frames_ok, 2u);
  uint64_t skipped = 0;
  events.clear();
  ASSERT_TRUE(salvaged.value()
                  .StreamRange(0, 480, [&](const RawEvent& e) { events.push_back(e); },
                               nullptr, &skipped)
                  .ok());
  EXPECT_EQ(skipped, 160u);
  ASSERT_EQ(events.size(), 20u);
  EXPECT_EQ(events[0].pc, 100u);
  EXPECT_EQ(events[10].pc, 300u);
}

TEST(FlusherFault, FailedPartialAppendRollsBackTornFrame) {
  TempDir dir;
  const std::string path = dir.File("t.log");
  testing::FaultFile ff;
  Flusher flusher(FaultyConfig(&ff));
  const Compressor* raw = FindCompressor("raw");

  flusher.AppendFrame(path, EncodeV1Events(100, 10), raw, kTraceFormatV1, 10);
  ASSERT_TRUE(flusher.status().ok());
  const uint64_t clean_size = FileSize(path).value();

  // The next frame dies 10 bytes in: a hard error after a partial write.
  ff.FailAfterBytes(ff.bytes_written() + 10, ErrorCode::kIoError);
  flusher.AppendFrame(path, EncodeV1Events(200, 10), raw, kTraceFormatV1, 10);
  EXPECT_EQ(flusher.status().code(), ErrorCode::kIoError);
  // Rollback: the torn 10-byte prefix was truncated away, so the log still
  // ends on a frame boundary and strict readers stay happy.
  EXPECT_EQ(FileSize(path).value(), clean_size);
  auto strict = LogReader::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict.value().frame_count(), 1u);

  ff.Reset();
  flusher.AppendFrame(path, EncodeV1Events(300, 10), raw, kTraceFormatV1, 10);
  auto after = LogReader::Open(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().frame_count(), 3u);  // frame, gap, frame
  EXPECT_EQ(after.value().salvage_stats().gap_frames, 1u);
}

// --- writer-level crash consistency ---------------------------------------

TEST(WriterFault, MetaIsCheckpointedAtEveryBarrierInterval) {
  TempDir dir;
  Flusher flusher(/*async=*/false);
  WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.buffer_bytes = 4096;
  wc.flusher = &flusher;
  wc.format = kTraceFormatV1;
  ThreadTraceWriter writer(0, wc);

  // Even before any segment closes there is a valid (empty) checkpoint, so
  // a process killed instantly still leaves a well-formed trace.
  {
    MetaFile m;
    auto bytes = ReadFileBytes(wc.meta_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(MetaFile::Decode(bytes.value(), &m).ok());
    EXPECT_EQ(m.intervals.size(), 0u);
  }

  IntervalMeta seg;
  seg.label = osl::Label::Initial().Fork(0, 2);
  for (int k = 0; k < 3; k++) {
    writer.BeginSegment(seg);
    writer.Append(RawEvent::Access(0x1000, 8, 1, 11));
    writer.EndSegment();
    // The checkpoint on disk reflects every CLOSED segment - no Finish()
    // needed. This is what a kill -9 after this point would leave behind.
    MetaFile m;
    auto bytes = ReadFileBytes(wc.meta_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(MetaFile::Decode(bytes.value(), &m).ok());
    EXPECT_EQ(m.intervals.size(), static_cast<size_t>(k + 1));
  }
  ASSERT_TRUE(writer.Finish().ok());
}

TEST(WriterFault, DropTotalsLandInMetaV3Header) {
  TempDir dir;
  testing::FaultFile ff;
  Flusher flusher(FaultyConfig(&ff));
  WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.buffer_bytes = 160;  // 10 v1 events per frame
  wc.flusher = &flusher;
  wc.format = kTraceFormatV1;
  ThreadTraceWriter writer(0, wc);

  auto segment = [&](uint32_t base_pc, uint64_t lane_phase) {
    IntervalMeta seg;
    osl::Label label = osl::Label::Initial().Fork(0, 2);
    for (uint64_t p = 0; p < lane_phase; p++) label = label.AfterBarrier();
    seg.phase = lane_phase;
    seg.label = label;
    writer.BeginSegment(seg);
    for (uint32_t i = 0; i < 10; i++) {
      writer.Append(RawEvent::Access(0x1000 + i * 16, 8, 1, base_pc + i));
    }
    writer.EndSegment();
  };

  segment(100, 0);
  writer.FlushEvents();  // frame 1 on disk
  ASSERT_TRUE(flusher.status().ok());

  ff.EnospcAfterBytes(ff.bytes_written());  // disk full
  segment(200, 1);
  writer.FlushEvents();  // frame 2 dropped, accounted
  EXPECT_EQ(flusher.status().code(), ErrorCode::kNoSpace);

  ff.Reset();  // space back
  segment(300, 2);
  ASSERT_TRUE(writer.Finish().ok());  // gap marker + frame 3 + final meta

  // The final meta's v3 header carries the exact loss: injected == reported.
  MetaFile m;
  auto bytes = ReadFileBytes(wc.meta_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(MetaFile::Decode(bytes.value(), &m).ok());
  EXPECT_EQ(m.events_dropped, 10u);
  EXPECT_EQ(m.bytes_dropped, 160u);
  ASSERT_EQ(m.intervals.size(), 3u);
  // All three records keep their original logical coordinates; the dropped
  // one addresses the gap.
  EXPECT_EQ(m.intervals[0].data_begin, 0u);
  EXPECT_EQ(m.intervals[1].data_begin, 160u);
  EXPECT_EQ(m.intervals[2].data_begin, 320u);
}

/// Closes one single-access segment at phase `phase`.
void CloseSegment(ThreadTraceWriter& writer, uint64_t phase) {
  IntervalMeta seg;
  osl::Label label = osl::Label::Initial().Fork(0, 2);
  for (uint64_t p = 0; p < phase; p++) label = label.AfterBarrier();
  seg.phase = phase;
  seg.label = label;
  writer.BeginSegment(seg);
  writer.Append(RawEvent::Access(0x1000 + phase * 16, 8, 1, 11));
  writer.EndSegment();
}

MetaFile DecodeMetaAt(const std::string& path) {
  MetaFile m;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  if (bytes.ok()) {
    EXPECT_TRUE(MetaFile::Decode(bytes.value(), &m).ok());
  }
  return m;
}

TEST(WriterFault, FailedMetaWritesStayQueuedAndHealAtTheNextCheckpoint) {
  TempDir dir;
  testing::FaultFile ff;
  Flusher flusher(/*async=*/false);
  WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.flusher = &flusher;
  wc.format = kTraceFormatV1;
  wc.backend = &ff;

  // The log's truncation and the meta's creation both fail: the header
  // record stays queued and no meta exists yet.
  ff.TransientErrors(2);
  ThreadTraceWriter writer(0, wc);
  EXPECT_FALSE(FileExists(wc.meta_path));

  // The first checkpoint creates the meta with the header and the record.
  CloseSegment(writer, 0);
  EXPECT_EQ(DecodeMetaAt(wc.meta_path).intervals.size(), 1u);

  // Transient errors past the retry budget (5 attempts): the record stays
  // queued, and the file keeps its last clean state.
  ff.TransientErrors(RetryPolicy{}.max_attempts);
  CloseSegment(writer, 1);
  EXPECT_EQ(DecodeMetaAt(wc.meta_path).intervals.size(), 1u);

  // The next successful checkpoint writes the queued record ahead of its
  // own, in order.
  CloseSegment(writer, 2);
  const MetaFile healed = DecodeMetaAt(wc.meta_path);
  ASSERT_EQ(healed.intervals.size(), 3u);
  for (uint64_t k = 0; k < 3; k++) {
    EXPECT_EQ(healed.intervals[k].phase, k);
    EXPECT_EQ(healed.intervals[k].data_begin, k * kEventBytes);
  }

  // A record that is still queued when the trace finishes is Finish's
  // error.
  ff.TransientErrors(1000);
  CloseSegment(writer, 3);
  EXPECT_EQ(writer.Finish().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(DecodeMetaAt(wc.meta_path).intervals.size(), 3u);
}

/// Counts the meta file's whole-file creations and appends.
class CountingBackend final : public FileBackend {
 public:
  explicit CountingBackend(std::string meta_path) : meta_(std::move(meta_path)) {}

  Status Append(const std::string& path, const uint8_t* data, size_t n,
                size_t* written) override {
    if (path == meta_) appends++;
    return RealFileBackend().Append(path, data, n, written);
  }
  Status WriteWhole(const std::string& path, const Bytes& data) override {
    return RealFileBackend().WriteWhole(path, data);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    if (to == meta_) renames++;
    return RealFileBackend().Rename(from, to);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return RealFileBackend().Truncate(path, size);
  }
  Status Sync(const std::string& path) override { return RealFileBackend().Sync(path); }
  Result<Bytes> ReadWhole(const std::string& path) override {
    return RealFileBackend().ReadWhole(path);
  }
  Result<uint64_t> Size(const std::string& path) override {
    return RealFileBackend().Size(path);
  }
  bool Exists(const std::string& path) override { return RealFileBackend().Exists(path); }

  uint64_t appends = 0;
  uint64_t renames = 0;

 private:
  const std::string meta_;
};

TEST(WriterFault, MetaIsCreatedOnceThenOnlyAppended) {
  TempDir dir;
  CountingBackend backend(dir.File("t0.meta"));
  Flusher flusher(/*async=*/false);
  WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.flusher = &flusher;
  wc.format = kTraceFormatV1;
  wc.backend = &backend;
  ThreadTraceWriter writer(0, wc);
  for (uint64_t k = 0; k < 5; k++) CloseSegment(writer, k);
  ASSERT_TRUE(writer.Finish().ok());
  // One atomic creation for the header, then one append per closed
  // segment; the unchanged (zero) drop totals add no record.
  EXPECT_EQ(backend.renames, 1u);
  EXPECT_EQ(backend.appends, 5u);
  EXPECT_EQ(DecodeMetaAt(wc.meta_path).intervals.size(), 5u);
}

// --- the shared record log: journal and ledger bytes ----------------------

RaceReport PinnedRace(uint32_t pc1, uint32_t pc2) {
  RaceReport r;
  r.pc1 = pc1;
  r.pc2 = pc2;
  r.address = 0x7ffd0000u + pc1 * 8;
  r.size1 = 4;
  r.size2 = 8;
  r.write1 = true;
  r.write2 = (pc2 & 1) != 0;
  return r;
}

offline::JournalHeader PinnedJournalHeader() {
  offline::JournalHeader h;
  h.shard_index = 1;
  h.shard_count = 2;
  h.salvage = 1;
  h.bucket_deadline_ms = 250;
  h.max_tree_bytes = 1u << 20;
  h.thread_count = 4;
  h.total_intervals = 77;
  h.total_log_bytes = 123456;
  return h;
}

offline::JournalBucketRecord PinnedBucket(uint64_t ordinal) {
  offline::JournalBucketRecord rec;
  rec.ordinal = ordinal;
  rec.flags = static_cast<uint8_t>(ordinal);
  for (uint64_t k = 0; k <= ordinal; k++) {
    rec.races.push_back(PinnedRace(uint32_t(10 * ordinal + k), uint32_t(20 + k)));
  }
  rec.trees_built = 3 + ordinal;
  rec.tree_nodes = 300 + ordinal;
  rec.raw_events = 5000 + ordinal;
  rec.label_pairs_checked = 6 + ordinal;
  rec.concurrent_pairs = 5 + ordinal;
  rec.node_pairs_ranged = 40 + ordinal;
  rec.fastpath_hits = 39 + ordinal;
  rec.dedup_hits = 2 + ordinal;
  rec.dedup_bytes_saved = 1024 + ordinal;
  rec.duplicates_suppressed = ordinal;
  rec.segments_skipped = ordinal / 2;
  rec.events_missing = 7 * ordinal;
  rec.bytes_skipped_read = 11 * ordinal;
  rec.tree_bytes = 65536 + ordinal;
  return rec;
}

serve::LedgerRecord PinnedLedgerRecord(uint32_t k) {
  serve::LedgerRecord rec;
  rec.verdict.run = "run" + std::to_string(k);
  rec.verdict.fingerprint = 0x1234567890abcdefull + k;
  rec.dir = "/traces/run" + std::to_string(k);
  if (k == 1) {
    rec.quarantine = 3;  // contained, not analyzed: no races
    rec.verdict.status = Status::Corrupt("analysis failed");
  } else {
    rec.verdict.salvaged = k == 2;
    rec.verdict.races = {PinnedRace(k, 2 * k + 1), PinnedRace(k + 5, 9)};
  }
  return rec;
}

uint64_t FileDigest(const std::string& path) {
  const auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return Fnv1a64(bytes.value().data(), bytes.value().size());
}

TEST(RecordLog, JournalAndLedgerBytesArePinned) {
  TempDir dir;
  const std::string journal = dir.File("a.journal");
  auto jw = offline::JournalWriter::Create(journal, PinnedJournalHeader());
  ASSERT_TRUE(jw.ok()) << jw.status().ToString();
  for (uint64_t b = 0; b < 3; b++) {
    ASSERT_TRUE(jw.value().AppendBucket(PinnedBucket(b)).ok());
  }
  const std::string ledger = dir.File("serve.ledger");
  auto lw = serve::LedgerWriter::Open(ledger, 0);
  ASSERT_TRUE(lw.ok()) << lw.status().ToString();
  for (uint32_t k = 0; k < 3; k++) {
    ASSERT_TRUE(lw.value().Append(PinnedLedgerRecord(k)).ok());
  }
  // Pinned digests of both files: the journal stays v8 and the ledger v1,
  // byte for byte.
  EXPECT_EQ(FileSize(journal).value(), 255u);
  EXPECT_EQ(FileDigest(journal), 0xea051e9dbc3238f0ull);
  EXPECT_EQ(FileSize(ledger).value(), 237u);
  EXPECT_EQ(FileDigest(ledger), 0xc344c10a9c1373f2ull);
}


// ShortWrites plus an ENOSPC in the middle of a record, through each of the
// three appenders that share AppendWithRetry: the file is left exactly as
// it was before the append, and the next append lands and loads.
TEST(RecordLog, TornAppendRollsBackInFlusherJournalAndLedger) {
  TempDir dir;
  const auto tear_next_append = [](testing::FaultFile& ff) {
    ff.ShortWrites(3);
    ff.EnospcAfterBytes(ff.bytes_written() + 10);
  };

  {  // the flusher
    const std::string path = dir.File("t.log");
    testing::FaultFile ff;
    Flusher flusher(FaultyConfig(&ff));
    const Compressor* raw = FindCompressor("raw");
    flusher.AppendFrame(path, EncodeV1Events(100, 10), raw, kTraceFormatV1, 10);
    ASSERT_TRUE(flusher.status().ok());
    const Bytes before = ReadFileBytes(path).value();
    tear_next_append(ff);
    flusher.AppendFrame(path, EncodeV1Events(200, 10), raw, kTraceFormatV1, 10);
    EXPECT_EQ(flusher.status().code(), ErrorCode::kNoSpace);
    EXPECT_EQ(ReadFileBytes(path).value(), before);
    ff.Reset();
    flusher.AppendFrame(path, EncodeV1Events(300, 10), raw, kTraceFormatV1, 10);
    auto after = LogReader::Open(path);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after.value().frame_count(), 3u);  // frame, gap, frame
  }
  {  // the analysis journal
    const std::string path = dir.File("a.journal");
    testing::FaultFile ff;
    auto w = offline::JournalWriter::Create(path, PinnedJournalHeader(), &ff);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().AppendBucket(PinnedBucket(0)).ok());
    const Bytes before = ReadFileBytes(path).value();
    tear_next_append(ff);
    EXPECT_EQ(w.value().AppendBucket(PinnedBucket(1)).code(), ErrorCode::kNoSpace);
    EXPECT_EQ(w.value().write_failures(), 1u);
    EXPECT_EQ(ReadFileBytes(path).value(), before);
    ff.Reset();
    ASSERT_TRUE(w.value().AppendBucket(PinnedBucket(2)).ok());
    auto loaded = offline::LoadJournal(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value().records.size(), 2u);
    EXPECT_EQ(loaded.value().records[1].ordinal, 2u);
    EXPECT_EQ(loaded.value().records_dropped, 0u);
  }
  {  // the serve ledger
    const std::string path = dir.File("serve.ledger");
    testing::FaultFile ff;
    auto w = serve::LedgerWriter::Open(path, 0, &ff);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(PinnedLedgerRecord(0)).ok());
    const Bytes before = ReadFileBytes(path).value();
    tear_next_append(ff);
    EXPECT_EQ(w.value().Append(PinnedLedgerRecord(1)).code(), ErrorCode::kNoSpace);
    EXPECT_EQ(w.value().append_failures(), 1u);
    EXPECT_EQ(ReadFileBytes(path).value(), before);
    ff.Reset();
    ASSERT_TRUE(w.value().Append(PinnedLedgerRecord(2)).ok());
    auto loaded = serve::LoadLedger(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value().records.size(), 2u);
    EXPECT_EQ(loaded.value().records[1].verdict.run, "run2");
    EXPECT_EQ(loaded.value().records_dropped, 0u);
  }
}

}  // namespace
}  // namespace sword::trace
