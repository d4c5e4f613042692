// Fault-injection tests for the crash-tolerant trace-writing pipeline:
// the FaultFile backend itself, retry-on-transient-failure, ENOSPC
// drop-with-accounting (gap frames, sticky status, exact counters),
// torn-frame rollback, and incremental meta checkpoints.
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
  wc.meta_checkpoint_interval = 1;
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

TEST(WriterFault, CheckpointIntervalZeroWritesMetaOnlyAtFinish) {
  TempDir dir;
  Flusher flusher(/*async=*/false);
  WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.buffer_bytes = 4096;
  wc.flusher = &flusher;
  wc.format = kTraceFormatV1;
  wc.meta_checkpoint_interval = 0;  // the pre-crash-tolerance behavior
  ThreadTraceWriter writer(0, wc);
  EXPECT_FALSE(FileExists(wc.meta_path));
  IntervalMeta seg;
  seg.label = osl::Label::Initial().Fork(0, 2);
  writer.BeginSegment(seg);
  writer.Append(RawEvent::Access(0x1000, 8, 1, 11));
  writer.EndSegment();
  EXPECT_FALSE(FileExists(wc.meta_path));
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(FileExists(wc.meta_path));
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

}  // namespace
}  // namespace sword::trace
