// Online access fast path: format-v3 codec (strided run events), the
// writer's duplicate-access filter and run coalescer, the summarizer's
// bulk AddRun, and the end-to-end property the whole design rests on:
// race reports are BYTE-IDENTICAL with the fast path on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "core/sword_tool.h"
#include "itree/frozen_set.h"
#include "itree/streaming_builder.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "trace/event.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword {
namespace {

// --- v3 codec ---------------------------------------------------------------

std::vector<trace::RawEvent> MixedEvents() {
  return {
      trace::RawEvent::Access(0x1000, 8, 1, 7),
      trace::RawEvent::Run(0x2000, 8, 1000, 8, 0, 9),
      trace::RawEvent::Access(0x2000 + 999 * 8 + 8, 8, 0, 9),  // continuation
      trace::RawEvent::MutexAcquire(3),
      trace::RawEvent::Run(0x9000, 128, 2, 128, 1, 11),  // explicit size path
      trace::RawEvent::MutexRelease(3),
      trace::RawEvent::Access(0x100, 4, 3, 1 << 20),  // atomic write, big pc
      trace::RawEvent::Run(0x40, 1, 3, 1, 2, 0),      // atomic read run
  };
}

TEST(CodecV3, MixedRoundTrip) {
  const auto events = MixedEvents();
  Bytes buf;
  ByteWriter w(&buf);
  trace::EventCodecState enc;
  for (const auto& e : events) trace::EncodeEventV3(e, enc, w);

  ByteReader r(buf);
  trace::EventCodecState dec;
  for (const auto& want : events) {
    trace::RawEvent got;
    ASSERT_TRUE(trace::DecodeEventV3(r, dec, &got).ok());
    EXPECT_EQ(got, want);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecV3, NonRunEventsEncodeExactlyAsV2) {
  std::vector<trace::RawEvent> events;
  for (const auto& e : MixedEvents()) {
    if (e.kind != trace::EventKind::kAccessRun) events.push_back(e);
  }
  Bytes v2, v3;
  ByteWriter w2(&v2), w3(&v3);
  trace::EventCodecState s2, s3;
  for (const auto& e : events) {
    trace::EncodeEventV2(e, s2, w2);
    trace::EncodeEventV3(e, s3, w3);
  }
  EXPECT_EQ(v2, v3) << "a v3 frame without runs must be a valid v2 payload";
}

TEST(CodecV3, V2DecoderRejectsRunEvents) {
  Bytes buf;
  ByteWriter w(&buf);
  trace::EventCodecState enc;
  trace::EncodeEventV3(trace::RawEvent::Run(0x1000, 8, 4, 8, 0, 1), enc, w);
  ByteReader r(buf);
  trace::EventCodecState dec;
  trace::RawEvent out;
  EXPECT_FALSE(trace::DecodeEventV2(r, dec, &out).ok())
      << "kind 3 is reserved in v2 and must not decode";
}

TEST(CodecV3, RejectsImplausibleRuns) {
  struct Case {
    trace::RawEvent event;
    const char* why;
  };
  const Case cases[] = {
      {trace::RawEvent::Run(0x1000, 8, 1, 8, 0, 1), "count < 2"},
      {trace::RawEvent::Run(0x1000, 8, 0, 8, 0, 1), "count 0"},
      {trace::RawEvent::Run(0x1000, 0, 4, 8, 0, 1), "stride 0"},
      {trace::RawEvent::Run(~0ULL - 16, 1ULL << 63, 3, 8, 0, 1),
       "extent overflows the address space"},
  };
  for (const Case& c : cases) {
    Bytes buf;
    ByteWriter w(&buf);
    trace::EventCodecState enc;
    trace::EncodeEventV3(c.event, enc, w);
    ByteReader r(buf);
    trace::EventCodecState dec;
    trace::RawEvent out;
    EXPECT_FALSE(trace::DecodeEventV3(r, dec, &out).ok()) << c.why;
  }
}

// --- meta v4 ----------------------------------------------------------------

TEST(MetaV4, AccessesDroppedRoundTrip) {
  trace::MetaFile meta;
  meta.thread_id = 7;
  meta.log_format = trace::kTraceFormatV3;
  meta.events_dropped = 11;
  meta.bytes_dropped = 176;
  meta.accesses_dropped = 42;

  trace::MetaFile decoded;
  ASSERT_TRUE(trace::MetaFile::Decode(meta.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.thread_id, 7u);
  EXPECT_EQ(decoded.log_format, trace::kTraceFormatV3);
  EXPECT_EQ(decoded.events_dropped, 11u);
  EXPECT_EQ(decoded.bytes_dropped, 176u);
  EXPECT_EQ(decoded.accesses_dropped, 42u);
}

// --- writer fast path -------------------------------------------------------

trace::IntervalMeta SegMeta(uint32_t lane = 0) {
  trace::IntervalMeta m;
  m.region = 0;
  m.parent_region = trace::IntervalMeta::kNoParent;
  m.label = osl::Label::Initial().Fork(lane, 2);
  m.level = 1;
  m.lane = lane;
  return m;
}

struct WriterRig {
  trace::Flusher flusher{/*async=*/false};
  TempDir dir{"fastpath"};
  std::unique_ptr<trace::ThreadTraceWriter> writer;

  explicit WriterRig(bool filter = true, bool coalesce = true,
                     uint8_t format = trace::kTraceFormatV3) {
    trace::WriterConfig wc;
    wc.log_path = dir.File("t0.log");
    wc.meta_path = dir.File("t0.meta");
    wc.flusher = &flusher;
    wc.format = format;
    wc.access_filter = filter;
    wc.coalesce = coalesce;
    wc.codec = FindCompressor("raw");
    writer = std::make_unique<trace::ThreadTraceWriter>(0, wc);
  }

  std::vector<trace::RawEvent> FinishAndRead() {
    EXPECT_TRUE(writer->Finish().ok());
    auto reader = trace::LogReader::Open(dir.File("t0.log"));
    EXPECT_TRUE(reader.ok());
    std::vector<trace::RawEvent> out;
    EXPECT_TRUE(reader.value()
                    .StreamRange(0, reader.value().total_logical_bytes(),
                                 [&](const trace::RawEvent& e) { out.push_back(e); })
                    .ok());
    return out;
  }
};

TEST(WriterFastPath, DuplicateFilterSuppresses) {
  WriterRig rig;
  rig.writer->BeginSegment(SegMeta());
  for (int i = 0; i < 100; i++) rig.writer->AppendAccess(0x1000, 8, 1, 7);
  rig.writer->EndSegment();

  EXPECT_EQ(rig.writer->events_suppressed(), 99u);
  EXPECT_EQ(rig.writer->events_logged(), 1u);
  const auto events = rig.FinishAndRead();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], trace::RawEvent::Access(0x1000, 8, 1, 7));
}

TEST(WriterFastPath, FilterResetsOnMutexEvents) {
  WriterRig rig;
  rig.writer->BeginSegment(SegMeta());
  rig.writer->AppendAccess(0x1000, 8, 1, 7);
  rig.writer->AppendAccess(0x1000, 8, 1, 7);  // suppressed
  // The lockset changes: the same access is NOT a duplicate of one made
  // under a different set of held locks.
  rig.writer->Append(trace::RawEvent::MutexAcquire(1));
  rig.writer->AppendAccess(0x1000, 8, 1, 7);  // must be logged again
  rig.writer->Append(trace::RawEvent::MutexRelease(1));
  rig.writer->AppendAccess(0x1000, 8, 1, 7);  // and again
  rig.writer->EndSegment();

  EXPECT_EQ(rig.writer->events_suppressed(), 1u);
  EXPECT_EQ(rig.writer->events_logged(), 5u);  // 3 accesses + 2 mutex ops
}

TEST(WriterFastPath, CoalescesStridedSweep) {
  WriterRig rig;
  rig.writer->BeginSegment(SegMeta());
  for (uint64_t i = 0; i < 1000; i++) {
    rig.writer->AppendAccess(0x2000 + i * 8, 8, 1, 7);
  }
  rig.writer->EndSegment();

  EXPECT_EQ(rig.writer->events_logged(), 1u);
  EXPECT_EQ(rig.writer->runs_emitted(), 1u);
  EXPECT_EQ(rig.writer->events_coalesced(), 999u);
  const auto events = rig.FinishAndRead();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], trace::RawEvent::Run(0x2000, 8, 1000, 8, 1, 7));
}

TEST(WriterFastPath, RangeAppendEmitsRunPlusTail) {
  WriterRig rig;
  rig.writer->BeginSegment(SegMeta());
  rig.writer->AppendRange(0x4000, 1000, 1, 3);  // 7 full chunks + 104 tail
  rig.writer->EndSegment();

  const auto events = rig.FinishAndRead();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], trace::RawEvent::Run(0x4000, 128, 7, 128, 1, 3));
  EXPECT_EQ(events[1], trace::RawEvent::Access(0x4000 + 7 * 128, 104, 1, 3));

  // The pre-v3 formats must see the historical chunk loop.
  WriterRig legacy(true, true, trace::kTraceFormatV2);
  legacy.writer->BeginSegment(SegMeta());
  legacy.writer->AppendRange(0x4000, 1000, 1, 3);
  legacy.writer->EndSegment();
  const auto chunks = legacy.FinishAndRead();
  ASSERT_EQ(chunks.size(), 8u);
  for (int i = 0; i < 7; i++) {
    EXPECT_EQ(chunks[i], trace::RawEvent::Access(0x4000 + i * 128, 128, 1, 3));
  }
  EXPECT_EQ(chunks[7], trace::RawEvent::Access(0x4000 + 7 * 128, 104, 1, 3));
}

TEST(WriterFastPath, OutOfSegmentAccessesCountedAndDropped) {
  WriterRig rig;
  rig.writer->AppendAccess(0x1000, 8, 1, 7);     // before any segment
  rig.writer->AppendRange(0x2000, 300, 1, 8);    // 2 chunks + tail = 3 dropped
  rig.writer->BeginSegment(SegMeta());
  rig.writer->AppendAccess(0x1000, 8, 1, 7);
  rig.writer->EndSegment();
  rig.writer->AppendAccess(0x1000, 8, 1, 7);     // after the segment

  EXPECT_EQ(rig.writer->accesses_dropped(), 5u);
  EXPECT_EQ(rig.writer->events_logged(), 1u);
  ASSERT_TRUE(rig.writer->Finish().ok());

  // The drop count survives into the meta header, so it is visible offline.
  auto bytes = ReadFileBytes(rig.dir.File("t0.meta"));
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  EXPECT_EQ(meta.accesses_dropped, 5u);
}

/// Structural fingerprint of a frozen summary as a node multiset, ignoring
/// hit counters: the duplicate filter elides hits-only folds, so structure
/// (not hits) is the invariant. Sorted, because frozen order breaks
/// first-byte ties by creation id, and the per-site coalescer changes the
/// order in which different sites' nodes are created.
using Shape = std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint32_t,
                                     uint32_t, uint8_t, uint8_t>>;

Shape SummaryShape(const itree::FrozenIntervalSet& set) {
  Shape shape;
  for (size_t i = 0; i < set.size(); i++) {
    const itree::AccessNode& n = set.node(i);
    shape.emplace_back(n.interval.base, n.interval.stride, n.interval.count,
                       n.interval.size, n.key.pc, n.key.flags, n.key.size);
  }
  std::sort(shape.begin(), shape.end());
  return shape;
}

/// Summarizes a decoded event stream the way the analyzer does.
itree::FrozenIntervalSet Replay(const std::vector<trace::RawEvent>& events) {
  itree::StreamingSetBuilder builder;
  for (const auto& e : events) {
    const itree::AccessKey key{e.pc, e.flags, e.size, itree::kEmptyMutexSet};
    if (e.kind == trace::EventKind::kAccess) {
      builder.AddAccess(e.addr, key);
    } else if (e.kind == trace::EventKind::kAccessRun) {
      builder.AddRun(e.addr, e.stride, e.count, key);
    }
  }
  return builder.Freeze();
}

TEST(WriterFastPath, FilteredStreamReplaysToSameTreeShape) {
  Rng rng(1234);
  // A duplicate- and stride-heavy access pattern over a handful of sites.
  std::vector<std::tuple<uint64_t, uint8_t, uint8_t, uint32_t>> pattern;
  for (int round = 0; round < 200; round++) {
    const uint32_t pc = static_cast<uint32_t>(rng.Below(4));
    const uint8_t flags = rng.Chance(0.5) ? 1 : 0;
    const uint64_t base = 0x1000 + rng.Below(4) * 0x1000;
    if (rng.Chance(0.4)) {
      const uint64_t n = 2 + rng.Below(30);
      for (uint64_t i = 0; i < n; i++) pattern.emplace_back(base + i * 8, flags, 8, pc);
    } else {
      const uint64_t reps = 1 + rng.Below(4);
      for (uint64_t i = 0; i < reps; i++) pattern.emplace_back(base, flags, 8, pc);
    }
  }

  WriterRig fast(true, true);
  WriterRig plain(false, false);
  for (auto* rig : {&fast, &plain}) {
    rig->writer->BeginSegment(SegMeta());
    for (const auto& [addr, flags, size, pc] : pattern) {
      rig->writer->AppendAccess(addr, size, flags, pc);
    }
    rig->writer->EndSegment();
  }

  const auto fast_events = fast.FinishAndRead();
  const auto plain_events = plain.FinishAndRead();
  EXPECT_LT(fast_events.size(), plain_events.size());
  EXPECT_EQ(fast.writer->events_suppressed() + fast.writer->events_coalesced() +
                fast.writer->events_logged(),
            plain.writer->events_logged());
  EXPECT_EQ(SummaryShape(Replay(fast_events)), SummaryShape(Replay(plain_events)));
}

// --- per-site run coalescer --------------------------------------------------

/// `n` pcs whose (pc, flags, size) sites occupy distinct coalescer slots.
std::vector<uint32_t> DistinctSlotPcs(size_t n, uint8_t flags, uint8_t size) {
  std::vector<uint32_t> pcs;
  std::set<size_t> slots;
  for (uint32_t pc = 1; pcs.size() < n; pc++) {
    if (slots.insert(trace::ThreadTraceWriter::SiteSlot(pc, flags, size)).second) {
      pcs.push_back(pc);
    }
  }
  return pcs;
}

/// Every access a decoded stream stands for, per (pc, flags, size) site, in
/// stream order.
std::map<std::tuple<uint32_t, uint8_t, uint8_t>, std::vector<uint64_t>>
PerSiteAddresses(const std::vector<trace::RawEvent>& events) {
  std::map<std::tuple<uint32_t, uint8_t, uint8_t>, std::vector<uint64_t>> out;
  for (const auto& e : events) {
    if (e.kind == trace::EventKind::kAccess) {
      out[{e.pc, e.flags, e.size}].push_back(e.addr);
    } else if (e.kind == trace::EventKind::kAccessRun) {
      auto& site = out[{e.pc, e.flags, e.size}];
      for (uint64_t k = 0; k < e.count; k++) site.push_back(e.addr + k * e.stride);
    }
  }
  return out;
}

TEST(WriterCoalescer, InterleavedSitesFoldToOneRunEach) {
  constexpr uint64_t kIters = 500;
  for (const size_t sites : {2u, 4u, 8u}) {
    const std::vector<uint32_t> pcs = DistinctSlotPcs(sites, 1, 8);
    WriterRig rig;
    rig.writer->BeginSegment(SegMeta());
    for (uint64_t i = 0; i < kIters; i++) {
      for (size_t s = 0; s < sites; s++) {
        rig.writer->AppendAccess(0x100000 * (s + 1) + i * 8, 8, 1, pcs[s]);
      }
    }
    EXPECT_EQ(rig.writer->pending_runs(), sites);
    rig.writer->EndSegment();
    EXPECT_EQ(rig.writer->events_logged(), sites);
    EXPECT_EQ(rig.writer->runs_emitted(), sites);
    EXPECT_EQ(rig.writer->events_coalesced(), sites * (kIters - 1));

    // Fences emit live runs in first-touch order.
    const auto events = rig.FinishAndRead();
    ASSERT_EQ(events.size(), sites);
    for (size_t s = 0; s < sites; s++) {
      EXPECT_EQ(events[s],
                trace::RawEvent::Run(0x100000 * (s + 1), 8, kIters, 8, 1, pcs[s]))
          << sites << " sites, site " << s;
    }
  }
}

TEST(WriterCoalescer, FencesKeepAccessesOnTheirSide) {
  const std::vector<uint32_t> pcs = DistinctSlotPcs(2, 0, 8);
  WriterRig rig;
  auto body = [&](uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; i++) {
      rig.writer->AppendAccess(0x1000 + i * 8, 8, 0, pcs[0]);
      rig.writer->AppendAccess(0x9000 + i * 8, 8, 0, pcs[1]);
    }
  };
  const auto receipt = trace::RawEvent::Run(0x20000, 8, 4, 8, 1, 99);
  rig.writer->BeginSegment(SegMeta());
  body(0, 10);
  rig.writer->Append(trace::RawEvent::MutexAcquire(1));
  EXPECT_EQ(rig.writer->pending_runs(), 0u);
  body(10, 20);
  rig.writer->Append(trace::RawEvent::MutexRelease(1));
  EXPECT_EQ(rig.writer->pending_runs(), 0u);
  body(20, 30);
  ASSERT_TRUE(rig.writer->AppendReceipt(receipt));
  EXPECT_EQ(rig.writer->pending_runs(), 0u);
  body(30, 40);
  rig.writer->EndSegment();

  std::vector<trace::RawEvent> want;
  auto runs = [&](uint64_t from) {
    want.push_back(trace::RawEvent::Run(0x1000 + from * 8, 8, 10, 8, 0, pcs[0]));
    want.push_back(trace::RawEvent::Run(0x9000 + from * 8, 8, 10, 8, 0, pcs[1]));
  };
  runs(0);
  want.push_back(trace::RawEvent::MutexAcquire(1));
  runs(10);
  want.push_back(trace::RawEvent::MutexRelease(1));
  runs(20);
  want.push_back(receipt);
  runs(30);
  EXPECT_EQ(rig.FinishAndRead(), want);
}

TEST(WriterCoalescer, EndSegmentAndFlushEventsLeaveNoPendingRun) {
  const std::vector<uint32_t> pcs = DistinctSlotPcs(3, 1, 8);
  WriterRig rig;
  auto body = [&](uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; i++) {
      for (size_t s = 0; s < pcs.size(); s++) {
        rig.writer->AppendAccess(0x100000 * (s + 1) + i * 8, 8, 1, pcs[s]);
      }
    }
  };
  rig.writer->BeginSegment(SegMeta());
  body(0, 100);
  EXPECT_EQ(rig.writer->pending_runs(), 3u);
  rig.writer->FlushEvents();
  EXPECT_EQ(rig.writer->pending_runs(), 0u);
  EXPECT_EQ(rig.writer->events_logged(), 3u);
  {
    // A drain puts every run on disk before the trace is finished.
    auto reader = trace::LogReader::Open(rig.dir.File("t0.log"));
    ASSERT_TRUE(reader.ok());
    size_t on_disk = 0;
    ASSERT_TRUE(reader.value()
                    .StreamRange(0, reader.value().total_logical_bytes(),
                                 [&](const trace::RawEvent&) { on_disk++; })
                    .ok());
    EXPECT_EQ(on_disk, 3u);
  }
  body(100, 200);
  EXPECT_EQ(rig.writer->pending_runs(), 3u);
  rig.writer->EndSegment();
  EXPECT_EQ(rig.writer->pending_runs(), 0u);
  EXPECT_EQ(rig.writer->events_logged(), 6u);
  EXPECT_EQ(rig.FinishAndRead().size(), 6u);

  // The closed segment's record counts the runs the fence emitted.
  auto bytes = ReadFileBytes(rig.dir.File("t0.meta"));
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 1u);
  EXPECT_EQ(meta.intervals[0].event_count, 6u);
}

TEST(WriterCoalescer, CollidingSitesKeepPerSiteOrder) {
  // Two sites sharing one slot: each evicts the other.
  const uint32_t pc_a = 1;
  const size_t slot = trace::ThreadTraceWriter::SiteSlot(pc_a, 1, 8);
  uint32_t pc_b = pc_a + 1;
  while (trace::ThreadTraceWriter::SiteSlot(pc_b, 1, 8) != slot) pc_b++;

  // Bursts of five strided accesses per site, with repeats and a descent.
  std::vector<std::pair<uint64_t, uint32_t>> script;
  for (uint64_t burst = 0; burst < 40; burst++) {
    for (uint64_t k = 0; k < 5; k++) {
      script.emplace_back(0x1000 + (burst * 5 + k) * 8, pc_a);
    }
    for (uint64_t k = 0; k < 5; k++) {
      const uint64_t addr = burst % 7 == 3 ? 0x9000 : 0x9000 + (burst * 5 + k) * 16;
      script.emplace_back(addr, pc_b);
    }
  }

  WriterRig unfiltered(/*filter=*/false, /*coalesce=*/true);
  WriterRig fast(true, true);
  WriterRig plain(false, false);
  for (auto* rig : {&unfiltered, &fast, &plain}) {
    rig->writer->BeginSegment(SegMeta());
    for (const auto& [addr, pc] : script) rig->writer->AppendAccess(addr, 8, 1, pc);
    rig->writer->EndSegment();
  }
  // However often the slot changed hands, it was listed once, and the fence
  // emptied it. Single accesses that evict each other at every step list the
  // slot once too.
  EXPECT_EQ(unfiltered.writer->pending_runs(), 0u);
  for (auto* rig : {&unfiltered, &fast, &plain}) {
    rig->writer->BeginSegment(SegMeta());
    for (uint64_t i = 0; i < 30; i++) {
      rig->writer->AppendAccess(0x20000 + i * 8, 8, 1, i % 2 ? pc_a : pc_b);
    }
    if (rig != &plain) {
      EXPECT_EQ(rig->writer->pending_runs(), 1u);
    }
    rig->writer->EndSegment();
  }
  const auto unfiltered_events = unfiltered.FinishAndRead();
  const auto fast_events = fast.FinishAndRead();
  const auto plain_events = plain.FinishAndRead();
  EXPECT_GT(unfiltered.writer->runs_emitted(), 0u);
  EXPECT_EQ(PerSiteAddresses(unfiltered_events), PerSiteAddresses(plain_events));
  EXPECT_EQ(SummaryShape(Replay(unfiltered_events)),
            SummaryShape(Replay(plain_events)));
  EXPECT_EQ(SummaryShape(Replay(fast_events)), SummaryShape(Replay(plain_events)));
}

TEST(WriterCoalescer, SmallRangesFoldIntoOneRun) {
  // GraphSearch's shape: one 16-byte range per vertex into each of two
  // arrays, plus a 200-byte range whose chunk and tail are separate sites.
  constexpr uint64_t kVertices = 1000;
  WriterRig rig;
  rig.writer->BeginSegment(SegMeta());
  for (uint64_t v = 0; v < kVertices; v++) {
    rig.writer->AppendRange(0x100000 + v * 16, 16, 0, 5);
    rig.writer->AppendRange(0x200000 + v * 16, 16, 1, 6);
    rig.writer->AppendRange(0x400000 + v * 200, 200, 0, 7);
  }
  rig.writer->EndSegment();
  EXPECT_EQ(rig.writer->events_logged() + rig.writer->events_coalesced(),
            4 * kVertices);

  const auto events = rig.FinishAndRead();
  const std::vector<trace::RawEvent> want = {
      trace::RawEvent::Run(0x100000, 16, kVertices, 16, 0, 5),
      trace::RawEvent::Run(0x200000, 16, kVertices, 16, 1, 6),
      trace::RawEvent::Run(0x400000, 200, kVertices, 128, 0, 7),
      trace::RawEvent::Run(0x400000 + 128, 200, kVertices, 72, 0, 7),
  };
  EXPECT_EQ(events, want);
}

TEST(WriterCoalescer, AccountingHoldsAtEveryFence) {
  Rng rng(4242);
  WriterRig rig;
  uint64_t accesses = 0;
  uint64_t out_of_band = 0;
  auto check = [&](const char* where) {
    EXPECT_EQ(rig.writer->pending_runs(), 0u) << where;
    EXPECT_EQ(rig.writer->events_logged() - out_of_band +
                  rig.writer->events_coalesced() +
                  rig.writer->events_suppressed(),
              accesses)
        << where;
  };
  for (int seg = 0; seg < 6; seg++) {
    rig.writer->BeginSegment(SegMeta());
    std::array<uint64_t, 6> cursor{};
    for (int op = 0; op < 400; op++) {
      const uint32_t pc = 1 + static_cast<uint32_t>(rng.Below(6));
      const uint8_t flags = static_cast<uint8_t>(pc & 1);
      uint64_t& at = cursor[pc - 1];
      const double pick = rng.NextDouble();
      if (pick < 0.8) {
        if (rng.Chance(0.7)) at += 8;         // stride
        else if (rng.Chance(0.5)) at -= 8;    // descent
        rig.writer->AppendAccess(0x100000 * pc + 0x8000 + at, 8, flags, pc);
        accesses++;
      } else if (pick < 0.9) {
        const uint64_t bytes = 8 + rng.Below(300);
        rig.writer->AppendRange(0x100000 * pc + 0x8000 + at, bytes, flags, pc);
        accesses += bytes / 128 + (bytes % 128 ? 1 : 0);
      } else if (pick < 0.95) {
        rig.writer->Append(trace::RawEvent::MutexAcquire(pc));
        out_of_band++;
        check("mutex acquire");
        rig.writer->Append(trace::RawEvent::MutexRelease(pc));
        out_of_band++;
        check("mutex release");
      } else {
        rig.writer->FlushEvents();
        check("flush");
      }
    }
    rig.writer->EndSegment();
    check("segment end");
  }
  EXPECT_GT(rig.writer->events_coalesced(), 0u);
  EXPECT_GT(rig.writer->events_suppressed(), 0u);
}

class CoalescerProperty : public testing::TestWithParam<int> {};

// The coalescer's whole contract: per site, a trace stands for exactly the
// accesses made, in the order made. Covers ranges of mixed widths from one
// pc (their chunk runs meet pending runs of any stride), colliding sites,
// descents, re-touches and fences.
TEST_P(CoalescerProperty, PerSiteSequencesMatchPlainWriter) {
  Rng rng(9100 + static_cast<uint64_t>(GetParam()));
  std::vector<uint32_t> pcs = {1, 2, 3, 4};
  uint32_t collider = 5;
  while (trace::ThreadTraceWriter::SiteSlot(collider, 0, 8) !=
         trace::ThreadTraceWriter::SiteSlot(1, 0, 8)) {
    collider++;
  }
  pcs.push_back(collider);
  static constexpr int64_t kSteps[] = {8, 8, 16, 128, 136, 200, 384, -8, 0};
  static constexpr uint64_t kWidths[] = {16, 128, 200, 256, 300, 520};

  WriterRig coalesced(/*filter=*/false, /*coalesce=*/true);
  WriterRig plain(false, false);
  std::vector<uint64_t> cursor(pcs.size(), 0x10000);
  for (auto* rig : {&coalesced, &plain}) rig->writer->BeginSegment(SegMeta());
  for (int op = 0; op < 800; op++) {
    const size_t which = rng.Below(pcs.size());
    const uint32_t pc = pcs[which];
    const uint8_t flags = rng.Chance(0.8) ? 0 : 1;
    cursor[which] += kSteps[rng.Below(std::size(kSteps))];
    const uint64_t addr = 0x1000000 * (which + 1) + cursor[which];
    const double pick = rng.NextDouble();
    const uint64_t width = kWidths[rng.Below(std::size(kWidths))];
    for (auto* rig : {&coalesced, &plain}) {
      if (pick < 0.65) {
        rig->writer->AppendAccess(addr, 8, flags, pc);
      } else if (pick < 0.95) {
        rig->writer->AppendRange(addr, width, flags, pc);
      } else if (pick < 0.98) {
        rig->writer->Append(trace::RawEvent::MutexAcquire(1));
      } else {
        rig->writer->FlushEvents();
      }
    }
  }
  for (auto* rig : {&coalesced, &plain}) rig->writer->EndSegment();

  const auto coalesced_events = coalesced.FinishAndRead();
  const auto plain_events = plain.FinishAndRead();
  EXPECT_LT(coalesced_events.size(), plain_events.size());
  EXPECT_EQ(PerSiteAddresses(coalesced_events), PerSiteAddresses(plain_events))
      << "seed " << GetParam();
  EXPECT_EQ(SummaryShape(Replay(coalesced_events)),
            SummaryShape(Replay(plain_events)))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, CoalescerProperty, testing::Range(0, 10));

// --- StreamingSetBuilder::AddRun ---------------------------------------------

class AddRunProperty : public testing::TestWithParam<int> {};

TEST_P(AddRunProperty, EqualsElementLoop) {
  Rng rng(7000 + static_cast<uint64_t>(GetParam()));
  itree::StreamingSetBuilder bulk, loop;
  for (int op = 0; op < 300; op++) {
    itree::AccessKey key;
    key.pc = static_cast<uint32_t>(rng.Below(3));
    key.flags = rng.Chance(0.5) ? itree::kWrite : itree::kRead;
    key.size = 8;
    const uint64_t base = 0x1000 + rng.Below(64) * 8;
    if (rng.Chance(0.5)) {
      const uint64_t stride = (1 + rng.Below(3)) * 8;
      const uint64_t count = 1 + rng.Below(20);
      bulk.AddRun(base, stride, count, key);
      for (uint64_t i = 0; i < count; i++) loop.AddAccess(base + i * stride, key);
    } else {
      bulk.AddAccess(base, key);
      loop.AddAccess(base, key);
    }
  }

  EXPECT_EQ(bulk.NodeCount(), loop.NodeCount());
  EXPECT_EQ(bulk.TotalAccesses(), loop.TotalAccesses());
  EXPECT_EQ(bulk.SpillCount(), loop.SpillCount());
  // Full frozen payload equality including hit counters: AddRun promises
  // EXACT equivalence with the element loop, not just equal shapes.
  const itree::FrozenIntervalSet a = bulk.Freeze();
  const itree::FrozenIntervalSet b = loop.Freeze();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    const itree::AccessNode& x = a.node(i);
    const itree::AccessNode& y = b.node(i);
    EXPECT_EQ(std::make_tuple(x.interval.base, x.interval.stride,
                              x.interval.count, x.interval.size, x.key.pc,
                              x.key.flags, x.key.size, x.key.mutexset, x.hits),
              std::make_tuple(y.interval.base, y.interval.stride,
                              y.interval.count, y.interval.size, y.key.pc,
                              y.key.flags, y.key.size, y.key.mutexset, y.hits))
        << "seed " << GetParam() << " node " << i;
    EXPECT_EQ(a.lo(i), b.lo(i));
    EXPECT_EQ(a.hi(i), b.hi(i));
  }
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(RandomOps, AddRunProperty, testing::Range(0, 20));

// --- end-to-end: reports identical with the fast path on or off -------------

/// One access stream of a loop body: iteration i touches the pool at byte
/// `offset + i * step`. A negative step walks down, a zero step re-touches
/// one cell every iteration.
struct SweepStream {
  uint64_t offset = 0;  // byte offset of iteration 0
  int64_t step = 0;     // bytes per iteration, a multiple of 8
  uint64_t width = 0;   // 0 = one 8-byte access; else a range of this many bytes
  bool write = false;
  bool atomic = false;
  uint32_t site = 0;
  uint32_t lock = ~0u;  // taken around every touch; ~0u = none
};

/// One loop: `count` iterations of a body touching every stream once, the
/// whole loop repeated `reps` times, optionally under one lock. A one-stream
/// body is a single-site sweep; 2-6 streams interleave sites the way real
/// loop bodies do, which is what the per-site coalescer reorders.
struct SweepOp {
  std::vector<SweepStream> streams;
  uint64_t count = 1;
  uint64_t reps = 1;
  uint32_t lock = ~0u;
};

struct SweepProgram {
  uint32_t lanes;
  uint32_t phases;
  std::vector<std::vector<std::vector<SweepOp>>> ops;  // [lane][phase]
};

constexpr uint64_t kSweepPoolCells = 192;

SweepStream GenerateSweepStream(Rng& rng, uint64_t count, bool may_lock) {
  static constexpr int64_t kSteps[] = {8, 8, 8, 16, 24, -8, -16, 0};
  SweepStream s;
  s.step = kSteps[rng.Below(std::size(kSteps))];
  if (rng.Chance(0.2)) s.width = rng.Chance(0.5) ? 16 : 8 * (2 + rng.Below(34));
  s.write = rng.Chance(0.6);
  s.atomic = s.width == 0 && rng.Chance(0.15);
  s.site = static_cast<uint32_t>(rng.Below(8));
  s.lock = may_lock && rng.Chance(0.1) ? static_cast<uint32_t>(rng.Below(2)) : ~0u;
  // Place the whole walk inside the pool, descending walks from the top.
  const uint64_t span = (count - 1) * static_cast<uint64_t>(std::abs(s.step));
  const uint64_t extent = span + std::max<uint64_t>(8, s.width);
  s.offset = rng.Below((kSweepPoolCells * 8 - extent) / 8 + 1) * 8;
  if (s.step < 0) s.offset += span;
  return s;
}

SweepProgram GenerateSweepProgram(Rng& rng) {
  SweepProgram p;
  p.lanes = 2 + static_cast<uint32_t>(rng.Below(2));
  p.phases = 1 + static_cast<uint32_t>(rng.Below(2));
  p.ops.resize(p.lanes);
  for (uint32_t lane = 0; lane < p.lanes; lane++) {
    p.ops[lane].resize(p.phases);
    for (uint32_t phase = 0; phase < p.phases; phase++) {
      const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(4));
      for (uint32_t k = 0; k < n; k++) {
        SweepOp op;
        const bool interleaved = rng.Chance(0.5);
        op.count = interleaved ? 2 + rng.Below(24)
                               : (rng.Chance(0.6) ? 2 + rng.Below(32) : 1);
        op.reps = rng.Chance(0.4) ? 2 + rng.Below(3) : 1;
        op.lock = rng.Chance(0.25) ? static_cast<uint32_t>(rng.Below(2)) : ~0u;
        const uint64_t streams = interleaved ? 2 + rng.Below(5) : 1;
        for (uint64_t i = 0; i < streams; i++) {
          // Per-touch locks only outside a loop-wide one (no nesting).
          op.streams.push_back(GenerateSweepStream(rng, op.count, op.lock == ~0u));
        }
        p.ops[lane][phase].push_back(op);
      }
    }
  }
  return p;
}

/// Byte offset of stream `s` in iteration `i`.
uint64_t StreamOffset(const SweepStream& s, uint64_t i) {
  return s.offset + static_cast<uint64_t>(static_cast<int64_t>(i) * s.step);
}

uint8_t StreamFlags(const SweepStream& s) {
  return static_cast<uint8_t>((s.write ? 1 : 0) | (s.atomic ? 2 : 0));
}

std::string SweepLockName(uint32_t lock) {
  return "sweep-lock-" + std::to_string(lock);
}

const std::array<std::source_location, 8>& SweepSites() {
  using std::source_location;
  static const std::array<source_location, 8> kSites = {
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current()};
  return kSites;
}

void TouchStream(std::vector<uint64_t>& pool, const SweepStream& s,
                 uint64_t i) {
  const std::source_location& loc = SweepSites()[s.site];
  const uint64_t off = StreamOffset(s, i);
  if (s.width != 0) {
    uint8_t* base = reinterpret_cast<uint8_t*>(pool.data()) + off;
    if (s.write) instr::write_range(base, s.width, 0, loc);
    else instr::read_range(base, s.width, loc);
    return;
  }
  uint64_t& cell = pool[off / 8];
  if (s.atomic) {
    if (s.write) instr::atomic_store(cell, uint64_t{1}, loc);
    else (void)instr::atomic_load(cell, loc);
  } else {
    if (s.write) instr::store(cell, uint64_t{1}, loc);
    else (void)instr::load(cell, loc);
  }
}

void RunSweepOp(somp::Ctx& ctx, std::vector<uint64_t>& pool, const SweepOp& op) {
  for (uint64_t rep = 0; rep < op.reps; rep++) {
    for (uint64_t i = 0; i < op.count; i++) {
      for (const SweepStream& s : op.streams) {
        if (s.lock != ~0u) {
          ctx.Critical(SweepLockName(s.lock), [&] { TouchStream(pool, s, i); });
        } else {
          TouchStream(pool, s, i);
        }
      }
    }
  }
}

void RunSweepProgram(const SweepProgram& p, std::vector<uint64_t>& pool) {
  somp::Parallel(p.lanes, [&](somp::Ctx& ctx) {
    for (uint32_t phase = 0; phase < p.phases; phase++) {
      for (const SweepOp& op : p.ops[ctx.thread_num()][phase]) {
        if (op.lock != ~0u) {
          ctx.Critical(SweepLockName(op.lock),
                       [&] { RunSweepOp(ctx, pool, op); });
        } else {
          RunSweepOp(ctx, pool, op);
        }
      }
      if (phase + 1 < p.phases) ctx.Barrier();
    }
  });
}

/// Lane threads register writer ids in scheduling order, so across separate
/// somp runs the report VECTOR order is not comparable; the race pc-pair SET
/// is. (Byte-identical ordered reports are asserted by DeterministicAblation
/// below, where the trace is replayed with a fixed lane -> tid mapping.)
std::set<std::pair<uint32_t, uint32_t>> CollectRacePairs(
    const SweepProgram& p, std::vector<uint64_t>& pool, uint8_t format) {
  TempDir dir("sweep");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  sc.trace_format = format;
  {
    core::SwordTool tool(sc);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    RunSweepProgram(p, pool);
    EXPECT_TRUE(tool.Finalize().ok());
    somp::Runtime::Get().Configure({});
  }
  auto store = offline::TraceStore::OpenDir(dir.path());
  EXPECT_TRUE(store.ok());
  const offline::AnalysisResult result = offline::Analyze(store.value());
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const RaceReport& r : result.races.reports()) {
    out.insert({std::min(r.pc1, r.pc2), std::max(r.pc1, r.pc2)});
  }
  return out;
}

class AblationProperty : public testing::TestWithParam<int> {};

// The filter-off and coalesce-off arms live at the writer level, in
// DeterministicAblation below; here the whole online stack (v3 fast path)
// is checked against plain v2.
TEST_P(AblationProperty, RaceSetsIdenticalAcrossFastPathConfigs) {
  Rng rng(31000 + static_cast<uint64_t>(GetParam()));
  const SweepProgram p = GenerateSweepProgram(rng);
  std::vector<uint64_t> pool(kSweepPoolCells);

  EXPECT_EQ(CollectRacePairs(p, pool, trace::kTraceFormatV3),
            CollectRacePairs(p, pool, trace::kTraceFormatV2))
      << "seed " << GetParam() << ": v3 fast path diverged from plain v2";
}

INSTANTIATE_TEST_SUITE_P(RandomSweeps, AblationProperty, testing::Range(0, 15));

// --- deterministic replay: reports byte-identical --------------------------

/// One synthetic per-lane event script, replayed straight into per-lane
/// ThreadTraceWriters (tid == lane), so every configuration produces its
/// trace from EXACTLY the same writer-call sequence and the analysis input
/// differs only by what the filter/coalescer did. Any report drift here is
/// a soundness bug, so the comparison is full-field and order-sensitive.
std::vector<std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t, bool,
                       bool, int>>
AnalyzeScripted(const SweepProgram& p, uint8_t format, bool filter,
                bool coalesce) {
  TempDir dir("scripted");
  trace::Flusher flusher(/*async=*/false);
  for (uint32_t lane = 0; lane < p.lanes; lane++) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(lane) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(lane) + ".meta";
    wc.flusher = &flusher;
    wc.format = format;
    wc.access_filter = filter;
    wc.coalesce = coalesce;
    trace::ThreadTraceWriter writer(lane, wc);
    osl::Label label = osl::Label::Initial().Fork(lane, p.lanes);
    for (uint32_t phase = 0; phase < p.phases; phase++) {
      trace::IntervalMeta m;
      m.region = 1;
      m.parent_region = trace::IntervalMeta::kNoParent;
      m.phase = phase;
      m.label = label;
      m.level = 1;
      m.lane = lane;
      writer.BeginSegment(m);
      for (const SweepOp& op : p.ops[lane][phase]) {
        if (op.lock != ~0u) {
          writer.Append(trace::RawEvent::MutexAcquire(op.lock));
        }
        for (uint64_t rep = 0; rep < op.reps; rep++) {
          for (uint64_t i = 0; i < op.count; i++) {
            for (const SweepStream& s : op.streams) {
              const uint64_t addr = 0x10000 + StreamOffset(s, i);
              if (s.lock != ~0u) {
                writer.Append(trace::RawEvent::MutexAcquire(s.lock));
              }
              if (s.width != 0) {
                writer.AppendRange(addr, s.width, StreamFlags(s), s.site + 1);
              } else {
                writer.AppendAccess(addr, 8, StreamFlags(s), s.site + 1);
              }
              if (s.lock != ~0u) {
                writer.Append(trace::RawEvent::MutexRelease(s.lock));
              }
            }
          }
        }
        if (op.lock != ~0u) {
          writer.Append(trace::RawEvent::MutexRelease(op.lock));
        }
      }
      writer.EndSegment();
      label = label.AfterBarrier();
    }
    EXPECT_TRUE(writer.Finish().ok());
  }

  auto store = offline::TraceStore::OpenDir(dir.path());
  EXPECT_TRUE(store.ok());
  const offline::AnalysisResult result = offline::Analyze(store.value());
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  std::vector<std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t, bool,
                         bool, int>>
      out;
  for (const RaceReport& r : result.races.reports()) {
    out.emplace_back(r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1,
                     r.write2, static_cast<int>(r.confidence));
  }
  return out;
}

class DeterministicAblation : public testing::TestWithParam<int> {};

TEST_P(DeterministicAblation, ReportsByteIdenticalAcrossConfigs) {
  Rng rng(47000 + static_cast<uint64_t>(GetParam()));
  const SweepProgram p = GenerateSweepProgram(rng);

  const auto def = AnalyzeScripted(p, trace::kTraceFormatV3, true, true);
  EXPECT_EQ(def, AnalyzeScripted(p, trace::kTraceFormatV3, false, true))
      << "seed " << GetParam();
  EXPECT_EQ(def, AnalyzeScripted(p, trace::kTraceFormatV3, true, false))
      << "seed " << GetParam();
  EXPECT_EQ(def, AnalyzeScripted(p, trace::kTraceFormatV3, false, false))
      << "seed " << GetParam();
  EXPECT_EQ(def, AnalyzeScripted(p, trace::kTraceFormatV2, true, true))
      << "seed " << GetParam();
  EXPECT_EQ(def, AnalyzeScripted(p, trace::kTraceFormatV1, true, true))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, DeterministicAblation,
                         testing::Range(0, 25));

// --- sink lifecycle ---------------------------------------------------------

TEST(SinkLifecycle, ToolReplacementInvalidatesSinks) {
  // Run under tool A, replace it with tool B on the SAME OS threads, and
  // check B's trace is complete: stale sinks from A must not swallow events.
  std::vector<uint64_t> pool(64);
  auto run = [&] {
    somp::Parallel(2, [&](somp::Ctx& ctx) {
      for (int i = 0; i < 32; i++) {
        instr::store(pool[ctx.thread_num() * 32 + i], uint64_t{1});
      }
    });
  };
  TempDir dir_a("sink-a"), dir_b("sink-b");
  core::SwordConfig sc;
  sc.out_dir = dir_a.path();
  {
    core::SwordTool tool(sc);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    run();
    ASSERT_TRUE(tool.Finalize().ok());
  }
  sc.out_dir = dir_b.path();
  {
    core::SwordTool tool(sc);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().Configure(rc);
    run();
    ASSERT_TRUE(tool.Finalize().ok());
    somp::Runtime::Get().Configure({});
    EXPECT_EQ(tool.EventsLogged() + tool.EventsCoalesced() +
                  tool.EventsSuppressed(),
              64u);
    EXPECT_EQ(tool.AccessesDropped(), 0u);
  }
}

TEST(SinkLifecycle, ConcurrentStatReadsWhileTracing) {
  // Aggregated counter reads race benignly with the owner threads' writes
  // (OwnerCounter); run under TSan this is the regression test for the
  // "no shared atomic on the hot path" claim.
  TempDir dir("sink-stats");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  core::SwordTool tool(sc);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  std::vector<uint64_t> pool(4 * 256);
  uint64_t observed = 0;
  somp::Parallel(4, [&](somp::Ctx& ctx) {
    for (int round = 0; round < 16; round++) {
      for (int i = 0; i < 256; i++) {
        instr::store(pool[ctx.thread_num() * 256 + i], uint64_t{1});
      }
      if (ctx.thread_num() == 0) observed += tool.EventsLogged();
      ctx.Barrier();
    }
  });
  ASSERT_TRUE(tool.Finalize().ok());
  somp::Runtime::Get().Configure({});
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(tool.EventsLogged() + tool.EventsCoalesced() +
                tool.EventsSuppressed(),
            4u * 16u * 256u);
}

}  // namespace
}  // namespace sword
