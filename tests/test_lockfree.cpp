// Lock-free trace-plane structures (common/lockfree.h) and their
// integration: MPMC ring lanes, the lock-free buffer pool, the flusher's
// drop accounting (I/O failures and the enqueue watchdog), TLS sink
// retirement by the epoch bump, and the end-to-end property the plane
// rests on - traces and race reports identical between the asynchronous
// flusher and the synchronous one, which writes inline and coordinates no
// threads at all.
// Designed to run under TSan: every cross-thread interaction in the
// structures is atomics-only, so any TSan report here is a real bug.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <latch>
#include <set>
#include <source_location>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "common/lockfree.h"
#include "common/memtrack.h"
#include "common/rng.h"
#include "compress/frame.h"
#include "core/sword_tool.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "somp/sink.h"
#include "trace/flusher.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword {
namespace {

using lockfree::FreeList;
using lockfree::MpmcRing;

// Sized for a single-core TSan host: enough interleavings to matter,
// small enough to finish fast.
constexpr int kStressProducers = 4;
constexpr int kStressItems = 2000;

// --- MpmcRing ---------------------------------------------------------------

TEST(MpmcRing, CapacityRoundsUpToPow2) {
  EXPECT_EQ(MpmcRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcRing<int>(16).capacity(), 16u);
  EXPECT_EQ(MpmcRing<int>(17).capacity(), 32u);
}

TEST(MpmcRing, FifoAndFullEmptySemantics) {
  MpmcRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int i = 0; i < 4; i++) EXPECT_TRUE(ring.TryPush(int{i}));
  int rejected = 99;
  EXPECT_FALSE(ring.TryPush(std::move(rejected)));
  EXPECT_EQ(rejected, 99) << "TryPush must not consume on failure";
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i) << "single-producer order must be FIFO";
  }
  EXPECT_TRUE(ring.Empty());
  // Wrap several laps to exercise the sequence-number lap arithmetic.
  for (int lap = 0; lap < 10; lap++) {
    EXPECT_TRUE(ring.TryPush(lap * 10));
    EXPECT_TRUE(ring.TryPush(lap * 10 + 1));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, lap * 10);
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, lap * 10 + 1);
  }
}

TEST(MpmcRing, DestructorDestroysLeftoverElements) {
  auto counter = std::make_shared<int>(0);
  {
    MpmcRing<std::shared_ptr<int>> ring(8);
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(ring.TryPush(std::shared_ptr<int>(counter)));
    }
    EXPECT_EQ(counter.use_count(), 6);
  }
  EXPECT_EQ(counter.use_count(), 1) << "ring leaked popped-never elements";
}

TEST(MpmcRingStress, MpscNoLossNoDupPerProducerFifo) {
  // The flusher's actual shape: many producers, one consumer. Items carry
  // {producer, seq}; the consumer checks per-producer sequence numbers are
  // strictly increasing (per-producer FIFO) and counts every item once.
  MpmcRing<uint64_t> ring(64);
  std::atomic<bool> done{false};
  std::vector<uint64_t> last_seq(kStressProducers, 0);
  uint64_t received = 0;
  std::thread consumer([&] {
    uint64_t item;
    for (;;) {
      if (ring.TryPop(&item)) {
        const uint64_t producer = item >> 32;
        const uint64_t seq = item & 0xffffffffu;
        ASSERT_LT(producer, static_cast<uint64_t>(kStressProducers));
        EXPECT_EQ(seq, last_seq[producer] + 1)
            << "per-producer FIFO violated for producer " << producer;
        last_seq[producer] = seq;
        received++;
      } else if (done.load(std::memory_order_acquire)) {
        if (!ring.TryPop(&item)) break;
        const uint64_t producer = item >> 32;
        EXPECT_EQ(item & 0xffffffffu, last_seq[producer] + 1);
        last_seq[producer] = item & 0xffffffffu;
        received++;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kStressProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t seq = 1; seq <= kStressItems; seq++) {
        uint64_t item = (p << 32) | seq;
        while (!ring.TryPush(std::move(item))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, uint64_t(kStressProducers) * kStressItems);
  for (int p = 0; p < kStressProducers; p++) {
    EXPECT_EQ(last_seq[p], uint64_t(kStressItems));
  }
}

TEST(MpmcRingStress, MpmcNoLossNoDup) {
  MpmcRing<uint32_t> ring(32);
  constexpr int kConsumers = 2;
  const uint32_t total = kStressProducers * kStressItems;
  std::vector<std::atomic<uint8_t>> seen(total);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<uint32_t> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; c++) {
    consumers.emplace_back([&] {
      uint32_t item;
      for (;;) {
        if (ring.TryPop(&item)) {
          EXPECT_EQ(seen[item].fetch_add(1, std::memory_order_relaxed), 0)
              << "item " << item << " delivered twice";
          received.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire) && ring.Empty()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kStressProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint32_t i = 0; i < kStressItems; i++) {
        uint32_t item = p * kStressItems + i;
        while (!ring.TryPush(std::move(item))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  // A consumer may exit while its sibling holds the last claimed-but-unread
  // slot; sweep the remainder here.
  uint32_t item;
  while (ring.TryPop(&item)) {
    EXPECT_EQ(seen[item].fetch_add(1, std::memory_order_relaxed), 0);
    received.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(received.load(), total);
  for (uint32_t i = 0; i < total; i++) {
    EXPECT_EQ(seen[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
}

// --- FreeList ---------------------------------------------------------------

TEST(FreeListTest, BoundedPutGet) {
  FreeList<int> list(2);
  EXPECT_EQ(list.capacity(), 2u);
  int out = -1;
  EXPECT_FALSE(list.TryGet(&out));
  EXPECT_TRUE(list.TryPut(1));
  EXPECT_TRUE(list.TryPut(2));
  int rejected = 3;
  EXPECT_FALSE(list.TryPut(std::move(rejected)));
  EXPECT_EQ(rejected, 3) << "TryPut must not consume on failure";
  EXPECT_EQ(list.ApproxSize(), 2u);
  std::set<int> got;
  ASSERT_TRUE(list.TryGet(&out));
  got.insert(out);
  ASSERT_TRUE(list.TryGet(&out));
  got.insert(out);
  EXPECT_EQ(got, (std::set<int>{1, 2}));
  EXPECT_FALSE(list.TryGet(&out));
  EXPECT_EQ(list.ApproxSize(), 0u);
}

TEST(FreeListTest, ZeroCapacityAlwaysRejects) {
  FreeList<int> list(0);
  int v = 7;
  EXPECT_FALSE(list.TryPut(std::move(v)));
  EXPECT_FALSE(list.TryGet(&v));
}

TEST(FreeListStress, NoLostNoDuplicatedValues) {
  // Values are unique ids; every TryGet must yield an id that is currently
  // "parked" (put but not yet taken) - a duplicate or invented id trips the
  // ownership flags. Threads cycle ids through the list concurrently.
  constexpr uint32_t kIds = 64;
  FreeList<uint32_t> list(16);
  std::vector<std::atomic<uint8_t>> parked(kIds);
  for (auto& p : parked) p.store(0, std::memory_order_relaxed);
  std::atomic<uint32_t> cycles{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kStressProducers; t++) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint id range to feed in; after that it
      // keeps recycling whatever it can get back out.
      std::vector<uint32_t> mine;
      for (uint32_t i = t; i < kIds; i += kStressProducers) mine.push_back(i);
      Rng rng(1234 + t);
      for (int round = 0; round < kStressItems; round++) {
        if (!mine.empty() && rng.Chance(0.55)) {
          uint32_t id = mine.back();
          parked[id].store(1, std::memory_order_relaxed);
          if (list.TryPut(std::move(id))) {
            mine.pop_back();
            cycles.fetch_add(1, std::memory_order_relaxed);
          } else {
            parked[id].store(0, std::memory_order_relaxed);
          }
        } else {
          uint32_t id;
          if (list.TryGet(&id)) {
            ASSERT_LT(id, kIds);
            EXPECT_EQ(parked[id].exchange(0, std::memory_order_relaxed), 1)
                << "got id " << id << " that was never parked (dup or lost)";
            mine.push_back(id);
          }
        }
      }
      // Ids still held in `mine` stay unparked (flag 0): the 64 ids cannot
      // all fit the capacity-16 list, so the census accepts held ids as-is.
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(cycles.load(), 0u);
  // Census: every id is either parked in the list or was legitimately
  // drained; pop everything and check flags.
  uint32_t id;
  size_t drained = 0;
  while (list.TryGet(&id)) {
    EXPECT_EQ(parked[id].exchange(0, std::memory_order_relaxed), 1);
    drained++;
  }
  EXPECT_LE(drained, size_t{16});
  for (uint32_t i = 0; i < kIds; i++) {
    EXPECT_EQ(parked[i].load(std::memory_order_relaxed), 0)
        << "id " << i << " vanished inside the free list";
  }
}

// --- BufferPool ------------------------------------------------------------

TEST(LockfreeBufferPool, StatsSnapshotCoherentAtQuiescence) {
  // The satellite fix: the historical accessors could be read mid-update
  // (atomics bumped outside the pool's critical section). stats() must
  // return one mutually consistent snapshot; at quiescence the invariant
  // free_count == releases_kept - recycles holds exactly.
  MemoryScope mem{"lf-pool-stats"};
  trace::BufferPool pool(/*max_free=*/8, &mem);
  std::vector<std::thread> threads;
  for (int t = 0; t < kStressProducers; t++) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      std::vector<Bytes> held;
      for (int i = 0; i < 1500; i++) {
        if (held.size() < 4 && rng.Chance(0.6)) {
          held.push_back(pool.Acquire(64 + rng.Below(512)));
        } else if (!held.empty()) {
          pool.Release(std::move(held.back()));
          held.pop_back();
        }
      }
      for (auto& b : held) pool.Release(std::move(b));
    });
  }
  for (auto& t : threads) t.join();
  const trace::BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.free_count, s.releases_kept - s.recycles)
      << "parked = kept - re-acquired must balance at quiescence";
  EXPECT_EQ(s.allocations + s.recycles,
            s.releases_kept + s.releases_freed)
      << "every acquired buffer was released exactly once";
  EXPECT_LE(s.free_count, size_t{8});
}

// --- Flusher: drop accounting -----------------------------------------------

TEST(FlusherDrop, DropAccountingAndGapFramesUnderEnospc) {
  TempDir dir("lane-drop");
  testing::FaultFile ff;
  trace::FlusherConfig fc;
  fc.async = true;
  fc.workers = 1;
  fc.backend = &ff;
  fc.retry_backoff_us = 0;
  trace::Flusher flusher(fc);
  const std::string path = dir.File("drop.log");

  // First frame lands; the disk then "fills" for exactly one frame; the
  // recovery frame must be preceded by a gap marker.
  flusher.AppendFrame(path, Bytes(256, 0x01), nullptr, 1, /*event_count=*/16);
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok());
  const uint64_t on_disk = ff.bytes_written();
  ff.FailAfterBytes(on_disk, ErrorCode::kNoSpace);
  flusher.AppendFrame(path, Bytes(256, 0x02), nullptr, 1, /*event_count=*/16);
  flusher.Drain();
  EXPECT_FALSE(flusher.status().ok()) << "sticky status must record the loss";
  ff.Reset();
  flusher.AppendFrame(path, Bytes(256, 0x03), nullptr, 1, /*event_count=*/16);
  flusher.Drain();

  const trace::FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.events_dropped, 16u);
  EXPECT_EQ(stats.bytes_dropped, 256u);
  EXPECT_EQ(stats.gap_frames, 1u);
  const trace::DropRecord rec = flusher.DroppedFor(path);
  EXPECT_EQ(rec.frames, 1u);
  EXPECT_EQ(rec.events, 16u);
}

TEST(FlusherDrop, WatchdogDropsAreCountedExactlyAndGapFollowsQueuedFrames) {
  // One worker stuck in a 200 ms append, one credit, a 20 ms deadline:
  // frame A occupies the worker, frame B takes the only credit, and frame C
  // starves past the deadline. C must become an exactly accounted drop, and
  // its gap marker must land after B (which was queued before C) and before
  // D, the next frame written - never before B, which would shift B's
  // logical offset by C's size.
  TempDir dir("watchdog");
  testing::FaultFile ff;
  ff.SlowAppends(/*usec=*/200 * 1000, /*from_call=*/1, /*count=*/1);
  trace::FlusherConfig fc;
  fc.async = true;
  fc.workers = 1;
  fc.max_queued_jobs = 1;
  fc.backend = &ff;
  fc.retry_backoff_us = 0;
  fc.watchdog_deadline_ms = 20;
  trace::Flusher flusher(fc);
  const std::string path = dir.File("watchdog.log");
  const auto frame = [](uint8_t tag, size_t bytes) {
    return Bytes(bytes, tag);
  };

  flusher.AppendFrame(path, frame(0xa, 100), nullptr, 1, /*event_count=*/10);
  // Wait until the worker has dequeued A (returning its credit) and sits
  // in the slow append.
  while (ff.append_calls() == 0) std::this_thread::yield();
  flusher.AppendFrame(path, frame(0xb, 200), nullptr, 1, /*event_count=*/20);
  flusher.AppendFrame(path, frame(0xc, 300), nullptr, 1, /*event_count=*/30);
  flusher.Drain();
  flusher.AppendFrame(path, frame(0xd, 400), nullptr, 1, /*event_count=*/40);
  flusher.Drain();

  const trace::FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.watchdog_drops, 1u) << "only C may starve past the deadline";
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.events_dropped, 30u);
  EXPECT_EQ(stats.bytes_dropped, 300u);
  EXPECT_EQ(stats.gap_frames, 1u);
  EXPECT_GT(stats.producer_blocks, 0u);
  EXPECT_EQ(stats.queued_now, 0u);
  const trace::DropRecord rec = flusher.DroppedFor(path);
  EXPECT_EQ(rec.frames, 1u);
  EXPECT_EQ(rec.events, 30u);
  EXPECT_EQ(rec.raw_bytes, 300u);
  EXPECT_EQ(flusher.status().code(), ErrorCode::kUnavailable)
      << "the sticky status must record the watchdog loss";

  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  ByteReader r(data.value());
  for (uint8_t tag : {0xa, 0xb}) {
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok());
    ASSERT_FALSE(view.is_gap) << "frame " << int{tag};
    ASSERT_FALSE(view.data.empty());
    EXPECT_EQ(view.data[0], tag);
  }
  FrameView gap;
  ASSERT_TRUE(ReadFrame(r, &gap).ok());
  ASSERT_TRUE(gap.is_gap) << "D must be preceded by C's gap marker";
  EXPECT_EQ(gap.raw_size, 300u);
  EXPECT_EQ(gap.dropped_events, 30u);
  FrameView last;
  ASSERT_TRUE(ReadFrame(r, &last).ok());
  ASSERT_FALSE(last.is_gap);
  ASSERT_EQ(last.data.size(), 400u);
  EXPECT_EQ(last.data[0], 0xd);
  EXPECT_TRUE(r.AtEnd());
}

// --- sink retirement ---------------------------------------------------------

void CountFastAccess(void* state, uint64_t, uint8_t, uint8_t, somp::PcId) {
  static_cast<std::atomic<uint64_t>*>(state)->fetch_add(1);
}

TEST(SinkRetirement, EveryLiveThreadKeepsItsInstalledSink) {
  // More threads alive at once than any fixed per-thread registry would
  // hold: installing a sink registers nothing, so every thread must see
  // its own sink, stamped with the current epoch.
  constexpr int kThreads = 264;
  std::vector<std::atomic<uint64_t>> states(kThreads);
  std::vector<char> installed(kThreads, 0);
  std::latch all_installed(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&, i] {
      somp::InstallThreadSink(
          somp::ThreadEventSink{&CountFastAccess, nullptr, &states[i]});
      all_installed.arrive_and_wait();
      const somp::ThreadEventSink& sink = somp::tls_event_sink;
      installed[i] = sink.on_access == &CountFastAccess &&
                     sink.state == &states[i] &&
                     sink.epoch == somp::CurrentSinkEpoch();
      somp::ClearThreadSink();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; i++) {
    EXPECT_TRUE(installed[i]) << "thread " << i << " lost its sink";
  }
}

TEST(SinkRetirement, SinkInstalledBeforeRetireFailsTheEpochCheck) {
  // Threads install, one keeps its sink and one clears it; neither runs
  // anything when the sinks are retired. Either way, a sink stamped before
  // Runtime::Configure or RetireSinks() must fail the epoch check after.
  std::latch installed(3), retired(3);
  uint64_t cleared_epoch = 0;
  bool kept_stale = false;
  std::thread keeper([&] {
    somp::InstallThreadSink(somp::ThreadEventSink{&CountFastAccess});
    installed.arrive_and_wait();
    retired.arrive_and_wait();
    kept_stale = somp::tls_event_sink.on_access != nullptr &&
                 somp::tls_event_sink.epoch != somp::CurrentSinkEpoch();
    somp::ClearThreadSink();
  });
  std::thread clearer([&] {
    somp::InstallThreadSink(somp::ThreadEventSink{&CountFastAccess});
    cleared_epoch = somp::tls_event_sink.epoch;
    somp::ClearThreadSink();
    installed.arrive_and_wait();
    retired.arrive_and_wait();
  });
  installed.arrive_and_wait();
  somp::Runtime::Get().Configure({});
  retired.arrive_and_wait();
  keeper.join();
  clearer.join();
  EXPECT_TRUE(kept_stale) << "a sink held across Configure stays valid";
  EXPECT_NE(cleared_epoch, somp::CurrentSinkEpoch())
      << "a sink stamped before Configure stays valid";

  // Every thread quiescent (no sink installed anywhere): RetireSinks still
  // moves the epoch, so a sink stamped before it cannot pass the check.
  somp::InstallThreadSink(somp::ThreadEventSink{&CountFastAccess});
  const uint64_t stamped = somp::tls_event_sink.epoch;
  somp::ClearThreadSink();
  somp::RetireSinks();
  EXPECT_NE(stamped, somp::CurrentSinkEpoch());
}

TEST(SinkRetirement, RetiredSinkRoutesAccessesToTheVirtualPath) {
  // The per-access check is the guarantee: a sink still installed when
  // RetireSinks() runs mid-region (the crash drain) must stop receiving
  // accesses; they reach the tool's virtual OnAccess instead.
  struct StickySinkTool : somp::Tool {
    std::atomic<uint64_t> fast{0};
    std::atomic<uint64_t> slow{0};
    void OnImplicitTaskBegin(somp::Ctx& ctx) override {
      somp::InstallThreadSink(
          somp::ThreadEventSink{&CountFastAccess, nullptr, &fast, &ctx});
    }
    void OnImplicitTaskEnd(somp::Ctx&) override { somp::ClearThreadSink(); }
    void OnAccess(somp::Ctx&, uint64_t, uint8_t, uint8_t, somp::PcId) override {
      slow.fetch_add(1);
    }
  };
  StickySinkTool tool;
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().Configure(rc);
  std::vector<uint64_t> cells(2);
  somp::Parallel(2, [&](somp::Ctx& ctx) {
    instr::store(cells[ctx.thread_num()], uint64_t{1});
    ctx.Barrier();
    if (ctx.thread_num() == 0) somp::RetireSinks();
    ctx.Barrier();
    instr::store(cells[ctx.thread_num()], uint64_t{2});
  });
  somp::Runtime::Get().Configure({});
  EXPECT_EQ(tool.fast.load(), 2u) << "accesses before the retirement";
  EXPECT_EQ(tool.slow.load(), 2u) << "accesses after the retirement";
}

// --- report identity: asynchronous vs synchronous flusher -------------------

struct SweepOp {
  uint64_t offset;
  uint64_t count;
  uint64_t reps;
  bool write;
  bool atomic;
  bool range;
  uint32_t site;
  uint32_t lock;  // ~0u = none
};

struct SweepProgram {
  uint32_t lanes;
  uint32_t phases;
  std::vector<std::vector<std::vector<SweepOp>>> ops;  // [lane][phase]
};

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
        op.offset = rng.Below(16) * 8;
        op.count = rng.Chance(0.6) ? 2 + rng.Below(32) : 1;
        op.reps = rng.Chance(0.4) ? 2 + rng.Below(3) : 1;
        op.write = rng.Chance(0.6);
        op.atomic = rng.Chance(0.15);
        op.range = rng.Chance(0.2);
        op.site = static_cast<uint32_t>(rng.Below(8));
        op.lock = rng.Chance(0.25) ? static_cast<uint32_t>(rng.Below(2)) : ~0u;
        p.ops[lane][phase].push_back(op);
      }
    }
  }
  return p;
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

void RunSweepOp(std::vector<uint64_t>& pool, const SweepOp& op) {
  const std::source_location& loc = SweepSites()[op.site];
  for (uint64_t rep = 0; rep < op.reps; rep++) {
    if (op.range && op.count > 1) {
      uint8_t* base = reinterpret_cast<uint8_t*>(pool.data()) + op.offset;
      if (op.write) instr::write_range(base, op.count * 8, 0, loc);
      else instr::read_range(base, op.count * 8, loc);
      continue;
    }
    for (uint64_t i = 0; i < op.count; i++) {
      uint64_t& cell = pool[op.offset / 8 + i];
      if (op.atomic) {
        if (op.write) instr::atomic_store(cell, uint64_t{1}, loc);
        else (void)instr::atomic_load(cell, loc);
      } else {
        if (op.write) instr::store(cell, uint64_t{1}, loc);
        else (void)instr::load(cell, loc);
      }
    }
  }
}

/// Runs the program under SWORD with the given trace format and flush mode
/// and returns the race pc-pair SET (lane -> tid scheduling order varies across
/// runs, so ordered reports are not comparable here; byte identity is
/// asserted by ScriptedPlaneIdentity below with fixed lane ids).
std::set<std::pair<uint32_t, uint32_t>> CollectRacePairs(
    const SweepProgram& p, std::vector<uint64_t>& pool, uint8_t format,
    bool async_flush) {
  TempDir dir("plane-sweep");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  sc.trace_format = format;
  sc.async_flush = async_flush;
  {
    core::SwordTool tool(sc);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    somp::Parallel(p.lanes, [&](somp::Ctx& ctx) {
      for (uint32_t phase = 0; phase < p.phases; phase++) {
        for (const SweepOp& op : p.ops[ctx.thread_num()][phase]) {
          if (op.lock != ~0u) {
            ctx.Critical("plane-lock-" + std::to_string(op.lock),
                         [&] { RunSweepOp(pool, op); });
          } else {
            RunSweepOp(pool, op);
          }
        }
        if (phase + 1 < p.phases) ctx.Barrier();
      }
    });
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

class PlaneAblation : public ::testing::TestWithParam<int> {};

TEST_P(PlaneAblation, RaceSetsIdenticalAcrossPlanesAndFormats) {
  Rng rng(62000 + static_cast<uint64_t>(GetParam()));
  const SweepProgram p = GenerateSweepProgram(rng);
  std::vector<uint64_t> pool(16 + 40);
  for (uint8_t format = trace::kTraceFormatV1; format <= trace::kTraceFormatV3;
       format++) {
    const auto async = CollectRacePairs(p, pool, format, /*async_flush=*/true);
    const auto sync = CollectRacePairs(p, pool, format, /*async_flush=*/false);
    EXPECT_EQ(async, sync) << "seed " << GetParam() << " format " << int{format}
                           << ": the flush plane changed the race set";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweeps, PlaneAblation, ::testing::Range(0, 6));

/// Byte identity: per-lane scripted writers (tid == lane, so scheduling
/// cannot reorder anything) pushed once through the asynchronous flusher
/// (ring lanes, credits, pooled buffers, per-worker codec scratch) and once
/// through the synchronous one (inline, no coordination). Per-path frame
/// FIFO plus deterministic input means every produced file - logs and
/// metas - must be byte-for-byte identical between the two.
TEST(ScriptedPlaneIdentity, TraceFilesByteIdenticalAcrossPlanes) {
  Rng rng(75000);
  const SweepProgram p = GenerateSweepProgram(rng);
  auto produce = [&](bool async, const std::string& dir_path) {
    trace::FlusherConfig fc;
    fc.async = async;
    fc.workers = 2;
    fc.max_queued_jobs = 4;
    trace::Flusher flusher(fc);
    for (uint32_t lane = 0; lane < p.lanes; lane++) {
      trace::WriterConfig wc;
      wc.log_path = dir_path + "/sword_t" + std::to_string(lane) + ".log";
      wc.meta_path = dir_path + "/sword_t" + std::to_string(lane) + ".meta";
      wc.buffer_bytes = 4096;  // tiny: force many flushes through the lanes
      wc.flusher = &flusher;
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
          const uint64_t addr = 0x10000 + op.offset;
          const uint8_t flags =
              static_cast<uint8_t>((op.write ? 1 : 0) | (op.atomic ? 2 : 0));
          for (uint64_t rep = 0; rep < op.reps * 8; rep++) {
            for (uint64_t i = 0; i < op.count; i++) {
              writer.AppendAccess(addr + i * 8, 8, flags, op.site + 1);
            }
          }
        }
        writer.EndSegment();
        label = label.AfterBarrier();
      }
      EXPECT_TRUE(writer.Finish().ok());
    }
    flusher.Drain();
    EXPECT_TRUE(flusher.status().ok());
  };
  TempDir async_dir("plane-async"), sync_dir("plane-sync");
  produce(true, async_dir.path());
  produce(false, sync_dir.path());
  for (uint32_t lane = 0; lane < p.lanes; lane++) {
    for (const char* ext : {".log", ".meta"}) {
      const std::string name = "sword_t" + std::to_string(lane) + ext;
      auto async = ReadFileBytes(async_dir.path() + "/" + name);
      auto sync = ReadFileBytes(sync_dir.path() + "/" + name);
      ASSERT_TRUE(async.ok() && sync.ok()) << name;
      EXPECT_EQ(async.value(), sync.value())
          << name << " differs between the async and sync flushers";
    }
  }
}

}  // namespace
}  // namespace sword
