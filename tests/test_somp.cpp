// Tests for src/somp: fork/join execution, worksharing schedules, barriers,
// single/master/sections, nested regions, locks, offset-span label
// maintenance, tool callback ordering, and source-location interning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "somp/srcloc.h"
#include "somp/tool.h"
#include "somp/verifier.h"
#include "workloads/workload.h"

namespace sword::somp {
namespace {

class SompTest : public testing::Test {
 protected:
  void SetUp() override {
    RuntimeConfig rc;
    rc.tool = nullptr;
    rc.default_threads = 4;
    Runtime::Get().ResetIds();
    Runtime::Get().Configure(rc);
  }
  void TearDown() override {
    RuntimeConfig rc;
    Runtime::Get().Configure(rc);
  }
};

TEST_F(SompTest, TeamShapeAndLanes) {
  std::mutex mutex;
  std::set<uint32_t> lanes;
  Parallel(6, [&](Ctx& ctx) {
    EXPECT_EQ(ctx.num_threads(), 6u);
    EXPECT_EQ(ctx.level(), 1u);
    std::lock_guard lock(mutex);
    lanes.insert(ctx.thread_num());
  });
  EXPECT_EQ(lanes.size(), 6u);
  EXPECT_EQ(*lanes.begin(), 0u);
  EXPECT_EQ(*lanes.rbegin(), 5u);
}

TEST_F(SompTest, DefaultThreadsUsedForSpanZero) {
  std::atomic<uint32_t> span{0};
  Parallel(0, [&](Ctx& ctx) { span = ctx.num_threads(); });
  EXPECT_EQ(span.load(), 4u);
}

TEST_F(SompTest, StaticForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  Parallel(7, [&](Ctx& ctx) {
    ctx.For(0, kN, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  });
  for (int64_t i = 0; i < kN; i++) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(SompTest, StaticChunkedAssignsRoundRobin) {
  constexpr int64_t kN = 64;
  std::vector<uint32_t> owner(kN, ~0u);
  Parallel(4, [&](Ctx& ctx) {
    ctx.For(0, kN, [&](int64_t i) { owner[static_cast<size_t>(i)] = ctx.thread_num(); },
            {.chunk = 4});
  });
  for (int64_t i = 0; i < kN; i++) {
    EXPECT_EQ(owner[static_cast<size_t>(i)], (i / 4) % 4) << i;
  }
}

TEST_F(SompTest, DynamicForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  Parallel(5, [&](Ctx& ctx) {
    ctx.For(0, kN, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
            {.schedule = Schedule::kDynamic, .chunk = 7});
  });
  for (int64_t i = 0; i < kN; i++) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(SompTest, GuidedForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 777;
  std::vector<std::atomic<int>> hits(kN);
  Parallel(6, [&](Ctx& ctx) {
    ctx.For(0, kN, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
            {.schedule = Schedule::kGuided});
  });
  for (int64_t i = 0; i < kN; i++) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(SompTest, EmptyForStillBarriers) {
  Parallel(4, [&](Ctx& ctx) {
    const uint64_t before = ctx.barrier_phase();
    ctx.For(5, 5, [&](int64_t) { FAIL(); });
    EXPECT_EQ(ctx.barrier_phase(), before + 1);
  });
}

TEST_F(SompTest, BarrierSeparatesPhasesAndAdvancesLabel) {
  Parallel(4, [&](Ctx& ctx) {
    EXPECT_EQ(ctx.barrier_phase(), 0u);
    EXPECT_EQ(ctx.label().Phase(), 0u);
    ctx.Barrier();
    EXPECT_EQ(ctx.barrier_phase(), 1u);
    EXPECT_EQ(ctx.label().Phase(), 1u);
    EXPECT_EQ(ctx.label().Lane(), ctx.thread_num());
  });
}

TEST_F(SompTest, BarrierActuallySynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  Parallel(8, [&](Ctx& ctx) {
    before++;
    ctx.Barrier();
    if (before.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_F(SompTest, SingleRunsExactlyOnce) {
  std::atomic<int> runs{0};
  Parallel(8, [&](Ctx& ctx) {
    for (int k = 0; k < 5; k++) {
      ctx.Single([&] { runs++; });
    }
  });
  EXPECT_EQ(runs.load(), 5);
}

TEST_F(SompTest, MasterRunsOnLaneZeroOnly) {
  std::atomic<uint32_t> who{999};
  Parallel(6, [&](Ctx& ctx) {
    ctx.Master([&] { who = ctx.thread_num(); });
  });
  EXPECT_EQ(who.load(), 0u);
}

TEST_F(SompTest, OrderedSerializesInIterationOrder) {
  constexpr int64_t kN = 64;
  std::vector<int64_t> order;
  Parallel(5, [&](Ctx& ctx) {
    ctx.For(0, kN,
            [&](int64_t i) {
              ctx.Ordered(i, 0, [&] { order.push_back(i); });  // safe: serialized
            },
            {.schedule = Schedule::kDynamic});
  });
  ASSERT_EQ(order.size(), static_cast<size_t>(kN));
  for (int64_t i = 0; i < kN; i++) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(SompTest, OrderedDoesNotDesynchronizeLaterConstructs) {
  // ws_seq_ must stay aligned across the team even though members execute
  // different numbers of Ordered calls; a Single afterwards still runs once.
  std::atomic<int> singles{0};
  Parallel(4, [&](Ctx& ctx) {
    ctx.For(0, 16, [&](int64_t i) { ctx.Ordered(i, 0, [] {}); });
    ctx.Single([&] { singles++; });
  });
  EXPECT_EQ(singles.load(), 1);
}

TEST_F(SompTest, SectionsEachRunOnce) {
  std::atomic<int> a{0}, b{0}, c{0};
  Parallel(4, [&](Ctx& ctx) {
    ctx.Sections({[&] { a++; }, [&] { b++; }, [&] { c++; }});
  });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
  EXPECT_EQ(c.load(), 1);
}

TEST_F(SompTest, StaticSectionsPinToLanes) {
  std::array<std::atomic<uint32_t>, 2> owner{};
  Parallel(4, [&](Ctx& ctx) {
    ctx.Sections({[&] { owner[0] = ctx.thread_num(); },
                  [&] { owner[1] = ctx.thread_num(); }},
                 false, /*static_dist=*/true);
  });
  EXPECT_EQ(owner[0].load(), 0u);
  EXPECT_EQ(owner[1].load(), 1u);
}

TEST_F(SompTest, NestedRegionLabelsNest) {
  std::mutex mutex;
  std::set<std::string> labels;
  Parallel(2, [&](Ctx& outer) {
    EXPECT_EQ(outer.level(), 1u);
    outer.Parallel(2, [&](Ctx& inner) {
      EXPECT_EQ(inner.level(), 2u);
      EXPECT_EQ(inner.label().depth(), 3u);  // root + outer + inner
      std::lock_guard lock(mutex);
      labels.insert(inner.label().ToString());
    });
  });
  EXPECT_EQ(labels.size(), 4u);  // 2 outer lanes x 2 inner lanes, all distinct
}

TEST_F(SompTest, CriticalIsMutuallyExclusiveAndTracksHeld) {
  int64_t counter = 0;
  Parallel(8, [&](Ctx& ctx) {
    for (int k = 0; k < 100; k++) {
      ctx.Critical("t-crit", [&] {
        EXPECT_EQ(ctx.held_mutexes().size(), 1u);
        counter++;  // safe exactly because of the critical
      });
    }
    EXPECT_TRUE(ctx.held_mutexes().empty());
  });
  EXPECT_EQ(counter, 800);
}

TEST_F(SompTest, NamedCriticalsShareAMutexDistinctNamesDoNot) {
  Runtime& rt = Runtime::Get();
  EXPECT_EQ(rt.InternNamedMutex("same"), rt.InternNamedMutex("same"));
  EXPECT_NE(rt.InternNamedMutex("one"), rt.InternNamedMutex("two"));
}

TEST_F(SompTest, LocksNestAndUnwind) {
  Lock l1, l2;
  Parallel(4, [&](Ctx& ctx) {
    l1.Acquire();
    l2.Acquire();
    EXPECT_EQ(ctx.held_mutexes().size(), 2u);
    l2.Release();
    EXPECT_EQ(ctx.held_mutexes().size(), 1u);
    l1.Release();
    EXPECT_TRUE(ctx.held_mutexes().empty());
  });
}

// Recording tool used to verify the callback protocol.
class RecordingTool : public Tool {
 public:
  void OnParallelBegin(Ctx*, RegionId region, uint32_t span) override {
    std::lock_guard lock(mutex_);
    events_.push_back("begin:" + std::to_string(region) + ":" + std::to_string(span));
  }
  void OnParallelEnd(Ctx*, RegionId region) override {
    std::lock_guard lock(mutex_);
    events_.push_back("end:" + std::to_string(region));
  }
  void OnImplicitTaskBegin(Ctx& ctx) override { Count("task_begin", ctx); }
  void OnImplicitTaskEnd(Ctx& ctx) override { Count("task_end", ctx); }
  void OnBarrierEnter(Ctx& ctx, uint64_t, BarrierKind kind) override {
    Count(kind == BarrierKind::kRegionEnd ? "region_end_barrier" : "barrier_enter",
          ctx);
  }
  void OnBarrierExit(Ctx& ctx, uint64_t) override { Count("barrier_exit", ctx); }
  void OnMutexAcquired(Ctx& ctx, MutexId) override { Count("acq", ctx); }
  void OnMutexReleased(Ctx& ctx, MutexId) override { Count("rel", ctx); }
  void OnAccess(Ctx& ctx, uint64_t, uint8_t, uint8_t, PcId) override {
    Count("access", ctx);
  }

  int Get(const std::string& key) {
    std::lock_guard lock(mutex_);
    return counts_[key];
  }
  std::vector<std::string> events() {
    std::lock_guard lock(mutex_);
    return events_;
  }

 private:
  void Count(const std::string& key, Ctx&) {
    std::lock_guard lock(mutex_);
    counts_[key]++;
  }
  std::mutex mutex_;
  std::map<std::string, int> counts_;
  std::vector<std::string> events_;
};

TEST_F(SompTest, ToolSeesCompleteCallbackProtocol) {
  RecordingTool tool;
  RuntimeConfig rc;
  rc.tool = &tool;
  Runtime::Get().Configure(rc);

  double x = 0.0;
  Parallel(3, [&](Ctx& ctx) {
    instr::store(x, 1.0);
    ctx.Barrier();
    ctx.Critical("tool-test", [&] { (void)instr::load(x); });
  });

  EXPECT_EQ(tool.Get("task_begin"), 3);
  EXPECT_EQ(tool.Get("task_end"), 3);
  EXPECT_EQ(tool.Get("barrier_enter"), 3);       // the explicit barrier
  EXPECT_EQ(tool.Get("barrier_exit"), 3);
  EXPECT_EQ(tool.Get("region_end_barrier"), 3);  // one per member
  EXPECT_EQ(tool.Get("acq"), 3);
  EXPECT_EQ(tool.Get("rel"), 3);
  EXPECT_EQ(tool.Get("access"), 6);  // 3 stores + 3 loads
  const auto events = tool.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].substr(0, 6), "begin:");
  EXPECT_EQ(events[1].substr(0, 4), "end:");
}

TEST_F(SompTest, RangeAccessesChunkAt128Bytes) {
  RecordingTool tool;
  RuntimeConfig rc;
  rc.tool = &tool;
  Runtime::Get().Configure(rc);
  std::vector<uint8_t> buffer(300);
  Parallel(1, [&](Ctx& ctx) {
    (void)ctx;
    instr::write_range(buffer.data(), buffer.size(), 7);
    instr::read_range(buffer.data(), 100);
  });
  // 300 bytes -> chunks of 128+128+44 = 3 events; 100 bytes -> 1 event.
  EXPECT_EQ(tool.Get("access"), 4);
  for (uint8_t b : buffer) EXPECT_EQ(b, 7);
}

TEST_F(SompTest, SequentialAccessesAreInvisible) {
  RecordingTool tool;
  RuntimeConfig rc;
  rc.tool = &tool;
  Runtime::Get().Configure(rc);

  double x = 0.0;
  instr::store(x, 5.0);           // outside any region: not instrumented
  EXPECT_EQ(instr::load(x), 5.0);
  EXPECT_EQ(tool.Get("access"), 0);
}

TEST_F(SompTest, InstrumentationPerformsTheRealOperation) {
  int64_t v = 0;
  Parallel(2, [&](Ctx& ctx) {
    if (ctx.thread_num() == 0) instr::atomic_add(v, int64_t{5});
    ctx.Barrier();
    EXPECT_EQ(instr::atomic_load(v), 5);
  });
  EXPECT_EQ(v, 5);
}

TEST_F(SompTest, SuccessiveRegionsGetFreshRegionIds) {
  RecordingTool tool;
  RuntimeConfig rc;
  rc.tool = &tool;
  Runtime::Get().Configure(rc);
  Parallel(2, [](Ctx&) {});
  Parallel(2, [](Ctx&) {});
  const auto events = tool.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_NE(events[0], events[2]);  // different region ids
}

TEST_F(SompTest, VerifierFindsNoViolationsAcrossConstructs) {
  somp::VerifierTool verifier;
  RuntimeConfig rc;
  rc.tool = &verifier;
  Runtime::Get().Configure(rc);

  // One program touching every construct: nested regions, all schedules,
  // barriers, single/master/sections, criticals, locks, ordered, reductions.
  std::vector<double> data(256, 1.0);
  double sum = 0.0;
  Lock lock;
  Parallel(6, [&](Ctx& ctx) {
    ctx.For(0, 256, [&](int64_t i) { instr::store(data[size_t(i)], 2.0); });
    ctx.For(0, 256, [&](int64_t i) { (void)instr::load(data[size_t(i)]); },
            {.schedule = Schedule::kDynamic, .chunk = 8});
    ctx.Barrier();
    ctx.Single([&] { instr::store(sum, 0.0); });
    ctx.Critical("verify-crit", [&] { instr::racy_increment(sum); });
    {
      Lock::Guard guard(lock);
      instr::racy_increment(sum);
    }
    ctx.Sections({[&] { (void)instr::load(sum); }, [] {}});
    ctx.For(0, 16, [&](int64_t i) { ctx.Ordered(i, 0, [] {}); });
    ctx.Master([&] { (void)instr::load(sum); });
    ctx.Parallel(2, [&](Ctx& inner) {
      inner.For(0, 32, [&](int64_t i) { (void)instr::load(data[size_t(i)]); });
      inner.Barrier();
    });
  });

  const auto errors = verifier.errors();
  EXPECT_TRUE(errors.empty()) << errors.size() << " violations, first: "
                              << (errors.empty() ? "" : errors.front());
  EXPECT_GT(verifier.accesses(), 500u);
}

TEST_F(SompTest, VerifierCleanOnEveryWorkload) {
  somp::VerifierTool verifier;
  RuntimeConfig rc;
  rc.tool = &verifier;
  Runtime::Get().Configure(rc);
  for (const auto* w : workloads::WorkloadRegistry::Get().All()) {
    if (w->suite == "hpc") continue;  // covered by their own runs; keep fast
    workloads::WorkloadParams params;
    params.threads = 4;
    params.size = 64;
    w->run(params);
  }
  const auto errors = verifier.errors();
  EXPECT_TRUE(errors.empty()) << errors.size() << " violations, first: "
                              << (errors.empty() ? "" : errors.front());
}

TEST(SrcLoc, InterningIsStableAndDense) {
  const PcId a = InternSrcLoc(std::source_location::current());
  const PcId b = InternSrcLoc(std::source_location::current());
  EXPECT_NE(a, b);  // different lines
  const SrcLoc& loc = LookupSrcLoc(a);
  EXPECT_NE(loc.file.find("test_somp"), std::string::npos);
  EXPECT_GT(loc.line, 0u);
  EXPECT_NE(loc.ToString().find("test_somp.cpp:"), std::string::npos);
}

TEST(SrcLoc, SameSiteSameId) {
  PcId first = 0, second = 0;
  for (int i = 0; i < 2; i++) {
    const PcId id = InternSrcLoc(std::source_location::current());  // one site
    (i == 0 ? first : second) = id;
  }
  EXPECT_EQ(first, second);
}

TEST(SrcLoc, TableIdsAgreeAcrossThreads) {
  // The shared table alone: hundreds of (file, line, column) keys, many
  // differing in one field only, interned by several threads in different
  // orders. The ids must be one per site, the same on every thread, dense,
  // and reversible.
  static const char* const kFiles[] = {"synthetic/alpha.cpp", "synthetic/beta.cpp",
                                       "synthetic/gamma.cpp"};
  struct Key {
    const char* file;
    uint32_t line;
    uint32_t column;
  };
  // Random lines and columns, the same in every file, so keys that differ in
  // one field only are plentiful and some of them share a cache set.
  Rng rng(2018);
  std::set<uint32_t> line_set;
  while (line_set.size() < 300) line_set.insert(1 + static_cast<uint32_t>(rng.Below(100000)));
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> lines;
  for (const uint32_t line : line_set) {
    std::set<uint32_t> columns;
    while (columns.size() < 8) columns.insert(1 + static_cast<uint32_t>(rng.Below(250)));
    lines.emplace_back(line, std::vector<uint32_t>(columns.begin(), columns.end()));
  }
  std::vector<Key> keys;
  for (const char* file : kFiles) {
    for (const auto& [line, columns] : lines) {
      for (const uint32_t column : columns) keys.push_back({file, line, column});
    }
  }
  const size_t before = SrcLocCount();
  constexpr int kThreads = 4;
  std::vector<std::vector<PcId>> ids(kThreads, std::vector<PcId>(keys.size()));
  std::atomic<int> unstable{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<size_t> order(keys.size());
      for (size_t i = 0; i < order.size(); i++) order[i] = i;
      // Thread 0 meets the columns of one line back to back, thread 1 the
      // lines of one column, thread 2 the files of one (line, column), and
      // thread 3 a shuffle.
      const size_t per_file = keys.size() / std::size(kFiles);
      const auto by = [&](auto field) {
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) { return field(a) < field(b); });
      };
      if (t == 1) {
        by([&](size_t k) { return std::tuple(k / per_file, keys[k].column, keys[k].line); });
      }
      if (t == 2) by([&](size_t k) { return std::pair(keys[k].line, keys[k].column); });
      Rng shuffle(100 + static_cast<uint64_t>(t));
      for (size_t i = order.size(); t == 3 && i > 1; i--) {
        std::swap(order[i - 1], order[shuffle.Below(i)]);
      }
      for (const size_t k : order) {
        ids[t][k] = InternSite(keys[k].file, keys[k].line, keys[k].column, "synthetic");
      }
      // A second pass meets both cached and evicted sites.
      for (const size_t k : order) {
        if (InternSite(keys[k].file, keys[k].line, keys[k].column, "synthetic") !=
            ids[t][k]) {
          unstable.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(unstable.load(), 0) << "a site's id changed between passes";

  std::set<PcId> distinct;
  for (size_t k = 0; k < keys.size(); k++) {
    for (int t = 1; t < kThreads; t++) ASSERT_EQ(ids[t][k], ids[0][k]) << "key " << k;
    const PcId id = ids[0][k];
    distinct.insert(id);
    const SrcLoc& loc = LookupSrcLoc(id);
    EXPECT_EQ(loc.file, keys[k].file);
    EXPECT_EQ(loc.line, keys[k].line);
    EXPECT_EQ(loc.column, keys[k].column);
    EXPECT_EQ(loc.function, "synthetic");
  }
  // One id per site, in one dense block; a repeated run (--gtest_repeat)
  // finds every site interned already and must add none.
  ASSERT_EQ(distinct.size(), keys.size());
  EXPECT_EQ(*distinct.rbegin() - *distinct.begin() + 1, keys.size()) << "ids are dense";
  EXPECT_EQ(SrcLocCount(), std::max<size_t>(before, *distinct.rbegin() + size_t{1}));
}

// Call sites whose source_location objects are distinct but share a (file,
// line, column): each instantiation has its own record, because the
// function name it carries names N.
template <size_t N>
std::source_location SiteA() { return std::source_location::current(); }
template <size_t N>
std::source_location SiteB() { return std::source_location::current(); }
template <size_t N>
std::source_location SiteC() { return std::source_location::current(); }

template <size_t... N>
std::vector<std::source_location> InstantiatedSites(std::index_sequence<N...>) {
  return {SiteA<N>()..., SiteB<N>()..., SiteC<N>()...};
}

TEST(SrcLoc, CallSiteCacheAgreesWithTheTable) {
  // 300 source_location objects, more than the per-thread pc cache has
  // slots, on three (file, line, column) sites. Several threads intern them
  // in different orders, so cache slots collide and evict on every thread.
  // Each id must be the shared table's id of the object's (file, line,
  // column) - the same for every instantiation of one line - and must not
  // change on a second pass.
  const std::vector<std::source_location> sites =
      InstantiatedSites(std::make_index_sequence<100>());
  std::set<uintptr_t> records;
  std::set<std::tuple<std::string, uint32_t, uint32_t>> keys;
  for (const std::source_location& loc : sites) {
    records.insert(std::bit_cast<uintptr_t>(loc));
    keys.emplace(loc.file_name(), loc.line(), loc.column());
  }
  ASSERT_EQ(records.size(), sites.size()) << "instantiations share a record";
  ASSERT_EQ(keys.size(), 3u);

  constexpr int kThreads = 4;
  std::vector<std::vector<PcId>> ids(kThreads, std::vector<PcId>(sites.size()));
  std::atomic<int> unstable{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<size_t> order(sites.size());
      for (size_t i = 0; i < order.size(); i++) order[i] = i;
      // Thread 0 meets the instantiations of one line back to back, thread
      // 1 the same in reverse, thread 2 the three lines of one
      // instantiation, and thread 3 a shuffle.
      if (t == 1) std::reverse(order.begin(), order.end());
      if (t == 2) {
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return a % (sites.size() / 3) < b % (sites.size() / 3);
        });
      }
      Rng shuffle(300 + static_cast<uint64_t>(t));
      for (size_t i = order.size(); t == 3 && i > 1; i--) {
        std::swap(order[i - 1], order[shuffle.Below(i)]);
      }
      for (const size_t k : order) ids[t][k] = InternSrcLoc(sites[k]);
      // A second pass meets both cached and evicted objects.
      for (const size_t k : order) {
        if (InternSrcLoc(sites[k]) != ids[t][k]) unstable.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(unstable.load(), 0) << "an object's id changed between passes";

  std::set<PcId> distinct;
  for (size_t k = 0; k < sites.size(); k++) {
    const std::source_location& loc = sites[k];
    const PcId table_id =
        InternSite(loc.file_name(), loc.line(), loc.column(), loc.function_name());
    for (int t = 0; t < kThreads; t++) ASSERT_EQ(ids[t][k], table_id) << "object " << k;
    distinct.insert(table_id);
    EXPECT_EQ(LookupSrcLoc(table_id).line, loc.line());
  }
  EXPECT_EQ(distinct.size(), keys.size());
}

}  // namespace
}  // namespace sword::somp
