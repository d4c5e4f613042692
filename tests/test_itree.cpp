// Tests for src/itree: mutex-set interning, the frozen set's sweep against
// naive oracles, and StreamingSetBuilder against the reference
// red-black interval tree (tests/oracle), whose own invariants under
// randomized insertion are checked here too.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "itree/frozen_set.h"
#include "itree/mutexset.h"
#include "itree/streaming_builder.h"
#include "oracle/interval_tree.h"

namespace sword::itree {
namespace {

TEST(MutexSet, EmptySetIsIdZero) {
  MutexSetTable table;
  EXPECT_EQ(table.Intern({}), kEmptyMutexSet);
  EXPECT_TRUE(table.Get(kEmptyMutexSet).empty());
}

TEST(MutexSet, InterningDedupsAndNormalizes) {
  MutexSetTable table;
  const MutexSetId a = table.Intern({3, 1, 2});
  const MutexSetId b = table.Intern({1, 2, 3});
  const MutexSetId c = table.Intern({2, 1, 1, 3, 3});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(table.Get(a), (std::vector<MutexId>{1, 2, 3}));
}

TEST(MutexSet, WithAndWithout) {
  MutexSetTable table;
  const MutexSetId s1 = table.WithMutex(kEmptyMutexSet, 7);
  const MutexSetId s2 = table.WithMutex(s1, 9);
  EXPECT_EQ(table.Get(s2), (std::vector<MutexId>{7, 9}));
  const MutexSetId s3 = table.WithoutMutex(s2, 7);
  EXPECT_EQ(table.Get(s3), (std::vector<MutexId>{9}));
  EXPECT_EQ(table.WithoutMutex(s3, 9), kEmptyMutexSet);
}

TEST(MutexSet, Intersection) {
  MutexSetTable table;
  const MutexSetId ab = table.Intern({1, 2});
  const MutexSetId bc = table.Intern({2, 3});
  const MutexSetId cd = table.Intern({3, 4});
  EXPECT_TRUE(table.Intersects(ab, bc));
  EXPECT_TRUE(table.Intersects(bc, cd));
  EXPECT_FALSE(table.Intersects(ab, cd));
  EXPECT_FALSE(table.Intersects(ab, kEmptyMutexSet));
  EXPECT_TRUE(table.Intersects(ab, ab));
  // Repeat to exercise the memo cache.
  EXPECT_TRUE(table.Intersects(ab, bc));
  EXPECT_FALSE(table.Intersects(cd, ab));
}

AccessKey Key(uint32_t pc, uint8_t flags = kWrite, uint8_t size = 8,
              MutexSetId ms = kEmptyMutexSet) {
  AccessKey k;
  k.pc = pc;
  k.flags = flags;
  k.size = size;
  k.mutexset = ms;
  return k;
}

TEST(IntervalTree, EmptyTreeValidates) {
  IntervalTree tree;
  EXPECT_TRUE(tree.Validate());
  EXPECT_TRUE(tree.Empty());
}

TEST(IntervalTree, ContiguousWalkSummarizesToOneNode) {
  IntervalTree tree;
  const AccessKey key = Key(1);
  for (uint64_t i = 0; i < 100; i++) tree.AddAccess(1000 + i * 8, key);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.TotalAccesses(), 100u);
  tree.ForEach([&](const AccessNode& n) {
    EXPECT_EQ(n.interval.base, 1000u);
    EXPECT_EQ(n.interval.stride, 8u);
    EXPECT_EQ(n.interval.count, 100u);
    EXPECT_EQ(n.hits, 100u);
  });
  EXPECT_TRUE(tree.Validate());
}

TEST(IntervalTree, ArbitraryStrideWalkSummarizes) {
  IntervalTree tree;
  const AccessKey key = Key(2, kRead, 4);
  for (uint64_t i = 0; i < 50; i++) tree.AddAccess(2000 + i * 24, key);
  EXPECT_EQ(tree.NodeCount(), 1u);
  tree.ForEach([&](const AccessNode& n) { EXPECT_EQ(n.interval.stride, 24u); });
}

TEST(IntervalTree, RepeatedScalarAccessFoldsIntoHits) {
  IntervalTree tree;
  const AccessKey key = Key(3);
  for (int i = 0; i < 1000; i++) tree.AddAccess(4096, key);
  EXPECT_EQ(tree.NodeCount(), 1u);
  tree.ForEach([&](const AccessNode& n) {
    EXPECT_EQ(n.interval.count, 1u);
    EXPECT_EQ(n.hits, 1000u);
  });
}

TEST(IntervalTree, DifferentKeysDoNotMerge) {
  IntervalTree tree;
  tree.AddAccess(100, Key(1, kWrite));
  tree.AddAccess(108, Key(2, kWrite));           // different pc
  tree.AddAccess(116, Key(1, kRead));            // different op
  tree.AddAccess(124, Key(1, kWrite, 4));        // different size
  EXPECT_EQ(tree.NodeCount(), 4u);
  EXPECT_TRUE(tree.Validate());
}

TEST(IntervalTree, InterruptedRunsSplit) {
  IntervalTree tree;
  const AccessKey a = Key(1);
  const AccessKey b = Key(2);
  // a-run interrupted by b-accesses still extends (per-key continuations).
  tree.AddAccess(1000, a);
  tree.AddAccess(5000, b);
  tree.AddAccess(1008, a);
  tree.AddAccess(5008, b);
  tree.AddAccess(1016, a);
  EXPECT_EQ(tree.NodeCount(), 2u);
  uint64_t max_count = 0;
  tree.ForEach([&](const AccessNode& n) {
    max_count = std::max(max_count, n.interval.count);
  });
  EXPECT_EQ(max_count, 3u);
}

TEST(IntervalTree, RandomizedStructuralInvariants) {
  Rng rng(606);
  IntervalTree tree;
  for (int i = 0; i < 5000; i++) {
    const AccessKey key = Key(static_cast<uint32_t>(rng.Below(5)),
                              rng.Chance(0.5) ? kWrite : kRead,
                              static_cast<uint8_t>(1 + rng.Below(8)));
    tree.AddAccess(10000 + rng.Below(4000), key);
    if (i % 512 == 0) {
      std::string why;
      ASSERT_TRUE(tree.Validate(&why)) << why << " at insert " << i;
    }
  }
  std::string why;
  EXPECT_TRUE(tree.Validate(&why)) << why;
  EXPECT_EQ(tree.TotalAccesses(), 5000u);
}

TEST(IntervalTree, QueryRangeMatchesNaiveOracle) {
  Rng rng(707);
  IntervalTree tree;
  std::vector<ilp::StridedInterval> inserted;
  for (int i = 0; i < 400; i++) {
    ilp::StridedInterval iv;
    iv.base = 100000 + rng.Below(10000);
    iv.stride = 8;
    iv.count = 1 + rng.Below(20);
    iv.size = 8;
    tree.AddInterval(iv, Key(static_cast<uint32_t>(i)));
    inserted.push_back(iv);
  }
  ASSERT_TRUE(tree.Validate());

  for (int q = 0; q < 200; q++) {
    const uint64_t lo = 100000 + rng.Below(10000);
    const uint64_t hi = lo + rng.Below(500);
    std::multiset<uint64_t> expected;
    for (const auto& iv : inserted) {
      if (iv.lo() <= hi && iv.hi() >= lo) expected.insert(iv.base);
    }
    std::multiset<uint64_t> actual;
    tree.QueryRange(lo, hi, [&](const AccessNode& n) {
      actual.insert(n.interval.base);
      return true;
    });
    EXPECT_EQ(actual, expected) << "query [" << lo << "," << hi << "]";
  }
}

TEST(IntervalTree, QueryEarlyExit) {
  IntervalTree tree;
  for (uint64_t i = 0; i < 50; i++) {
    tree.AddInterval({1000 + i, 0, 1, 1}, Key(static_cast<uint32_t>(i)));
  }
  int visits = 0;
  tree.QueryRange(0, 1 << 20, [&](const AccessNode&) {
    visits++;
    return visits < 3;  // stop after 3
  });
  EXPECT_EQ(visits, 3);
}

TEST(IntervalTree, CoverageExactnessUnderRandomStreams) {
  // Soundness AND completeness of summarization: the union of the byte
  // addresses represented by all nodes must EXACTLY equal the set of bytes
  // actually accessed - a fabricated byte would be a potential false
  // positive, a dropped byte a potential miss. Streams mix contiguous
  // walks, strided walks, repeats, and random jumps.
  Rng rng(909);
  for (int trial = 0; trial < 20; trial++) {
    IntervalTree tree;
    std::set<uint64_t> truth;  // byte addresses accessed

    const AccessKey key = Key(static_cast<uint32_t>(trial), kWrite, 4);
    uint64_t cursor = 1 << 16;
    for (int step = 0; step < 400; step++) {
      switch (rng.Below(4)) {
        case 0:  // contiguous element walk
          cursor += 4;
          break;
        case 1:  // strided jump forward
          cursor += 4 * (1 + rng.Below(8));
          break;
        case 2:  // repeat the same address
          break;
        default:  // random relocation
          cursor = (1 << 16) + rng.Below(1 << 12) * 4;
          break;
      }
      tree.AddAccess(cursor, key);
      for (uint64_t b = 0; b < key.size; b++) truth.insert(cursor + b);
    }

    std::set<uint64_t> covered;
    tree.ForEach([&](const AccessNode& n) {
      for (uint64_t e = 0; e < n.interval.count; e++) {
        const uint64_t base = n.interval.base + e * n.interval.stride;
        for (uint64_t b = 0; b < n.interval.size; b++) covered.insert(base + b);
      }
    });
    ASSERT_EQ(covered, truth) << "trial " << trial;
    std::string why;
    ASSERT_TRUE(tree.Validate(&why)) << why;
  }
}

TEST(IntervalTree, MemoryGrowsWithNodesNotAccesses) {
  IntervalTree dense, sparse;
  const AccessKey key = Key(1);
  for (uint64_t i = 0; i < 10000; i++) dense.AddAccess(1 << 20 | (i * 8), key);
  Rng rng(808);
  for (uint64_t i = 0; i < 300; i++) {
    sparse.AddAccess((2 << 20) + rng.Below(1 << 18) * 16, Key(uint32_t(i % 7)));
  }
  // 10000 summarized accesses -> 1 node; 300 scattered -> many nodes.
  EXPECT_EQ(dense.NodeCount(), 1u);
  EXPECT_GT(sparse.NodeCount(), 100u);
  EXPECT_LT(dense.MemoryBytes(), sparse.MemoryBytes());
}

IntervalTree RandomTree(Rng& rng, int nodes, uint64_t base_lo = 100000,
                        uint64_t spread = 10000) {
  IntervalTree tree;
  for (int i = 0; i < nodes; i++) {
    ilp::StridedInterval iv;
    iv.base = base_lo + rng.Below(spread);
    iv.stride = 8 * (1 + rng.Below(3));
    iv.count = 1 + rng.Below(20);
    iv.size = 1 + rng.Below(8);
    tree.AddInterval(iv, Key(static_cast<uint32_t>(i)));
  }
  return tree;
}

TEST(FrozenIntervalSet, FreezePreservesEveryNodeInLoOrder) {
  Rng rng(4242);
  const IntervalTree tree = RandomTree(rng, 300);
  const FrozenIntervalSet frozen = FreezeTree(tree);
  ASSERT_EQ(frozen.size(), tree.NodeCount());

  std::vector<const AccessNode*> in_order;
  tree.ForEach([&](const AccessNode& n) { in_order.push_back(&n); });
  for (uint32_t i = 0; i < frozen.size(); i++) {
    EXPECT_EQ(frozen.lo(i), in_order[i]->interval.lo());
    EXPECT_EQ(frozen.hi(i), in_order[i]->interval.hi());
    EXPECT_EQ(frozen.node(i).key.pc, in_order[i]->key.pc);
    if (i > 0) {
      EXPECT_LE(frozen.lo(i - 1), frozen.lo(i));
    }
  }
  EXPECT_GT(frozen.MemoryBytes(), 0u);
}

TEST(FrozenIntervalSet, EmptyTreeFreezesEmpty) {
  const IntervalTree tree;
  const FrozenIntervalSet frozen = FreezeTree(tree);
  EXPECT_TRUE(frozen.Empty());
  EXPECT_EQ(frozen.MemoryBytes(), 0u);
}

TEST(SweepMatchingPairs, MatchesNestedLoopOracle) {
  Rng rng(616);
  for (int trial = 0; trial < 20; trial++) {
    // Vary density: overlapping address spreads in some trials, nearly
    // disjoint ones in others, plus empty-side cases.
    const int na = trial == 0 ? 0 : 1 + static_cast<int>(rng.Below(120));
    const int nb = trial == 1 ? 0 : 1 + static_cast<int>(rng.Below(120));
    const uint64_t spread = 200 + rng.Below(20000);
    IntervalTree ta = RandomTree(rng, na, 100000, spread);
    IntervalTree tb = RandomTree(rng, nb, 100000 + rng.Below(spread), spread);
    const FrozenIntervalSet a = FreezeTree(ta), b = FreezeTree(tb);

    std::multiset<std::pair<uint64_t, uint64_t>> expected;
    for (uint32_t i = 0; i < a.size(); i++) {
      for (uint32_t j = 0; j < b.size(); j++) {
        if (a.lo(i) <= b.hi(j) && a.hi(i) >= b.lo(j)) {
          expected.insert({a.node(i).interval.base, b.node(j).interval.base});
        }
      }
    }
    std::multiset<std::pair<uint64_t, uint64_t>> actual;
    SweepMatchingPairs(a, b, [&](uint32_t i, uint32_t j) {
      actual.insert({a.node(i).interval.base, b.node(j).interval.base});
      return true;
    });
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(SweepMatchingPairs, EarlyExitStopsEnumeration) {
  IntervalTree ta, tb;
  for (uint64_t i = 0; i < 40; i++) {
    ta.AddInterval({1000, 0, 1, 100}, Key(static_cast<uint32_t>(i)));
    tb.AddInterval({1050, 0, 1, 100}, Key(static_cast<uint32_t>(i)));
  }
  const FrozenIntervalSet a = FreezeTree(ta), b = FreezeTree(tb);
  int pairs = 0;
  const bool completed = SweepMatchingPairs(a, b, [&](uint32_t, uint32_t) {
    pairs++;
    return pairs < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(pairs, 5);
}

// --- The sweep over mixed access kinds: pairs with a write are emitted,
// read-read pairs never visited. The nested loop over all index pairs is the
// oracle.

/// Like RandomTree, but each node is a write with probability `write_p`
/// (plain or atomic, at random) and a read otherwise (plain or atomic).
/// `lo_slots` > 0 draws bases from that many 8-byte slots, forcing lo ties.
IntervalTree RandomMixedTree(Rng& rng, int nodes, uint64_t base_lo,
                             uint64_t spread, double write_p,
                             uint64_t lo_slots = 0, uint32_t first_pc = 0) {
  IntervalTree tree;
  for (int i = 0; i < nodes; i++) {
    ilp::StridedInterval iv;
    iv.base = base_lo + (lo_slots > 0 ? 8 * rng.Below(lo_slots)
                                      : rng.Below(spread));
    iv.stride = 8 * (1 + rng.Below(3));
    iv.count = 1 + rng.Below(20);
    iv.size = 1 + rng.Below(8);
    uint8_t flags = rng.Chance(write_p) ? kWrite : kRead;
    if (rng.Chance(0.25)) flags |= kAtomic;
    tree.AddInterval(iv, Key(first_pc + static_cast<uint32_t>(i), flags));
  }
  return tree;
}

using IndexPairs = std::multiset<std::pair<uint32_t, uint32_t>>;

/// Runs the sweep to completion and checks it against the nested loop:
/// emitted pairs == touching pairs with a write, each exactly once.
void ExpectSweepMatchesOracle(const FrozenIntervalSet& a,
                              const FrozenIntervalSet& b,
                              const std::string& what) {
  IndexPairs expected;
  for (uint32_t i = 0; i < a.size(); i++) {
    for (uint32_t j = 0; j < b.size(); j++) {
      if (a.lo(i) > b.hi(j) || a.hi(i) < b.lo(j)) continue;
      if (a.node(i).key.is_write() || b.node(j).key.is_write()) {
        expected.insert({i, j});
      }
    }
  }
  IndexPairs emitted;
  const bool completed = SweepMatchingPairs(a, b, [&](uint32_t i, uint32_t j) {
    emitted.insert({i, j});
    return true;
  });
  EXPECT_TRUE(completed) << what;
  EXPECT_EQ(emitted, expected) << what;
}

TEST(SweepMatchingPairs, MixedKindsMatchNestedLoopOracle) {
  Rng rng(717);
  // Write probabilities per side, covering all-read and all-write sides.
  const std::pair<double, double> mixes[] = {
      {0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0},
      {0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}, {0.0, 0.3}};
  for (const auto& [pa, pb] : mixes) {
    for (int trial = 0; trial < 6; trial++) {
      const int na = 1 + static_cast<int>(rng.Below(120));
      const int nb = 1 + static_cast<int>(rng.Below(120));
      const uint64_t spread = 200 + rng.Below(20000);
      const FrozenIntervalSet a =
          FreezeTree(RandomMixedTree(rng, na, 100000, spread, pa));
      const FrozenIntervalSet b = FreezeTree(
          RandomMixedTree(rng, nb, 100000 + rng.Below(spread), spread, pb));
      ExpectSweepMatchesOracle(a, b, "write_p " + std::to_string(pa) + "/" +
                                         std::to_string(pb) + " trial " +
                                         std::to_string(trial));
    }
  }
}

TEST(SweepMatchingPairs, LoTiesBetweenReadsAndWrites) {
  // Handcrafted: at every shared lo, each side has both a read and a write,
  // in both insertion orders, with different lengths.
  IntervalTree ta, tb;
  uint32_t pc = 0;
  for (uint64_t lo : {1000u, 1016u, 1032u}) {
    ta.AddInterval({lo, 8, 2, 8}, Key(pc++, kRead));
    ta.AddInterval({lo, 8, 4, 8}, Key(pc++, kWrite));
    tb.AddInterval({lo, 8, 3, 8}, Key(pc++, kWrite));
    tb.AddInterval({lo, 8, 1, 8}, Key(pc++, kRead));
  }
  ExpectSweepMatchesOracle(FreezeTree(ta), FreezeTree(tb),
                           "handcrafted ties");
  // Randomized: bases drawn from a few slots, so most los tie across and
  // within sides.
  Rng rng(818);
  for (int trial = 0; trial < 30; trial++) {
    const int na = 1 + static_cast<int>(rng.Below(60));
    const int nb = 1 + static_cast<int>(rng.Below(60));
    const FrozenIntervalSet a =
        FreezeTree(RandomMixedTree(rng, na, 5000, 0, 0.4, 1 + rng.Below(6)));
    const FrozenIntervalSet b = FreezeTree(
        RandomMixedTree(rng, nb, 5000, 0, 0.4, 1 + rng.Below(6), 1000));
    ExpectSweepMatchesOracle(a, b, "tie trial " + std::to_string(trial));
  }
}

TEST(SweepMatchingPairs, LongIntervalSpanningTheOtherSide) {
  Rng rng(919);
  const IntervalTree others = RandomMixedTree(rng, 200, 100000, 50000, 0.3);
  for (const uint8_t flags : {kRead, kWrite}) {
    IntervalTree one;
    one.AddInterval({99000, 0, 1, 60000}, Key(9999, flags));
    const FrozenIntervalSet spanning = FreezeTree(one);
    const FrozenIntervalSet rest = FreezeTree(others);
    const std::string kind = flags == kWrite ? "write" : "read";
    ExpectSweepMatchesOracle(spanning, rest, "long " + kind + " on a");
    ExpectSweepMatchesOracle(rest, spanning, "long " + kind + " on b");
  }
}

TEST(SweepMatchingPairs, MixedEarlyExitStopsAndEmitsOnlyWritePairs) {
  Rng rng(1010);
  const FrozenIntervalSet a =
      FreezeTree(RandomMixedTree(rng, 150, 100000, 2000, 0.3));
  const FrozenIntervalSet b =
      FreezeTree(RandomMixedTree(rng, 150, 100000, 2000, 0.3));
  int emitted = 0;
  const bool completed = SweepMatchingPairs(a, b, [&](uint32_t i, uint32_t j) {
    EXPECT_TRUE(a.node(i).key.is_write() || b.node(j).key.is_write());
    emitted++;
    return emitted < 7;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(emitted, 7);
}

/// `n` read nodes that all overlap each other, starting at `base`.
IntervalTree OverlappingReads(uint32_t n, uint64_t base, uint32_t first_pc) {
  IntervalTree tree;
  for (uint32_t i = 0; i < n; i++) {
    tree.AddInterval({base + i * 8, 8, 4 * n, 8}, Key(first_pc + i, kRead));
  }
  return tree;
}

TEST(SweepMatchingPairs, ReadOnlySideAgainstReadsEmitsNothing) {
  const FrozenIntervalSet a = FreezeTree(OverlappingReads(300, 1000, 0));
  const FrozenIntervalSet b = FreezeTree(OverlappingReads(300, 1004, 1000));
  int emitted = 0;
  EXPECT_TRUE(SweepMatchingPairs(a, b, [&](uint32_t, uint32_t) {
    emitted++;
    return true;
  }));
  EXPECT_EQ(emitted, 0);
  // Against a side with writes, a read-only side emits exactly the pairs
  // with those writes.
  Rng rng(1111);
  const FrozenIntervalSet mixed =
      FreezeTree(RandomMixedTree(rng, 200, 1000, 4000, 0.3, 0, 5000));
  ExpectSweepMatchesOracle(a, mixed, "read-only a");
  ExpectSweepMatchesOracle(mixed, a, "read-only b");
}

TEST(SweepMatchingPairs, CancelStopsReadOnlyStretch) {
  // No pair is ever emitted, so only the per-start-event poll can stop it.
  const FrozenIntervalSet a = FreezeTree(OverlappingReads(500, 1000, 0));
  const FrozenIntervalSet b = FreezeTree(OverlappingReads(500, 1004, 1000));
  std::atomic<bool> cancel{true};
  EXPECT_FALSE(SweepMatchingPairs(
      a, b, [](uint32_t, uint32_t) { return true; }, &cancel));
}

TEST(SweepMatchingPairs, StaleReadsDoNotDefeatEarlyExit) {
  // a is one short read; b is a write that pairs with it, then a long
  // read-only tail far past it. b's reads never expire a's read (only a
  // write's start scans the other side's reads), so a's active list still
  // holds it after the pair is emitted. The callback raises cancel on that
  // one pair: a sweep that exits once nothing of a reaches b's next start
  // returns completed without polling it; one that kept walking b's tail
  // would see the flag at its next start event and report a stop.
  IntervalTree ta;
  ta.AddInterval({1000, 0, 1, 8}, Key(1, kRead));
  IntervalTree tb;
  tb.AddInterval({1000, 0, 1, 8}, Key(2, kWrite));
  for (uint32_t i = 0; i < 1000; i++) {
    tb.AddInterval({5000 + i * 8, 0, 1, 8}, Key(3 + i, kRead));
  }
  const FrozenIntervalSet a = FreezeTree(ta), b = FreezeTree(tb);
  std::atomic<bool> cancel{false};
  int emitted = 0;
  EXPECT_TRUE(SweepMatchingPairs(
      a, b,
      [&](uint32_t i, uint32_t j) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(j, 0u);
        emitted++;
        cancel.store(true);
        return true;
      },
      &cancel));
  EXPECT_EQ(emitted, 1);
  // Same with the sides swapped.
  cancel.store(false);
  emitted = 0;
  EXPECT_TRUE(SweepMatchingPairs(
      b, a,
      [&](uint32_t, uint32_t) {
        emitted++;
        cancel.store(true);
        return true;
      },
      &cancel));
  EXPECT_EQ(emitted, 1);
}

// --- StreamingSetBuilder: the decode-to-frozen path must reproduce the
// reference tree's frozen form, FreezeTree(tree), EXACTLY - same columns,
// same node payloads, same order, same capacities (hence MemoryBytes) - for
// any event sequence.
// These tests drive both summarizers with identical streams and compare
// the frozen forms field by field.

void ExpectFrozenEqual(const FrozenIntervalSet& stream,
                       const FrozenIntervalSet& tree) {
  ASSERT_EQ(stream.size(), tree.size());
  EXPECT_EQ(stream.MemoryBytes(), tree.MemoryBytes());
  for (size_t i = 0; i < stream.size(); i++) {
    EXPECT_EQ(stream.lo(i), tree.lo(i)) << "lo at " << i;
    EXPECT_EQ(stream.hi(i), tree.hi(i)) << "hi at " << i;
    const AccessNode& s = stream.node(i);
    const AccessNode& t = tree.node(i);
    EXPECT_EQ(s.interval.base, t.interval.base) << i;
    EXPECT_EQ(s.interval.stride, t.interval.stride) << i;
    EXPECT_EQ(s.interval.count, t.interval.count) << i;
    EXPECT_EQ(s.interval.size, t.interval.size) << i;
    EXPECT_EQ(s.key.pc, t.key.pc) << i;
    EXPECT_EQ(s.key.flags, t.key.flags) << i;
    EXPECT_EQ(s.key.size, t.key.size) << i;
    EXPECT_EQ(s.key.mutexset, t.key.mutexset) << i;
    EXPECT_EQ(s.hits, t.hits) << i;
  }
}

TEST(StreamingSetBuilder, AscendingWalkMatchesTree) {
  StreamingSetBuilder builder;
  IntervalTree tree;
  const AccessKey key = Key(11);
  for (uint64_t i = 0; i < 100; i++) {
    builder.AddAccess(0x1000 + i * 8, key);
    tree.AddAccess(0x1000 + i * 8, key);
  }
  EXPECT_EQ(builder.NodeCount(), 1u);  // summarized to one run, like the tree
  EXPECT_EQ(builder.TotalAccesses(), tree.TotalAccesses());
  const FrozenIntervalSet frozen = builder.Freeze();
  ASSERT_EQ(frozen.size(), 1u);
  EXPECT_EQ(frozen.lo(0), 0x1000u);
  EXPECT_EQ(frozen.hi(0), 0x1000u + 99 * 8 + 7);
  ExpectFrozenEqual(frozen, FreezeTree(tree));
}

TEST(StreamingSetBuilder, DescendingWalkFreezesInAddressOrder) {
  StreamingSetBuilder builder;
  IntervalTree tree;
  // Distinct pcs defeat summarization: every access is its own node, created
  // in descending address order, so Freeze() must reverse creation order.
  for (uint64_t i = 0; i < 50; i++) {
    const AccessKey key = Key(static_cast<uint32_t>(100 + i));
    builder.AddAccess(0x9000 - i * 16, key);
    tree.AddAccess(0x9000 - i * 16, key);
  }
  EXPECT_EQ(builder.NodeCount(), 50u);
  const FrozenIntervalSet frozen = builder.Freeze();
  ASSERT_EQ(frozen.size(), 50u);
  for (size_t i = 0; i < frozen.size(); i++) {
    EXPECT_EQ(frozen.lo(i), 0x9000u - (49 - i) * 16) << i;
    EXPECT_EQ(frozen.node(i).key.pc, 149u - i) << i;
  }
  ExpectFrozenEqual(frozen, FreezeTree(tree));
}

TEST(StreamingSetBuilder, RunShapesMatchTree) {
  // Every AddRun shape: empty, single, pair, bulk-path, stride-0 dup fold,
  // and a run aliasing pre-existing same-key state (per-element replay).
  struct Run {
    uint64_t base, stride, count;
    uint32_t pc;
  };
  const Run runs[] = {
      {0x1000, 8, 0, 1},   {0x2000, 8, 1, 2},  {0x3000, 16, 2, 3},
      {0x4000, 8, 100, 4}, {0x5000, 0, 7, 5},  {0x4000, 8, 50, 4},
      {0x6000, 24, 9, 4},
  };
  StreamingSetBuilder builder;
  IntervalTree tree;
  for (const Run& r : runs) {
    const AccessKey key = Key(r.pc);
    builder.AddRun(r.base, r.stride, r.count, key);
    tree.AddRun(r.base, r.stride, r.count, key);
  }
  EXPECT_EQ(builder.TotalAccesses(), tree.TotalAccesses());
  ExpectFrozenEqual(builder.Freeze(), FreezeTree(tree));
}

TEST(StreamingSetBuilder, RandomizedStreamsMatchTreeExactly) {
  // The load-bearing equivalence test: arbitrary interleavings of accesses
  // and runs, few keys (maximizing continuation/open-single interactions),
  // ascending and descending jumps, duplicate folds.
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Rng rng(seed);
    StreamingSetBuilder builder;
    IntervalTree tree;
    for (int i = 0; i < 2000; i++) {
      const AccessKey key = Key(static_cast<uint32_t>(rng.Below(4)),
                                rng.Chance(0.5) ? kWrite : kRead,
                                static_cast<uint8_t>(1 + rng.Below(8)));
      if (rng.Chance(0.2)) {
        const uint64_t base = 0x10000 + rng.Below(0x8000);
        const uint64_t stride = rng.Below(64);
        const uint64_t count = rng.Below(40);
        builder.AddRun(base, stride, count, key);
        tree.AddRun(base, stride, count, key);
      } else {
        const uint64_t addr = 0x10000 + rng.Below(0x4000);
        builder.AddAccess(addr, key);
        tree.AddAccess(addr, key);
      }
    }
    ASSERT_EQ(builder.NodeCount(), tree.NodeCount()) << "seed " << seed;
    ASSERT_EQ(builder.TotalAccesses(), tree.TotalAccesses()) << "seed " << seed;
    ExpectFrozenEqual(builder.Freeze(), FreezeTree(tree));
  }
}

TEST(StreamingSetBuilder, ResetMatchesFreshBuilder) {
  StreamingSetBuilder reused;
  const AccessKey key = Key(42);
  reused.AddRun(0x1000, 8, 64, key);
  reused.AddAccess(0x777, key);
  reused.Reset();
  EXPECT_TRUE(reused.Empty());
  EXPECT_EQ(reused.TotalAccesses(), 0u);

  StreamingSetBuilder fresh;
  IntervalTree tree;
  for (uint64_t i = 0; i < 30; i++) {
    reused.AddAccess(0x2000 + i * 4, key);
    fresh.AddAccess(0x2000 + i * 4, key);
    tree.AddAccess(0x2000 + i * 4, key);
  }
  EXPECT_EQ(reused.MemoryBytes(), fresh.MemoryBytes());
  ExpectFrozenEqual(reused.Freeze(), FreezeTree(tree));
}

TEST(StreamingSetBuilder, SymbolicRunMemoryIsSublinearInElements) {
  // Layer-2 contract: a strided run is ONE node regardless of element
  // count, so builder memory is flat while the access count grows.
  StreamingSetBuilder small, large;
  const AccessKey key = Key(9);
  small.AddRun(0x1000, 8, 1000, key);
  large.AddRun(0x1000, 8, 1000000, key);
  EXPECT_EQ(small.NodeCount(), 1u);
  EXPECT_EQ(large.NodeCount(), 1u);
  EXPECT_EQ(small.MemoryBytes(), large.MemoryBytes());
  EXPECT_EQ(large.TotalAccesses(), 1000000u);
}

// --- Solo-to-shared transitions. While one node carries a key the builder
// stores none of that key's index entries and derives them from the node's
// interval; the second node writes them out. These streams aim at that
// boundary and compare every returned node id as well as the frozen forms.

/// Feeds a StreamingSetBuilder and an IntervalTree the same stream.
struct Twin {
  StreamingSetBuilder builder;
  IntervalTree tree;

  void Access(uint64_t addr, const AccessKey& key) {
    EXPECT_EQ(builder.AddAccess(addr, key), tree.AddAccess(addr, key))
        << "access at " << addr;
  }
  void Run(uint64_t base, uint64_t stride, uint64_t count, const AccessKey& key) {
    EXPECT_EQ(builder.AddRun(base, stride, count, key),
              tree.AddRun(base, stride, count, key))
        << "run at " << base;
  }
  void ExpectSame() {
    ASSERT_EQ(builder.NodeCount(), tree.NodeCount());
    EXPECT_EQ(builder.TotalAccesses(), tree.TotalAccesses());
    ExpectFrozenEqual(builder.Freeze(), FreezeTree(tree));
  }
};

TEST(StreamingSetBuilder, EqualFirstBytesFreezeInCreationOrder) {
  // Same first byte under different keys, created out of address order:
  // the sort path must break lo ties by creation id, as the tree does.
  Twin t;
  t.Access(0x2000, Key(1));
  t.Access(0x1000, Key(2));
  t.Access(0x2000, Key(3, kRead));
  t.Access(0x1000, Key(4));
  t.Access(0x2000, Key(5));
  const FrozenIntervalSet frozen = t.builder.Freeze();
  ASSERT_EQ(frozen.size(), 5u);
  const uint32_t pcs[] = {2, 4, 1, 3, 5};
  for (size_t i = 0; i < 5; i++) EXPECT_EQ(frozen.node(i).key.pc, pcs[i]) << i;
  t.ExpectSame();
}

TEST(StreamingSetBuilder, SoloSingleSecondAccessBelowBaseStartsNode) {
  Twin t;
  const AccessKey key = Key(1);
  t.Access(0x1000, key);
  t.Access(0x0ff0, key);  // below base: second node, frozen first
  EXPECT_EQ(t.builder.NodeCount(), 2u);
  {
    const FrozenIntervalSet frozen = t.builder.Freeze();
    ASSERT_EQ(frozen.size(), 2u);
    EXPECT_EQ(frozen.lo(0), 0x0ff0u);
    EXPECT_EQ(frozen.lo(1), 0x1000u);
  }
  // The first node's unit-walk continuation was written out at the
  // transition. Taking it clears the key's open single, which names the
  // SECOND node, so the ascending access after it starts a third node
  // instead of fixing the second node's stride.
  t.Access(0x1008, key);
  t.Access(0x1010, key);
  t.Access(0x0ff0 + 0x40, key);
  EXPECT_EQ(t.builder.NodeCount(), 3u);
  t.ExpectSame();
}

TEST(StreamingSetBuilder, SoloSingleAdoptsStrideOrFoldsSameAddress) {
  Twin t;
  const AccessKey adopt = Key(2);
  t.Access(0x1000, adopt);
  t.Access(0x1040, adopt);  // above base, not adjacent: stride 0x40
  t.Access(0x1080, adopt);
  t.Access(0x1080, adopt);  // repeat of the last element
  t.Access(0x10c0, adopt);
  EXPECT_EQ(t.builder.NodeCount(), 1u);

  const AccessKey fold = Key(3);
  t.Access(0x8000, fold);
  t.Access(0x8000, fold);  // same address: hits++, still a single
  t.Access(0x8000, fold);
  t.Access(0x8010, fold);  // the single still adopts a stride afterwards
  t.Access(0x8020, fold);
  EXPECT_EQ(t.builder.NodeCount(), 2u);
  t.ExpectSame();
}

TEST(StreamingSetBuilder, SoloRunInterruptedByJumpResumesAtContinuation) {
  Twin t;
  const AccessKey key = Key(4);
  for (uint64_t i = 0; i < 8; i++) t.Access(0x1000 + i * 8, key);
  t.Access(0x5000, key);  // jump: the key's second node
  for (uint64_t i = 8; i < 16; i++) t.Access(0x1000 + i * 8, key);  // resume
  t.Access(0x5008, key);  // and the jump's own unit walk continues too
  EXPECT_EQ(t.builder.NodeCount(), 2u);

  // The new node's continuation collides with the solo run's: the run's
  // entry was written first and keeps the slot, so 0x2040 extends the run.
  const AccessKey clash = Key(5);
  for (uint64_t i = 0; i < 4; i++) t.Access(0x2000 + i * 16, clash);
  t.Access(0x2038, clash);
  t.Access(0x2040, clash);
  t.Access(0x2050, clash);
  t.ExpectSame();
}

TEST(StreamingSetBuilder, SoloBulkRunThenAliasingRun) {
  Twin t;
  const AccessKey key = Key(6);
  t.Run(0x1000, 8, 100, key);  // bulk path on a solo key
  EXPECT_EQ(t.builder.NodeCount(), 1u);
  t.Run(0x1000 + 8 * 50, 8, 100, key);  // overlaps the run: replayed
  t.Run(0x1000 + 8 * 150, 8, 30, key);  // starts at the old end
  t.Run(0x1000 + 8 * 100, 8, 10, key);
  t.Run(0x9000, 24, 40, key);           // shared now: no bulk path
  t.Access(0x9000 + 24 * 40, key);

  const AccessKey other = Key(7);
  t.Run(0x3000, 16, 20, other);
  t.Run(0x3000 + 16 * 20, 16, 20, other);  // continues the solo run
  t.Run(0x3000 + 16 * 40, 8, 5, other);    // different stride
  t.ExpectSame();
}

TEST(StreamingSetBuilder, AddressesWrappingNear2To64) {
  Twin t;
  const uint64_t top = ~uint64_t{0};
  const AccessKey unit = Key(8);
  t.Access(top - 7, unit);  // its unit-walk continuation wraps to 0
  t.Access(0, unit);
  t.Access(8, unit);
  t.Access(top - 7, unit);  // back below: shared from here on
  t.Access(0, unit);
  t.Access(top - 15, unit);

  const AccessKey run = Key(9);
  t.Run(top - 31, 8, 10, run);  // bulk run across the wrap
  t.Access(top - 31 + 8 * 10, run);
  t.Run(top - 63, 8, 6, run);
  t.Access(top - 31 + 8 * 11, run);

  const AccessKey stride = Key(10);
  t.Access(top - 0x100, stride);
  t.Access(top - 0x10, stride);  // adopts stride 0xf0; next wraps
  t.Access(top - 0x10 + 0xf0, stride);
  t.ExpectSame();
}

TEST(StreamingSetBuilder, RandomizedLongSoloRunsWithRareJumps) {
  // The generic randomized test mostly makes short runs over many keys;
  // this one makes long runs of one or two keys with rare jumps, repeats
  // and bulk runs, so most events fold into solo keys and every transition
  // happens in the middle of a long run.
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Rng rng(seed);
    Twin t;
    const uint32_t keys = 1 + static_cast<uint32_t>(rng.Below(2));
    std::vector<uint64_t> cursor(keys), step(keys);
    for (uint32_t k = 0; k < keys; k++) {
      cursor[k] = 0x100000 * (k + 1);
      step[k] = 8 * (1 + rng.Below(4));
    }
    for (int i = 0; i < 5000; i++) {
      const uint32_t k = rng.Chance(0.05) ? static_cast<uint32_t>(rng.Below(keys)) : 0;
      const AccessKey key = Key(20 + k);
      if (rng.Chance(0.01)) {
        cursor[k] = 0x100000 * (k + 1) + 8 * rng.Below(0x4000);  // jump
      } else if (rng.Chance(0.05)) {
        t.Access(cursor[k] - step[k], key);  // repeat the last element
        continue;
      }
      if (rng.Chance(0.05)) {
        const uint64_t count = rng.Below(200);
        t.Run(cursor[k], step[k], count, key);
        cursor[k] += step[k] * count;
      } else {
        t.Access(cursor[k], key);
        cursor[k] += step[k];
      }
    }
    SCOPED_TRACE(seed);
    t.ExpectSame();
  }
}

TEST(StreamingSetBuilder, LosingEmplaceLeavesNodeWithoutEntry) {
  // Two nodes of one key claim the same (addr, key, next) entry. The first
  // claim keeps it, so the access at that address extends the first node;
  // the second node holds no continuation, and once the first node has
  // moved on the same address starts a fresh node.
  Twin t;
  const AccessKey key = Key(12);
  t.Access(0x1000, key);  // node 0: a solo single, next entry 0x1008
  t.Access(0x0f00, key);  // node 1 (below base): the key is shared now
  t.Access(0x0f08, key);  // node 1 continues its unit walk; no open single
  t.Access(0x0fe8, key);  // node 2, the open single
  t.Access(0x0ff8, key);  // node 2 adopts stride 0x10: its next is 0x1008 too
  EXPECT_EQ(t.builder.NodeCount(), 3u);
  t.Access(0x1008, key);  // extends node 0, which claimed 0x1008 first
  t.Access(0x1010, key);
  t.Access(0x1008, key);  // neither a last nor a next entry: node 3
  EXPECT_EQ(t.builder.NodeCount(), 4u);
  t.Access(0x1010, key);  // node 0's last entry: a repeat
  t.ExpectSame();
}

TEST(StreamingSetBuilder, RandomNeighbourPairsMatchTree) {
  // Streams shaped like a graph search's random neighbour reads: count-2
  // runs from a node to a random higher neighbour (an arbitrary stride),
  // repeats of a live last address, descending accesses below the open
  // single, and pairs of nodes aimed at one (addr, key, kind) entry. A small
  // address space makes entries collide often, so emplace-without-overwrite
  // decides many of them.
  for (uint64_t seed = 1; seed <= 30; seed++) {
    Rng rng(seed);
    Twin t;
    const uint64_t slots = uint64_t{1} << (6 + seed % 7);
    std::vector<uint64_t> last(3, 0x100000);
    for (int i = 0; i < 3000; i++) {
      const uint32_t k = static_cast<uint32_t>(rng.Below(3));
      const AccessKey key = Key(30 + k, rng.Chance(0.9) ? kRead : kWrite);
      const uint64_t addr = 0x100000 + 8 * rng.Below(slots);
      const uint64_t pick = rng.Below(100);
      if (pick < 45) {
        const uint64_t neighbour = addr + 8 * (1 + rng.Below(slots));
        t.Run(addr, neighbour - addr, 2, key);
        last[k] = neighbour;
      } else if (pick < 60) {
        t.Access(last[k], key);  // often a node's live last address
      } else if (pick < 72) {
        last[k] -= 8 * (1 + rng.Below(4));
        t.Access(last[k], key);  // descending: never adopted as a stride
      } else if (pick < 87) {
        // A unit-walk single and a stride-16 pair both continue at `addr`:
        // whichever is created first owns the entry.
        if (rng.Chance(0.5)) {
          t.Access(addr - 8, key);
          t.Run(addr - 32, 16, 2, key);
        } else {
          t.Run(addr - 32, 16, 2, key);
          t.Access(addr - 8, key);
        }
        t.Access(addr, key);
        last[k] = addr;
      } else {
        t.Access(addr, key);
        last[k] = addr;
      }
    }
    SCOPED_TRACE(seed);
    t.ExpectSame();
  }
}

TEST(StreamingSetBuilder, ZeroSizeAccessesMatchTree) {
  // A zero-byte access (only a damaged trace carries one) puts a single's
  // last and next entries at the same address: the entry kind alone tells
  // a repeat from a continuation.
  Twin t;
  const AccessKey zero = Key(14, kRead, 0);
  t.Access(0x3000, zero);
  t.Access(0x2000, zero);  // shared from here on
  t.Access(0x2000, zero);  // the last entry: a repeat, not a continuation
  t.Access(0x2010, zero);
  t.Access(0x2020, zero);
  t.Access(0x3000, zero);
  t.Access(0x1000, zero);
  t.Access(0x1000, zero);
  t.ExpectSame();
}

TEST(StreamingSetBuilder, IndexIsSizedOnFirstUseAndDropped) {
  const AccessKey key = Key(13);
  // Solo keys store no entries: a reservation allocates nothing.
  StreamingSetBuilder solo, solo_reserved;
  solo_reserved.ReserveIndex(100000);
  for (uint64_t i = 0; i < 64; i++) {
    solo.AddAccess(0x1000 + i * 8, key);
    solo_reserved.AddAccess(0x1000 + i * 8, key);
  }
  EXPECT_EQ(solo_reserved.MemoryBytes(), solo.MemoryBytes());

  // A shared key allocates the reserved index (2 slots per entry, 8 bytes
  // each) at its first entry.
  StreamingSetBuilder shared;
  shared.ReserveIndex(1000);
  shared.AddAccess(0x2000, key);
  const uint64_t before = shared.MemoryBytes();
  shared.AddAccess(0x1000, key);
  EXPECT_GE(shared.MemoryBytes() - before, 2048u * 8);

  // Dropping the index leaves the nodes, which still freeze as before.
  IntervalTree tree;
  tree.AddAccess(0x2000, key);
  tree.AddAccess(0x1000, key);
  shared.DropIndex();
  EXPECT_LT(shared.MemoryBytes(), before);
  StreamingSetBuilder nodes_only;
  nodes_only.AddAccess(0x2000, key);
  nodes_only.DropIndex();
  EXPECT_EQ(shared.MemoryBytes(), nodes_only.MemoryBytes());
  ExpectFrozenEqual(shared.Freeze(), FreezeTree(tree));
}

TEST(HashAccess, MutexSetReachesLow32Bits) {
  // The pre-fix hash mixed the mutex set in as `mutexset << 32`, which a
  // 32-bit size_t truncation would discard entirely. After finalization,
  // changing ONLY the mutex set must change the low 32 bits of the hash
  // (virtually always; assert a high hit rate over many ids).
  AccessKey base = Key(7, kWrite, 8, kEmptyMutexSet);
  const uint64_t addr = 0xDEADBEEF;
  const uint32_t h0 = static_cast<uint32_t>(HashAccess(addr, base));
  int changed = 0;
  const int kTrials = 1000;
  for (int ms = 1; ms <= kTrials; ms++) {
    AccessKey k = base;
    k.mutexset = static_cast<MutexSetId>(ms);
    if (static_cast<uint32_t>(HashAccess(addr, k)) != h0) changed++;
  }
  EXPECT_GT(changed, kTrials - 2);
}

}  // namespace
}  // namespace sword::itree
