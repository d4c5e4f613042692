// Tests for src/osl: label algebra, the sequential/concurrent judgment
// (including the paper's Fig. 2 examples), serialization, and randomized
// property checks against an execution-order oracle.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "osl/label.h"

namespace sword::osl {
namespace {

TEST(Label, InitialAndFork) {
  const Label root = Label::Initial();
  EXPECT_EQ(root.ToString(), "[0,1@0]");
  const Label child = root.Fork(1, 4);
  EXPECT_EQ(child.ToString(), "[0,1@0][1,4@0]");
  EXPECT_EQ(child.Lane(), 1u);
  EXPECT_EQ(child.Span(), 4u);
  EXPECT_EQ(child.Phase(), 0u);
}

TEST(Label, BarrierAdvancesPhaseJoinAdvancesOffset) {
  const Label t = Label::Initial().Fork(2, 4);
  const Label after_barrier = t.AfterBarrier();
  EXPECT_EQ(after_barrier.Phase(), 1u);
  EXPECT_EQ(after_barrier.Lane(), 2u);  // lane stable across barriers
  const Label after_join = t.AfterJoin();
  EXPECT_EQ(after_join.Lane(), 2u);  // offset += span keeps the lane
  EXPECT_EQ(after_join.pairs().back().offset, 6u);
}

TEST(Label, ParentDropsInnermost) {
  const Label nested = Label::Initial().Fork(0, 2).Fork(1, 3);
  EXPECT_EQ(nested.Parent(), Label::Initial().Fork(0, 2));
}

TEST(Label, SerializationRoundTrip) {
  const Label original = Label::Initial().Fork(3, 8).AfterBarrier().Fork(1, 2);
  ByteWriter w;
  original.Serialize(w);
  ByteReader r(w.buffer());
  Label back;
  ASSERT_TRUE(Label::Deserialize(r, &back).ok());
  EXPECT_EQ(back, original);
}

TEST(Judgment, EqualLabelsAreSequential) {
  const Label t = Label::Initial().Fork(1, 4);
  EXPECT_TRUE(Sequential(t, t));
}

TEST(Judgment, PrefixIsSequential) {
  const Label parent = Label::Initial();
  const Label child = parent.Fork(2, 4);
  EXPECT_TRUE(Sequential(parent, child));
  EXPECT_TRUE(Sequential(child, parent));  // symmetric
}

TEST(Judgment, SameTeamSamePhaseDifferentLanesConcurrent) {
  const Label t0 = Label::Initial().Fork(0, 4);
  const Label t1 = Label::Initial().Fork(1, 4);
  EXPECT_TRUE(Concurrent(t0, t1));
}

TEST(Judgment, BarrierOrdersAcrossLanes) {
  // The paper's Fig. 2 prose: Thread 3's write in Barrier Interval 1 cannot
  // race Thread 4's read in Barrier Interval 3 - different lanes, different
  // phases, separated by a barrier.
  const Label t3_bi1 = Label::Initial().Fork(0, 4);
  const Label t4_bi3 = Label::Initial().Fork(1, 4).AfterBarrier();
  EXPECT_TRUE(Sequential(t3_bi1, t4_bi3));
}

TEST(Judgment, SameLaneDifferentPhaseSequential) {
  const Label before = Label::Initial().Fork(2, 4);
  const Label after = before.AfterBarrier();
  EXPECT_TRUE(Sequential(before, after));
}

TEST(Judgment, NestedSiblingTeamsConcurrent) {
  // Fig. 2's R2/R3: threads of sibling nested regions race on shared data.
  const Label inner_a = Label::Initial().Fork(0, 2).Fork(1, 2);
  const Label inner_b = Label::Initial().Fork(1, 2).Fork(0, 2);
  EXPECT_TRUE(Concurrent(inner_a, inner_b));
}

TEST(Judgment, PaperFig2ExampleLabel) {
  // "[0,1][0,2][0,2] of Thread 3": master forked 2, each forked 2 again.
  const Label thread3 = Label::Initial().Fork(0, 2).Fork(0, 2);
  const Label thread4 = Label::Initial().Fork(0, 2).Fork(1, 2);  // same team
  const Label thread5 = Label::Initial().Fork(1, 2).Fork(0, 2);  // sibling team
  EXPECT_TRUE(Concurrent(thread3, thread4));
  EXPECT_TRUE(Concurrent(thread3, thread5));
  EXPECT_TRUE(Concurrent(thread4, thread5));
}

TEST(Judgment, JoinOrdersSuccessiveSiblingRegions) {
  // The encountering thread runs region A, joins, runs region B: children of
  // A are ordered before children of B.
  Label encounter = Label::Initial();
  const Label a_child = encounter.Fork(1, 2);
  encounter = encounter.AfterJoin();
  const Label b_child = encounter.Fork(0, 2);
  EXPECT_TRUE(Sequential(a_child, b_child));
}

TEST(Judgment, JoinDoesNotOrderTeammatesAgainstNestedSubtree) {
  // T0 and T1 are a team. T0 runs TWO nested regions back to back; T1 does
  // unsynchronized work meanwhile. T1 must stay concurrent with BOTH nested
  // subtrees (a pure phase rule would wrongly order the second one).
  const Label t0 = Label::Initial().Fork(0, 2);
  const Label t1 = Label::Initial().Fork(1, 2);
  const Label nested1 = t0.Fork(1, 3);
  const Label t0_after = t0.AfterJoin();
  const Label nested2 = t0_after.Fork(1, 3);
  EXPECT_TRUE(Concurrent(t1, nested1));
  EXPECT_TRUE(Concurrent(t1, nested2));
  EXPECT_TRUE(Sequential(nested1, nested2));  // ordered through T0's join
  EXPECT_TRUE(Sequential(t0, nested1));       // prefix
  EXPECT_TRUE(Sequential(t0_after, nested1)); // join edge, same lane
}

TEST(Judgment, DifferentSpansNeverSequentialMidLabel) {
  const Label a = Label::Initial().Fork(0, 2);
  const Label b = Label::Initial().Fork(0, 3);
  // Cannot arise from one runtime execution, but the judgment must be
  // conservative (concurrent) rather than inventing an ordering.
  EXPECT_TRUE(Concurrent(a, b));
}

TEST(JudgmentProperty, SymmetryOnRandomLabels) {
  Rng rng(77);
  std::vector<Label> labels;
  for (int i = 0; i < 60; i++) {
    Label l = Label::Initial();
    const int depth = 1 + static_cast<int>(rng.Below(3));
    for (int d = 0; d < depth; d++) {
      const uint32_t span = 2 + static_cast<uint32_t>(rng.Below(3));
      l = l.Fork(static_cast<uint32_t>(rng.Below(span)), span);
      for (uint64_t b = rng.Below(3); b > 0; b--) l = l.AfterBarrier();
      if (rng.Chance(0.3)) l = l.AfterJoin();
    }
    labels.push_back(std::move(l));
  }
  for (const auto& a : labels) {
    for (const auto& b : labels) {
      EXPECT_EQ(Sequential(a, b), Sequential(b, a));
      EXPECT_NE(Sequential(a, b), Concurrent(a, b));
    }
  }
}

TEST(JudgmentProperty, BarrierPhasesTotallyOrderOneTeam) {
  // Within one team, any pair of intervals from different phases must be
  // sequential regardless of lanes; same phase, different lanes concurrent.
  const uint32_t span = 6;
  std::vector<Label> intervals;
  for (uint32_t lane = 0; lane < span; lane++) {
    Label l = Label::Initial().Fork(lane, span);
    for (int phase = 0; phase < 4; phase++) {
      intervals.push_back(l);
      l = l.AfterBarrier();
    }
  }
  for (const auto& a : intervals) {
    for (const auto& b : intervals) {
      if (a == b) continue;
      const bool same_phase = a.Phase() == b.Phase();
      EXPECT_EQ(Concurrent(a, b), same_phase)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(Deserialize, RejectsZeroSpan) {
  ByteWriter w;
  w.PutVarU64(1);  // one pair
  w.PutVarU64(0);  // offset
  w.PutVarU64(0);  // span == 0: invalid
  w.PutVarU64(0);  // phase
  ByteReader r(w.buffer());
  Label out;
  EXPECT_FALSE(Label::Deserialize(r, &out).ok());
}

}  // namespace
}  // namespace sword::osl
