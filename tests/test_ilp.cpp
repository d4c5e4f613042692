// Tests for src/ilp: extended gcd, bounded Diophantine solving, and the
// closed-form strided-interval overlap decision - each validated against
// brute-force enumeration, and the overlap decision against the reference
// deciders in tests/oracle (the per-offset Diophantine engine and the branch
// & bound ILP that stands in for the paper's GLPK).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/rng.h"
#include "ilp/diophantine.h"
#include "ilp/overlap.h"
#include "oracle/ilp2.h"
#include "oracle/overlap_oracle.h"

namespace sword::ilp {
namespace {

using oracle::Ilp2Problem;
using oracle::Ilp2Stats;
using oracle::IntersectDiophantine;
using oracle::IntersectIlp;
using oracle::SolveIlp2;

TEST(ExtGcd, BasicIdentities) {
  for (int64_t a : {0LL, 1LL, 12LL, -12LL, 35LL, 128LL, -7LL}) {
    for (int64_t b : {0LL, 1LL, 18LL, -18LL, 49LL, 64LL, -5LL}) {
      const ExtGcdResult e = ExtGcd(a, b);
      EXPECT_EQ(a * e.x + b * e.y, e.g) << a << "," << b;
      EXPECT_GE(e.g, 0);
      if (a != 0 || b != 0) {
        EXPECT_EQ(a % (e.g ? e.g : 1), 0);
        EXPECT_EQ(b % (e.g ? e.g : 1), 0);
      }
    }
  }
}

TEST(Diophantine, SimpleSolvable) {
  // 3x + 5y = 22 with small bounds: x=4,y=2 works.
  const auto sol = SolveBoundedDiophantine(3, 5, 22, 0, 10, 0, 10);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(3 * sol->x + 5 * sol->y, 22);
  EXPECT_GE(sol->x, 0);
  EXPECT_LE(sol->x, 10);
  EXPECT_GE(sol->y, 0);
  EXPECT_LE(sol->y, 10);
}

TEST(Diophantine, DivisibilityUnsat) {
  // 4x + 6y is always even.
  EXPECT_FALSE(SolveBoundedDiophantine(4, 6, 7, -100, 100, -100, 100).has_value());
}

TEST(Diophantine, BoundsUnsat) {
  // x + y = 100 but both capped at 10.
  EXPECT_FALSE(SolveBoundedDiophantine(1, 1, 100, 0, 10, 0, 10).has_value());
}

TEST(Diophantine, DegenerateCoefficients) {
  EXPECT_TRUE(SolveBoundedDiophantine(0, 0, 0, 0, 5, 0, 5).has_value());
  EXPECT_FALSE(SolveBoundedDiophantine(0, 0, 3, 0, 5, 0, 5).has_value());
  auto sol = SolveBoundedDiophantine(0, 4, 12, 0, 5, 0, 5);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->y, 3);
  sol = SolveBoundedDiophantine(7, 0, 21, 0, 5, 0, 5);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->x, 3);
}

TEST(Diophantine, NegativeCoefficientsAndBounds) {
  // 8x - 8y = 16 -> x = y + 2.
  const auto sol = SolveBoundedDiophantine(8, -8, 16, -5, 5, -5, 5);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(8 * sol->x - 8 * sol->y, 16);
}

TEST(DiophantineProperty, MatchesBruteForce) {
  Rng rng(101);
  for (int trial = 0; trial < 3000; trial++) {
    const int64_t A = rng.Range(-12, 12);
    const int64_t B = rng.Range(-12, 12);
    const int64_t C = rng.Range(-60, 60);
    const int64_t lo_x = rng.Range(-8, 4);
    const int64_t hi_x = lo_x + rng.Range(0, 12);
    const int64_t lo_y = rng.Range(-8, 4);
    const int64_t hi_y = lo_y + rng.Range(0, 12);

    bool brute = false;
    for (int64_t x = lo_x; x <= hi_x && !brute; x++) {
      for (int64_t y = lo_y; y <= hi_y; y++) {
        if (A * x + B * y == C) {
          brute = true;
          break;
        }
      }
    }
    const auto sol = SolveBoundedDiophantine(A, B, C, lo_x, hi_x, lo_y, hi_y);
    ASSERT_EQ(sol.has_value(), brute)
        << A << "x + " << B << "y = " << C << " x:[" << lo_x << "," << hi_x
        << "] y:[" << lo_y << "," << hi_y << "]";
    if (sol) {
      EXPECT_EQ(A * sol->x + B * sol->y, C);
      EXPECT_GE(sol->x, lo_x);
      EXPECT_LE(sol->x, hi_x);
      EXPECT_GE(sol->y, lo_y);
      EXPECT_LE(sol->y, hi_y);
    }
  }
}

TEST(OracleIlp2, FeasibleBox) {
  Ilp2Problem p;
  p.lo_x = 0;
  p.hi_x = 10;
  p.lo_y = 0;
  p.hi_y = 10;
  const auto sol = SolveIlp2(p);
  ASSERT_TRUE(sol.has_value());
}

TEST(OracleIlp2, EqualityEncodedAsTwoInequalities) {
  // 2x - 3y == 1, x,y in [0, 10]: x=2,y=1 etc.
  Ilp2Problem p;
  p.lo_x = 0;
  p.hi_x = 10;
  p.lo_y = 0;
  p.hi_y = 10;
  p.constraints.push_back({2, -3, 1});
  p.constraints.push_back({-2, 3, -1});
  const auto sol = SolveIlp2(p);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(2 * sol->x - 3 * sol->y, 1);
}

TEST(OracleIlp2, FractionalOnlyRelaxationIsInfeasibleInIntegers) {
  // 2x == 1 in integers: LP relaxation feasible at x=0.5, integers not.
  Ilp2Problem p;
  p.lo_x = 0;
  p.hi_x = 1;
  p.lo_y = 0;
  p.hi_y = 0;
  p.constraints.push_back({2, 0, 1});
  p.constraints.push_back({-2, 0, -1});
  EXPECT_FALSE(SolveIlp2(p).has_value());
}

TEST(OracleIlp2Property, MatchesBruteForce) {
  Rng rng(202);
  for (int trial = 0; trial < 800; trial++) {
    Ilp2Problem p;
    p.lo_x = rng.Range(-4, 2);
    p.hi_x = p.lo_x + rng.Range(0, 8);
    p.lo_y = rng.Range(-4, 2);
    p.hi_y = p.lo_y + rng.Range(0, 8);
    const int ncons = static_cast<int>(rng.Below(4));
    for (int c = 0; c < ncons; c++) {
      p.constraints.push_back(
          {rng.Range(-6, 6), rng.Range(-6, 6), rng.Range(-20, 20)});
    }

    bool brute = false;
    for (int64_t x = p.lo_x; x <= p.hi_x && !brute; x++) {
      for (int64_t y = p.lo_y; y <= p.hi_y; y++) {
        bool ok = true;
        for (const auto& c : p.constraints) {
          if (c.a * x + c.b * y > c.c) {
            ok = false;
            break;
          }
        }
        if (ok) {
          brute = true;
          break;
        }
      }
    }
    Ilp2Stats stats;
    const auto sol = SolveIlp2(p, &stats);
    ASSERT_EQ(sol.has_value(), brute) << "trial " << trial;
    if (sol) {
      for (const auto& c : p.constraints) {
        EXPECT_LE(c.a * sol->x + c.b * sol->y, c.c);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Overlap queries.

/// Brute-force byte-set intersection oracle.
bool BruteOverlap(const StridedInterval& a, const StridedInterval& b) {
  for (uint64_t i = 0; i < a.count; i++) {
    const uint64_t a_lo = a.base + i * a.stride;
    for (uint64_t j = 0; j < b.count; j++) {
      const uint64_t b_lo = b.base + j * b.stride;
      if (a_lo < b_lo + b.size && b_lo < a_lo + a.size) return true;
    }
  }
  return false;
}

/// True when element x of `iv` touches byte `addr`.
bool ElementTouches(const StridedInterval& iv, uint64_t x, uint64_t addr) {
  const uint64_t lo = iv.base + x * iv.stride;
  return x < iv.count && lo <= addr && addr < lo + iv.size;
}

bool Sparse(const StridedInterval& iv) {
  return iv.count > 1 && iv.stride > iv.size;
}

std::string Describe(const StridedInterval& a, const StridedInterval& b) {
  return "a={" + std::to_string(a.base) + "," + std::to_string(a.stride) + "," +
         std::to_string(a.count) + "," + std::to_string(a.size) + "} b={" +
         std::to_string(b.base) + "," + std::to_string(b.stride) + "," +
         std::to_string(b.count) + "," + std::to_string(b.size) + "}";
}

TEST(Overlap, PaperFig4InterleavedIntervalsDoNotIntersect) {
  // Fig. 4's shape: two stride-8 interval families offset by 4 bytes with
  // 4-byte accesses - ranges overlap, addresses never do.
  const StridedInterval t0{10, 8, 5, 4};
  const StridedInterval t1{14, 8, 5, 4};
  EXPECT_TRUE(RangesTouch(t0, t1));
  EXPECT_FALSE(Intersect(t0, t1).has_value());
  EXPECT_FALSE(IntersectDiophantine(t0, t1).has_value());
  EXPECT_FALSE(IntersectIlp(t0, t1).has_value());
}

TEST(Overlap, TouchingStridedFamiliesIntersect) {
  const StridedInterval t0{10, 8, 5, 4};
  const StridedInterval t1{12, 8, 5, 4};  // offset 2: overlaps by 2 bytes
  const auto w = Intersect(t0, t1);
  ASSERT_TRUE(w.has_value());
  // The witness address must belong to both intervals.
  EXPECT_TRUE(ElementTouches(t0, w->x0, w->address));
  EXPECT_TRUE(ElementTouches(t1, w->x1, w->address));
}

TEST(Overlap, PaperSection3Example) {
  // T0: 8x + 10 + s, T1: 8x + 14 + s, 0<=x<=4, 0<=s<4 (paper SIII-B):
  // the conjunction is unsatisfiable.
  const StridedInterval t0{10, 8, 5, 4};
  const StridedInterval t1{14, 8, 5, 4};
  EXPECT_FALSE(Intersect(t0, t1).has_value());
}

TEST(Overlap, SingleAccesses) {
  const StridedInterval a{100, 0, 1, 8};
  const StridedInterval b{104, 0, 1, 8};
  EXPECT_TRUE(Intersect(a, b).has_value());
  const StridedInterval c{108, 0, 1, 4};
  EXPECT_FALSE(Intersect(a, c).has_value());
  EXPECT_TRUE(Intersect(b, c).has_value());
}

TEST(Overlap, SparseFamiliesWithUnequalStrides) {
  // Strides 32 and 48 meet every 96 bytes: 100 + 32*x0 == 102 + 48*x1 - 2.
  const StridedInterval a{100, 32, 8, 4};
  const StridedInterval b{102, 48, 8, 4};
  const auto w = Intersect(a, b);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(ElementTouches(a, w->x0, w->address));
  EXPECT_TRUE(ElementTouches(b, w->x1, w->address));
  // Strides 6 and 10 with 1-byte accesses at even and odd bases: the gcd
  // (2) never divides the base difference, so no byte is shared.
  EXPECT_FALSE(Intersect({1000, 6, 12, 1}, {1001, 10, 12, 1}).has_value());
}

/// Random interval within the property-test bounds: sizes 1-16, counts
/// 1-12, strides 0-40 (a zero stride is a single access).
StridedInterval RandomInterval(Rng& rng) {
  StridedInterval s;
  s.base = 1000 + rng.Below(160);
  s.stride = rng.Below(41);
  s.count = 1 + rng.Below(12);
  if (s.stride == 0) s.count = 1;
  s.size = static_cast<uint32_t>(1 + rng.Below(16));
  return s;
}

// The closed form is the only production decider, so it must be exact on
// every shape: it agrees with brute-force byte enumeration, and its verdict
// AND witness equal the per-offset Diophantine engine's (the analyzer's
// reports carry the witness address, so a different witness would change
// race output). The ILP oracle must agree on the verdict.
TEST(ClosedFormProperty, ExactOnEveryShape) {
  Rng rng(2121);
  uint64_t overlaps = 0, sparse_unequal = 0, sparse_unequal_overlaps = 0;
  for (int trial = 0; trial < 20000; trial++) {
    const StridedInterval a = RandomInterval(rng);
    const StridedInterval b = RandomInterval(rng);
    const auto w = Intersect(a, b);
    const bool brute = BruteOverlap(a, b);
    ASSERT_EQ(w.has_value(), brute) << Describe(a, b);
    if (w) {
      overlaps++;
      EXPECT_TRUE(ElementTouches(a, w->x0, w->address)) << Describe(a, b);
      EXPECT_TRUE(ElementTouches(b, w->x1, w->address)) << Describe(a, b);
    }
    if (RangesTouch(a, b) && Sparse(a) && Sparse(b) && a.stride != b.stride) {
      sparse_unequal++;
      if (w) sparse_unequal_overlaps++;
    }

    const auto dio = IntersectDiophantine(a, b);
    ASSERT_EQ(dio.has_value(), brute) << Describe(a, b);
    if (w) {
      EXPECT_EQ(w->x0, dio->x0) << Describe(a, b);
      EXPECT_EQ(w->x1, dio->x1) << Describe(a, b);
      EXPECT_EQ(w->address, dio->address) << Describe(a, b);
    }
    ASSERT_EQ(IntersectIlp(a, b).has_value(), brute) << Describe(a, b);
  }
  // The generator must reach the shape the closed form once left to the
  // general engines, with both outcomes, for the property to mean anything.
  EXPECT_GT(overlaps, 4000u);
  EXPECT_GT(sparse_unequal, 4000u);
  EXPECT_GT(sparse_unequal_overlaps, 400u);
  EXPECT_GT(sparse_unequal - sparse_unequal_overlaps, 400u);
}

TEST(ClosedFormProperty, AgreesWithOraclesOnAdversarialStrides) {
  Rng rng(505);
  for (int trial = 0; trial < 500; trial++) {
    StridedInterval a{5000 + rng.Below(100), 1 + rng.Below(64), 1 + rng.Below(50),
                      static_cast<uint32_t>(1 + rng.Below(8))};
    StridedInterval b{5000 + rng.Below(100), 1 + rng.Below(64), 1 + rng.Below(50),
                      static_cast<uint32_t>(1 + rng.Below(8))};
    const auto w = Intersect(a, b);
    const auto dio = IntersectDiophantine(a, b);
    ASSERT_EQ(w.has_value(), dio.has_value()) << Describe(a, b);
    if (w) {
      EXPECT_EQ(w->address, dio->address) << Describe(a, b);
    }
    EXPECT_EQ(w.has_value(), IntersectIlp(a, b).has_value()) << Describe(a, b);
  }
}

}  // namespace
}  // namespace sword::ilp
