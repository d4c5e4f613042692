#include "oracle/ilp2.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace sword::oracle {
namespace {

using i128 = __int128;

/// Exact rational number with i128 numerator/denominator (den > 0).
struct Rat {
  i128 num;
  i128 den;

  static Rat FromInt(i128 v) { return Rat{v, 1}; }

  bool operator<(const Rat& o) const { return num * o.den < o.num * den; }
  bool operator<=(const Rat& o) const { return num * o.den <= o.num * den; }
  bool operator==(const Rat& o) const { return num * o.den == o.num * den; }

  int64_t Floor() const {
    i128 q = num / den;
    if (num % den != 0 && num < 0) q--;
    return static_cast<int64_t>(q);
  }
  int64_t Ceil() const {
    i128 q = num / den;
    if (num % den != 0 && num > 0) q++;
    return static_cast<int64_t>(q);
  }
  bool IsInteger() const { return num % den == 0; }
};

Rat Normalize(i128 num, i128 den) {
  if (den < 0) {
    num = -num;
    den = -den;
  }
  return Rat{num, den};
}

struct RatPoint {
  Rat x;
  Rat y;
};

/// All constraints as a*x + b*y <= c, including the box bounds.
std::vector<Ineq> AllConstraints(const Ilp2Problem& p) {
  std::vector<Ineq> cs = p.constraints;
  cs.push_back({1, 0, p.hi_x});    // x <= hi_x
  cs.push_back({-1, 0, -p.lo_x});  // -x <= -lo_x
  cs.push_back({0, 1, p.hi_y});
  cs.push_back({0, -1, -p.lo_y});
  return cs;
}

bool SatisfiesAll(const std::vector<Ineq>& cs, const RatPoint& pt) {
  for (const Ineq& c : cs) {
    // a*x + b*y <= c  with x = xn/xd, y = yn/yd (common denominator product).
    const i128 lhs = static_cast<i128>(c.a) * pt.x.num * pt.y.den +
                     static_cast<i128>(c.b) * pt.y.num * pt.x.den;
    const i128 rhs = static_cast<i128>(c.c) * pt.x.den * pt.y.den;
    if (lhs > rhs) return false;
  }
  return true;
}

/// Solves the 2D LP relaxation exactly: returns any feasible rational point,
/// preferring vertices (intersections of two tight constraints). Feasible
/// regions of bounded 2-var systems are polygons, so if the region is
/// non-empty at least one vertex of the constraint arrangement lies in it.
std::optional<RatPoint> SolveLp2(const std::vector<Ineq>& cs) {
  const size_t m = cs.size();
  for (size_t i = 0; i < m; i++) {
    for (size_t j = i + 1; j < m; j++) {
      // Intersection of the two constraint *lines* a_i x + b_i y = c_i.
      const i128 det = static_cast<i128>(cs[i].a) * cs[j].b -
                       static_cast<i128>(cs[j].a) * cs[i].b;
      if (det == 0) continue;  // parallel
      const i128 xn = static_cast<i128>(cs[i].c) * cs[j].b -
                      static_cast<i128>(cs[j].c) * cs[i].b;
      const i128 yn = static_cast<i128>(cs[i].a) * cs[j].c -
                      static_cast<i128>(cs[j].a) * cs[i].c;
      RatPoint pt{Normalize(xn, det), Normalize(yn, det)};
      if (SatisfiesAll(cs, pt)) return pt;
    }
  }
  return std::nullopt;
}

std::optional<Point> Branch(const Ilp2Problem& p, Ilp2Stats* stats, int depth) {
  // Depth backstop: each branch halves a variable's fractional window; 2D
  // problems close within a handful of levels. A reference decider that
  // guessed past it would hide a disagreement, so it stops the test instead.
  if (depth > 128) {
    std::fprintf(stderr, "SolveIlp2: branch & bound depth backstop hit\n");
    std::abort();
  }
  if (p.lo_x > p.hi_x || p.lo_y > p.hi_y) return std::nullopt;

  if (stats) stats->nodes_explored++;
  const std::vector<Ineq> cs = AllConstraints(p);
  if (stats) stats->lp_solves++;
  const auto relax = SolveLp2(cs);
  if (!relax) return std::nullopt;

  // Integral vertex: done.
  if (relax->x.IsInteger() && relax->y.IsInteger()) {
    return Point{relax->x.Floor(), relax->y.Floor()};
  }

  // Round the relaxation point and probe nearby integer points first; this
  // usually terminates without branching.
  for (int dx = 0; dx <= 1; dx++) {
    for (int dy = 0; dy <= 1; dy++) {
      const int64_t ix = relax->x.Floor() + dx;
      const int64_t iy = relax->y.Floor() + dy;
      RatPoint cand{Rat::FromInt(ix), Rat::FromInt(iy)};
      if (ix >= p.lo_x && ix <= p.hi_x && iy >= p.lo_y && iy <= p.hi_y &&
          SatisfiesAll(cs, cand)) {
        return Point{ix, iy};
      }
    }
  }

  // Branch on the first fractional variable.
  Ilp2Problem left = p, right = p;
  if (!relax->x.IsInteger()) {
    left.hi_x = std::min(left.hi_x, relax->x.Floor());
    right.lo_x = std::max(right.lo_x, relax->x.Floor() + 1);
  } else {
    left.hi_y = std::min(left.hi_y, relax->y.Floor());
    right.lo_y = std::max(right.lo_y, relax->y.Floor() + 1);
  }
  if (const auto l = Branch(left, stats, depth + 1)) return l;
  return Branch(right, stats, depth + 1);
}

}  // namespace

std::optional<Point> SolveIlp2(const Ilp2Problem& problem, Ilp2Stats* stats) {
  return Branch(problem, stats, 0);
}

}  // namespace sword::oracle
