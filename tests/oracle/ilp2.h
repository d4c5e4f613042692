// Test-only: a small exact integer-linear-programming feasibility solver for
// systems of linear inequalities over two bounded integer variables.
//
// This is the "GLPK stand-in": the paper solves its interval-intersection
// constraints with an ILP solver, so the tests keep a real (if small) one -
// branch & bound over an exact rational 2D LP relaxation - as a reference
// the production closed form (ilp/overlap.h) is checked against.
//
// All arithmetic is done in __int128 rationals, so the answers are exact for
// any 64-bit coefficients that arise from address arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace sword::oracle {

/// One constraint: a*x + b*y <= c.
struct Ineq {
  int64_t a;
  int64_t b;
  int64_t c;
};

struct Point {
  int64_t x;
  int64_t y;
};

/// A feasibility problem over integers (x, y) with box bounds and extra
/// inequality constraints.
struct Ilp2Problem {
  int64_t lo_x = 0, hi_x = 0;
  int64_t lo_y = 0, hi_y = 0;
  std::vector<Ineq> constraints;
};

/// Statistics for tests/benchmarks: how much work branch & bound did.
struct Ilp2Stats {
  int nodes_explored = 0;
  int lp_solves = 0;
};

/// Decides integer feasibility by branch & bound on the LP relaxation and
/// returns a feasible point, or nullopt when there is none. The relaxation
/// is solved exactly by vertex enumeration over constraint pairs (the
/// problem has two variables, so every LP vertex is the intersection of two
/// tight constraints, including the box bounds).
std::optional<Point> SolveIlp2(const Ilp2Problem& problem, Ilp2Stats* stats = nullptr);

}  // namespace sword::oracle
