// Exact bounded linear Diophantine equation solving.
//
// The paper (SIII-B) encodes "do two strided intervals share an address" as
// an integer linear constraint and hands it to GLPK. The constraint is
//   delta0*x0 + b0 + s0 = delta1*x1 + b1 + s1,   0<=xi<=ni, 0<=si<zi
// which, for each candidate byte offset, reduces to a two-variable bounded
// linear Diophantine equation  A*x + B*y = C.  This module decides those
// exactly with the extended Euclidean algorithm - no search, no floating
// point - and is the solver behind the closed form in ilp/overlap.h.
#pragma once

#include <cstdint>
#include <optional>

namespace sword::ilp {

struct ExtGcdResult {
  int64_t g;  // gcd(a, b) >= 0
  int64_t x;  // Bezout coefficient: a*x + b*y == g
  int64_t y;
};

/// Extended Euclid. Handles negative inputs; g = gcd(|a|,|b|), and for
/// a == b == 0 returns g == 0, x == y == 0.
ExtGcdResult ExtGcd(int64_t a, int64_t b);

struct DioSolution {
  int64_t x;
  int64_t y;
};

/// Finds any integer solution of A*x + B*y == C with lo_x<=x<=hi_x and
/// lo_y<=y<=hi_y, or nullopt if none exists. Exact for all inputs whose
/// intermediate products fit in 128 bits (true for any address arithmetic).
std::optional<DioSolution> SolveBoundedDiophantine(int64_t A, int64_t B, int64_t C,
                                                   int64_t lo_x, int64_t hi_x,
                                                   int64_t lo_y, int64_t hi_y);

/// Same contract and same solution selection as SolveBoundedDiophantine, but
/// with ExtGcd(A, B) precomputed by the caller. The closed-form overlap
/// decision (ilp/overlap.h) solves a family of equations that differ only in
/// C, so it hoists the gcd out of the loop.
/// `e` is only read when A != 0 and B != 0; the degenerate axes never need it.
std::optional<DioSolution> SolveBoundedDiophantineHoisted(
    int64_t A, int64_t B, int64_t C, const ExtGcdResult& e, int64_t lo_x,
    int64_t hi_x, int64_t lo_y, int64_t hi_y);

}  // namespace sword::ilp
