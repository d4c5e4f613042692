#include "ilp/diophantine.h"

#include <algorithm>
#include <cstdlib>

namespace sword::ilp {
namespace {

using i128 = __int128;

/// Ceil division for i128 (rounding toward +infinity).
i128 CeilDiv(i128 num, i128 den) {
  // den > 0 required.
  i128 q = num / den;
  if (num % den != 0 && num > 0) q++;
  return q;
}

/// Floor division for i128 (rounding toward -infinity).
i128 FloorDiv(i128 num, i128 den) {
  // den > 0 required.
  i128 q = num / den;
  if (num % den != 0 && num < 0) q--;
  return q;
}

}  // namespace

ExtGcdResult ExtGcd(int64_t a, int64_t b) {
  // Iterative extended Euclid on magnitudes, then fix signs.
  int64_t old_r = std::abs(a), r = std::abs(b);
  int64_t old_s = 1, s = 0;
  int64_t old_t = 0, t = 1;
  while (r != 0) {
    const int64_t q = old_r / r;
    int64_t tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
    tmp = old_t - q * t;
    old_t = t;
    t = tmp;
  }
  ExtGcdResult res;
  res.g = old_r;
  res.x = a < 0 ? -old_s : old_s;
  res.y = b < 0 ? -old_t : old_t;
  return res;
}

std::optional<DioSolution> SolveBoundedDiophantine(int64_t A, int64_t B, int64_t C,
                                                   int64_t lo_x, int64_t hi_x,
                                                   int64_t lo_y, int64_t hi_y) {
  const ExtGcdResult e = (A != 0 && B != 0) ? ExtGcd(A, B) : ExtGcdResult{0, 0, 0};
  return SolveBoundedDiophantineHoisted(A, B, C, e, lo_x, hi_x, lo_y, hi_y);
}

std::optional<DioSolution> SolveBoundedDiophantineHoisted(
    int64_t A, int64_t B, int64_t C, const ExtGcdResult& e, int64_t lo_x,
    int64_t hi_x, int64_t lo_y, int64_t hi_y) {
  if (lo_x > hi_x || lo_y > hi_y) return std::nullopt;

  // Degenerate axes reduce to one-variable divisibility checks.
  if (A == 0 && B == 0) {
    if (C != 0) return std::nullopt;
    return DioSolution{lo_x, lo_y};
  }
  if (A == 0) {
    if (C % B != 0) return std::nullopt;
    const int64_t y = C / B;
    if (y < lo_y || y > hi_y) return std::nullopt;
    return DioSolution{lo_x, y};
  }
  if (B == 0) {
    if (C % A != 0) return std::nullopt;
    const int64_t x = C / A;
    if (x < lo_x || x > hi_x) return std::nullopt;
    return DioSolution{x, lo_y};
  }

  if (C % e.g != 0) return std::nullopt;

  // Particular solution, then the general family
  //   x = x0 + (B/g) k,   y = y0 - (A/g) k.
  const i128 scale = C / e.g;
  const i128 x0 = static_cast<i128>(e.x) * scale;
  const i128 y0 = static_cast<i128>(e.y) * scale;
  const i128 bx = B / e.g;   // step of x per k
  const i128 ay = A / e.g;   // negative step of y per k

  // Intersect the k-ranges implied by both variable bounds.
  i128 k_lo = -static_cast<i128>(1) << 100;
  i128 k_hi = static_cast<i128>(1) << 100;

  auto clamp_from = [&](i128 base, i128 step, i128 lo, i128 hi) {
    // lo <= base + step*k <= hi
    if (step > 0) {
      k_lo = std::max(k_lo, CeilDiv(lo - base, step));
      k_hi = std::min(k_hi, FloorDiv(hi - base, step));
    } else if (step < 0) {
      // base + step*k in [lo, hi] with step < 0; normalize by negating step:
      const i128 pstep = -step;
      // base - pstep*k in [lo,hi]  =>  (base-hi)/pstep <= k <= (base-lo)/pstep
      k_lo = std::max(k_lo, CeilDiv(base - hi, pstep));
      k_hi = std::min(k_hi, FloorDiv(base - lo, pstep));
    } else {
      if (base < lo || base > hi) {
        k_lo = 1;
        k_hi = 0;  // empty
      }
    }
  };

  clamp_from(x0, bx, lo_x, hi_x);
  clamp_from(y0, -ay, lo_y, hi_y);

  if (k_lo > k_hi) return std::nullopt;

  const i128 k = k_lo;
  const i128 x = x0 + bx * k;
  const i128 y = y0 - ay * k;
  return DioSolution{static_cast<int64_t>(x), static_cast<int64_t>(y)};
}

}  // namespace sword::ilp
