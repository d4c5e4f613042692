#include "ilp/overlap.h"

#include <algorithm>
#include <cstdlib>

#include "ilp/diophantine.h"

namespace sword::ilp {

std::optional<OverlapWitness> Intersect(const StridedInterval& a,
                                        const StridedInterval& b) {
  if (!RangesTouch(a, b)) return std::nullopt;
  const bool a_dense = a.count == 1 || a.stride <= a.size;
  const bool b_dense = b.count == 1 || b.stride <= b.size;

  if (a_dense && b_dense) {
    // Dense x dense (covers singleton x singleton): the intervals equal
    // their byte ranges, so the range check above is the whole decision.
    const uint64_t addr = std::max(a.lo(), b.lo());
    auto index_of = [](const StridedInterval& iv, uint64_t ad) -> uint64_t {
      if (iv.count == 1 || iv.stride == 0) return 0;
      uint64_t x = (ad - iv.base) / iv.stride;
      if (x >= iv.count) x = iv.count - 1;
      return x;
    };
    return OverlapWitness{index_of(a, addr), index_of(b, addr), addr};
  }

  // Congruence walk. A shared byte means
  //   a.base + A*x0 + s0 == b.base + B*x1 + s1
  //   =>  A*x0 - B*x1 == base_diff + d,   d = s1 - s0 in (-z0, z1).
  // That equation has integer solutions only when g = gcd(A, B) divides
  // base_diff + d, so only every g-th d is solved, with the gcd hoisted out
  // of the loop. Candidates are tried in increasing d and the first bounded
  // solution is the witness.
  const int64_t A = static_cast<int64_t>(a.stride);
  const int64_t B = static_cast<int64_t>(b.stride);
  const int64_t base_diff =
      static_cast<int64_t>(b.base) - static_cast<int64_t>(a.base);
  const int64_t z0 = a.size, z1 = b.size;
  const int64_t d_min = -(z0 - 1), d_max = z1 - 1;

  // At least one side is sparse (stride > size >= 1), so A and B are never
  // both zero and g > 0. The one-zero-stride cases reduce to divisibility by
  // the non-zero stride, matching the solver's A==0 / B==0 branches.
  const ExtGcdResult e =
      (A != 0 && B != 0) ? ExtGcd(A, -B) : ExtGcdResult{0, 0, 0};
  const int64_t g = A == 0 ? std::abs(B) : (B == 0 ? std::abs(A) : e.g);

  // Smallest d >= d_min with (base_diff + d) divisible by g.
  const int64_t rem = ((base_diff + d_min) % g + g) % g;
  for (int64_t d = d_min + (rem == 0 ? 0 : g - rem); d <= d_max; d += g) {
    const auto sol = SolveBoundedDiophantineHoisted(
        A, -B, base_diff + d, e, 0, static_cast<int64_t>(a.count) - 1, 0,
        static_cast<int64_t>(b.count) - 1);
    if (sol) {
      // Shared address: a.base + A*x + s0 where s0 - s1 = -d; the smallest
      // s0 that keeps both offsets in range is max(0, -d).
      const int64_t s0 = std::max<int64_t>(0, -d);
      const uint64_t addr = a.base + a.stride * static_cast<uint64_t>(sol->x) +
                            static_cast<uint64_t>(s0);
      return OverlapWitness{static_cast<uint64_t>(sol->x),
                            static_cast<uint64_t>(sol->y), addr};
    }
  }
  return std::nullopt;  // every solvable offset ruled out: disjoint
}

}  // namespace sword::ilp
