#include "oracle/overlap_oracle.h"

#include <algorithm>

#include "ilp/diophantine.h"
#include "oracle/ilp2.h"

namespace sword::oracle {

using ilp::OverlapWitness;
using ilp::StridedInterval;

std::optional<OverlapWitness> IntersectDiophantine(const StridedInterval& a,
                                                   const StridedInterval& b) {
  if (!ilp::RangesTouch(a, b)) return std::nullopt;
  // Dense intervals (stride <= size) cover their whole [lo,hi] range;
  // a range check is then exact and cheap.
  const bool a_dense = a.count == 1 || a.stride <= a.size;
  const bool b_dense = b.count == 1 || b.stride <= b.size;
  if (a_dense && b_dense) {
    const uint64_t addr = std::max(a.lo(), b.lo());
    auto index_of = [](const StridedInterval& iv, uint64_t ad) -> uint64_t {
      if (iv.count == 1 || iv.stride == 0) return 0;
      uint64_t x = (ad - iv.base) / iv.stride;
      if (x >= iv.count) x = iv.count - 1;
      return x;
    };
    return OverlapWitness{index_of(a, addr), index_of(b, addr), addr};
  }

  // a.base + A*x0 + s0 == b.base + B*x1 + s1
  //   =>  A*x0 - B*x1 == base_diff + (s1 - s0) == base_diff + d
  // for some d in (-z0, z1): solve one bounded Diophantine per d.
  const int64_t A = static_cast<int64_t>(a.stride);
  const int64_t B = static_cast<int64_t>(b.stride);
  const int64_t base_diff =
      static_cast<int64_t>(b.base) - static_cast<int64_t>(a.base);
  const int64_t z0 = a.size, z1 = b.size;
  for (int64_t d = -(z0 - 1); d <= z1 - 1; d++) {
    const auto sol = ilp::SolveBoundedDiophantine(
        A, -B, base_diff + d, 0, static_cast<int64_t>(a.count) - 1, 0,
        static_cast<int64_t>(b.count) - 1);
    if (sol) {
      // Shared address: a.base + A*x + s0 where s0 - s1 = -d; pick s0 so that
      // both offsets are in range: s0 in [max(0,-d), min(z0-1, z1-1-d)].
      const int64_t s0 = std::max<int64_t>(0, -d);
      const uint64_t addr = a.base + a.stride * static_cast<uint64_t>(sol->x) +
                            static_cast<uint64_t>(s0);
      return OverlapWitness{static_cast<uint64_t>(sol->x),
                            static_cast<uint64_t>(sol->y), addr};
    }
  }
  return std::nullopt;
}

std::optional<OverlapWitness> IntersectIlp(const StridedInterval& a,
                                           const StridedInterval& b) {
  if (!ilp::RangesTouch(a, b)) return std::nullopt;
  // Per (s0, s1) pair:  A*x - B*y == base_diff + s1 - s0, encoded as <= and
  // >= halves. Access sizes are tiny (<= 16 bytes), so the enumeration is
  // bounded by 256 small ILP solves.
  const int64_t A = static_cast<int64_t>(a.stride);
  const int64_t B = static_cast<int64_t>(b.stride);
  const int64_t base_diff =
      static_cast<int64_t>(b.base) - static_cast<int64_t>(a.base);
  for (int64_t s0 = 0; s0 < a.size; s0++) {
    for (int64_t s1 = 0; s1 < b.size; s1++) {
      const int64_t C = base_diff + s1 - s0;
      Ilp2Problem prob;
      prob.lo_x = 0;
      prob.hi_x = static_cast<int64_t>(a.count) - 1;
      prob.lo_y = 0;
      prob.hi_y = static_cast<int64_t>(b.count) - 1;
      prob.constraints.push_back({A, -B, C});   //  A*x - B*y <= C
      prob.constraints.push_back({-A, B, -C});  //  A*x - B*y >= C
      if (const auto pt = SolveIlp2(prob)) {
        const uint64_t addr = a.base + a.stride * static_cast<uint64_t>(pt->x) +
                              static_cast<uint64_t>(s0);
        return OverlapWitness{static_cast<uint64_t>(pt->x),
                              static_cast<uint64_t>(pt->y), addr};
      }
    }
  }
  return std::nullopt;
}

}  // namespace sword::oracle
