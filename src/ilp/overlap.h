// Strided-interval overlap queries (paper SIII-B).
//
// A summarized access interval covers the addresses
//   { b + delta*x + s : 0 <= x <= n, 0 <= s < z }
// (b = first element address, delta = stride, n = element count - 1,
// z = access size in bytes). Two intervals conflict iff they share at least
// one byte address:
//   delta0*x0 + b0 + s0 == delta1*x1 + b1 + s1     (the paper's constraint)
// A plain [lo,hi] range check is necessary but NOT sufficient - interleaved
// strided accesses (Fig. 4) overlap as ranges while touching disjoint bytes.
//
// The paper hands the constraint to GLPK. Intersect decides it in closed
// form instead, exactly and for every shape: a range check when both
// intervals are dense, otherwise one bounded Diophantine solve per byte-offset
// difference that the stride gcd divides (at most z0+z1-1 solves of
// O(log stride) each). tests/oracle keeps the per-offset Diophantine engine
// and a branch & bound ILP (the GLPK stand-in) as reference deciders.
#pragma once

#include <cstdint>
#include <optional>

namespace sword::ilp {

/// A strided run of same-sized accesses.
struct StridedInterval {
  uint64_t base = 0;    // address of the first element
  uint64_t stride = 0;  // bytes between consecutive element starts (0 => single)
  uint64_t count = 1;   // number of elements (>= 1)
  uint32_t size = 1;    // bytes touched per element (>= 1)

  /// First byte touched.
  uint64_t lo() const { return base; }
  /// Last byte touched (inclusive).
  uint64_t hi() const { return base + stride * (count - 1) + size - 1; }
};

/// A witness conflict: element indices and the shared byte address.
struct OverlapWitness {
  uint64_t x0 = 0;
  uint64_t x1 = 0;
  uint64_t address = 0;
};

/// Decides whether the two intervals share any byte address; if so, returns
/// a witness. Exact for all inputs, with no search and no budget.
std::optional<OverlapWitness> Intersect(const StridedInterval& a,
                                        const StridedInterval& b);

/// Cheap necessary condition used to pre-filter tree queries.
inline bool RangesTouch(const StridedInterval& a, const StridedInterval& b) {
  return a.lo() <= b.hi() && b.lo() <= a.hi();
}

}  // namespace sword::ilp
