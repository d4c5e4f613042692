// Test-only reference deciders for ilp::Intersect.
//
// Production decides every strided-interval pair with the closed form in
// ilp/overlap.h. These are the two general engines it replaced, kept as
// oracles it is checked against:
//   IntersectDiophantine - one bounded Diophantine solve for EVERY byte-offset
//                          difference d in (-z0, z1), not only those the
//                          stride gcd divides; its witness is the closed
//                          form's witness, so it checks both.
//   IntersectIlp         - the paper's GLPK formulation: one branch & bound
//                          ILP (oracle/ilp2.h) per byte-offset pair (s0, s1),
//                          each equality encoded as two inequalities.
#pragma once

#include <optional>

#include "ilp/overlap.h"

namespace sword::oracle {

std::optional<ilp::OverlapWitness> IntersectDiophantine(
    const ilp::StridedInterval& a, const ilp::StridedInterval& b);

std::optional<ilp::OverlapWitness> IntersectIlp(const ilp::StridedInterval& a,
                                                const ilp::StridedInterval& b);

}  // namespace sword::oracle
