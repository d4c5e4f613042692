// OmpSCR-style kernels, part 1: loop studies, Mandelbrot, pi, Jacobi.
#include <cmath>

#include "workloads/ompscr/ompscr_common.h"

namespace sword::workloads {
namespace {

using namespace ompscr;
using somp::Ctx;

// c_loopA.badSolution: the study's broken parallelization of a loop with a
// carried dependence - a[i] reads a[i-1] written by the neighbouring thread.
void LoopABad(const WorkloadParams& p) {
  const uint64_t n = p.size ? p.size : 2000;
  std::vector<double> a(n, 1.0);
  somp::Parallel(p.threads, [&](Ctx& ctx) {
    ctx.For(1, static_cast<int64_t>(n), [&](int64_t i) {
      const double prev = instr::load(a[static_cast<size_t>(i) - 1]);
      instr::store(a[static_cast<size_t>(i)], prev * 0.5 + 1.0);
    });
  });
}

// c_loopB.badSolution1: forward dependence variant (writes the successor).
void LoopBBad(const WorkloadParams& p) {
  const uint64_t n = p.size ? p.size : 2000;
  std::vector<double> a(n + 1, 2.0);
  somp::Parallel(p.threads, [&](Ctx& ctx) {
    ctx.For(0, static_cast<int64_t>(n), [&](int64_t i) {
      const double cur = instr::load(a[static_cast<size_t>(i)]);
      instr::store(a[static_cast<size_t>(i) + 1], cur * 0.25 + 0.5);
    });
  });
}

// c_mandel: Mandelbrot set area estimation. Pixels are partitioned
// disjointly; the DOCUMENTED race is the unsynchronized update of the
// shared `numoutside` counter (the well-known OmpSCR race).
void Mandel(const WorkloadParams& p) {
  const uint64_t npoints = p.size ? p.size : 2048;
  std::vector<int64_t> iters(npoints, 0);
  int64_t numoutside = 0;
  somp::Parallel(p.threads, [&](Ctx& ctx) {
    ctx.For(0, static_cast<int64_t>(npoints), [&](int64_t idx) {
      // One sample point per index, deterministic grid.
      const double cre = -2.0 + 2.5 * static_cast<double>(idx) /
                                    static_cast<double>(npoints);
      const double cim = 1.125 * static_cast<double>(idx % 64) / 64.0;
      double zre = 0.0, zim = 0.0;
      int it = 0;
      for (; it < 64; it++) {
        const double zre2 = zre * zre - zim * zim + cre;
        zim = 2.0 * zre * zim + cim;
        zre = zre2;
        if (zre * zre + zim * zim > 4.0) break;
      }
      instr::store(iters[static_cast<size_t>(idx)], static_cast<int64_t>(it));
      if (it < 64) {
        instr::racy_increment(numoutside);  // the documented race
      }
    });
  });
  (void)numoutside;
}

// c_pi: midpoint integration of 4/(1+x^2); race-free (private partials,
// critical combine).
void Pi(const WorkloadParams& p) {
  const uint64_t n = p.size ? p.size : 100000;
  double pi = 0.0;
  somp::Parallel(p.threads, [&](Ctx& ctx) {
    double partial = 0.0;
    const double w = 1.0 / static_cast<double>(n);
    ctx.For(0, static_cast<int64_t>(n),
            [&](int64_t i) {
              const double x = (static_cast<double>(i) + 0.5) * w;
              partial += 4.0 / (1.0 + x * x);
            },
            {.nowait = true});
    ctx.Critical("pi-sum", [&] {
      const double cur = instr::load(pi);
      instr::store(pi, cur + partial * w);
    });
  });
}

// c_jacobi01: Jacobi relaxation on a 2D grid, two buffers, one barrier per
// sweep; race-free. Exercises many barrier intervals.
void Jacobi(const WorkloadParams& p) {
  const uint64_t dim = p.size ? p.size : 48;
  const int sweeps = 10;
  std::vector<double> u(dim * dim, 0.0), unew(dim * dim, 0.0);
  for (uint64_t i = 0; i < dim; i++) u[i] = 1.0;  // boundary

  somp::Parallel(p.threads, [&](Ctx& ctx) {
    for (int s = 0; s < sweeps; s++) {
      auto& src = (s % 2 == 0) ? u : unew;
      auto& dst = (s % 2 == 0) ? unew : u;
      ctx.For(1, static_cast<int64_t>(dim) - 1, [&](int64_t r) {
        for (uint64_t c = 1; c + 1 < dim; c++) {
          const size_t row = static_cast<size_t>(r);
          const double north = instr::load(src[(row - 1) * dim + c]);
          const double south = instr::load(src[(row + 1) * dim + c]);
          const double west = instr::load(src[row * dim + c - 1]);
          const double east = instr::load(src[row * dim + c + 1]);
          instr::store(dst[row * dim + c], 0.25 * (north + south + west + east));
        }
      });  // implicit barrier separates sweeps
    }
  });
}

// c_jacobi02: the same relaxation with an explicit copy-back sweep instead
// of the buffer swap; race-free. Every loop site touches the SAME arrays
// with the SAME bounds on every sweep: the regular-stencil shape. Each
// lane's row sweeps reach the v3 writer as interleaved strided streams,
// one per access site, and the per-site coalescer logs each stream as a
// few runs per barrier interval instead of one event per access.
void JacobiCopyback(const WorkloadParams& p) {
  const uint64_t dim = p.size ? p.size : 48;
  const int sweeps = 10;
  std::vector<double> u(dim * dim, 0.0), unew(dim * dim, 0.0);
  for (uint64_t i = 0; i < dim; i++) u[i] = 1.0;  // boundary

  somp::Parallel(p.threads, [&](Ctx& ctx) {
    for (int s = 0; s < sweeps; s++) {
      ctx.For(1, static_cast<int64_t>(dim) - 1, [&](int64_t r) {
        for (uint64_t c = 1; c + 1 < dim; c++) {
          const size_t row = static_cast<size_t>(r);
          const double north = instr::load(u[(row - 1) * dim + c]);
          const double south = instr::load(u[(row + 1) * dim + c]);
          const double west = instr::load(u[row * dim + c - 1]);
          const double east = instr::load(u[row * dim + c + 1]);
          instr::store(unew[row * dim + c],
                       0.25 * (north + south + west + east));
        }
      });  // implicit barrier: all of unew written before the copy-back
      ctx.For(1, static_cast<int64_t>(dim) - 1, [&](int64_t r) {
        for (uint64_t c = 1; c + 1 < dim; c++) {
          const size_t row = static_cast<size_t>(r);
          instr::store(u[row * dim + c], instr::load(unew[row * dim + c]));
        }
      });  // implicit barrier separates sweeps
    }
  });
}

}  // namespace

void RegisterOmpscrLoops(WorkloadRegistry& r) {
  AddOmpscr(r, "c_loopA.badSolution", "broken carried-dependence parallelization",
            1, 1, 1, LoopABad,
            [](const WorkloadParams& p) { return (p.size ? p.size : 2000) * 8; },
            2000);
  AddOmpscr(r, "c_loopB.badSolution1", "forward-dependence variant",
            1, 1, 1, LoopBBad,
            [](const WorkloadParams& p) { return (p.size ? p.size : 2000) * 8; },
            2000);
  AddOmpscr(r, "c_mandel", "Mandelbrot area; racy numoutside counter",
            1, 1, 1, Mandel,
            [](const WorkloadParams& p) { return (p.size ? p.size : 2048) * 8; },
            2048);
  AddOmpscr(r, "c_pi", "midpoint integration; race-free",
            0, 0, 0, Pi, [](const WorkloadParams&) { return uint64_t{64}; }, 100000);
  AddOmpscr(r, "c_jacobi01", "Jacobi relaxation; race-free, many barriers",
            0, 0, 0, Jacobi,
            [](const WorkloadParams& p) {
              const uint64_t d = p.size ? p.size : 48;
              return 2 * d * d * 8;
            },
            48);
  AddOmpscr(r, "c_jacobi02",
            "Jacobi with copy-back sweep; race-free",
            0, 0, 0, JacobiCopyback,
            [](const WorkloadParams& p) {
              const uint64_t d = p.size ? p.size : 48;
              return 2 * d * d * 8;
            },
            48);
}

}  // namespace sword::workloads
