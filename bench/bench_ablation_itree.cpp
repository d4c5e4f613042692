// Reproduces SIII-B's data-structure claims as an ablation:
//   - interval-tree construction is O(N log N) in raw accesses, and
//     summarization makes M (nodes) << N (accesses) for array-walking
//     traces - "the interval tree approach allows us to summarize
//     consecutive memory accesses in one node";
//   - tree-vs-tree comparison with range queries beats the naive
//     all-pairs comparison by orders of magnitude;
//   - NEW in this reproduction: freezing finished trees into flat sorted
//     arrays and enumerating range-touching pairs with a sort-merge sweep
//     (plus closed-form overlap fast paths) beats the legacy per-node
//     QueryRange hot path by >= 3x pairs/sec on dense-stride workloads.
//
// Flags: --quick (smaller sizes for CI), --json FILE (machine-readable
// metrics for the perf-smoke regression gate).
#include <fstream>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/rng.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/interval_tree.h"
#include "offline/racecheck.h"

using namespace sword;
using namespace sword::bench;

namespace {

itree::AccessKey Key(uint32_t pc, uint8_t flags = itree::kWrite,
                     uint8_t size = 8) {
  itree::AccessKey k;
  k.pc = pc;
  k.flags = flags;
  k.size = size;
  return k;
}

/// Naive quadratic comparison baseline: every node against every node.
uint64_t NaiveCompare(const std::vector<itree::AccessNode>& a,
                      const std::vector<itree::AccessNode>& b) {
  uint64_t conflicts = 0;
  for (const auto& x : a) {
    for (const auto& y : b) {
      if (ilp::RangesTouch(x.interval, y.interval) &&
          ilp::Intersect(x.interval, y.interval)) {
        conflicts++;
      }
    }
  }
  return conflicts;
}

/// The paper's dense-stride shape: two big same-bucket trees whose nodes are
/// stride-8 runs laid out so each a-node range-touches a couple of b-nodes -
/// the hot path of a real array-heavy trace. Mostly reads, with a few writes
/// so the race path is exercised too. Both back ends count the same pairs,
/// but they spend them differently: the legacy path decides every pair (a
/// read-read one exits at the first filter), while the frozen sweep decides
/// only the write pairs and counts the read-read majority in a callback-free
/// pass - so frozen pairs/s here mostly measures that pass.
void BuildDenseStridePair(uint64_t nodes, itree::IntervalTree* a,
                          itree::IntervalTree* b) {
  for (uint64_t i = 0; i < nodes; i++) {
    const uint8_t aflags = (i % 16 == 0) ? itree::kWrite : itree::kRead;
    a->AddInterval({0x100000 + i * 80, 8, 8, 8},
                   Key(static_cast<uint32_t>(1 + i % 4), aflags));
    b->AddInterval({0x100040 + i * 80, 8, 8, 8},
                   Key(static_cast<uint32_t>(100 + i % 4), itree::kRead));
  }
}

struct PairBenchResult {
  double pairs_per_sec = 0;
  uint64_t pairs = 0;
  uint64_t races = 0;
};

PairBenchResult RunLegacy(const itree::IntervalTree& a,
                          const itree::IntervalTree& b,
                          const itree::MutexSetTable& mutexes, int reps) {
  PairBenchResult r;
  Timer t;
  for (int rep = 0; rep < reps; rep++) {
    offline::CheckStats stats;
    offline::CheckTreePair(a, b, mutexes, ilp::OverlapEngine::kDiophantine,
                           [&](const RaceReport&) { r.races++; }, &stats);
    r.pairs += stats.node_pairs_ranged;
  }
  r.pairs_per_sec = static_cast<double>(r.pairs) / std::max(t.ElapsedSeconds(), 1e-9);
  return r;
}

PairBenchResult RunFrozen(const itree::IntervalTree& a,
                          const itree::IntervalTree& b,
                          const itree::MutexSetTable& mutexes, int reps,
                          double* freeze_seconds) {
  PairBenchResult r;
  Timer freeze_timer;
  const itree::FrozenIntervalSet fa(a), fb(b);
  *freeze_seconds = freeze_timer.ElapsedSeconds();
  offline::CheckLimits limits;
  limits.use_fastpath = true;
  Timer t;
  for (int rep = 0; rep < reps; rep++) {
    offline::CheckStats stats;
    offline::CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                             [&](const RaceReport&) { r.races++; }, &stats,
                             limits);
    r.pairs += stats.node_pairs_ranged;
  }
  r.pairs_per_sec = static_cast<double>(r.pairs) / std::max(t.ElapsedSeconds(), 1e-9);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("SIII-B ablation - interval trees, frozen sets, fast paths",
         "summarization: M << N; tree comparison beats all-pairs; frozen "
         "sweep + fast paths beat per-node queries >= 3x on dense strides");

  // --- Summarization: array-walk traces collapse.
  const uint64_t walk_n = quick ? 100000 : 1000000;
  TextTable summary({"trace pattern", "raw accesses N", "tree nodes M",
                     "build time"});
  {
    itree::IntervalTree walk;
    Timer t;
    for (uint64_t i = 0; i < walk_n; i++) walk.AddAccess(1 << 20 | (i * 8), Key(1));
    summary.AddRow({"contiguous array walk", std::to_string(walk_n),
                    std::to_string(walk.NodeCount()), FormatSeconds(t.ElapsedSeconds())});
  }
  {
    itree::IntervalTree strided;
    Timer t;
    for (uint64_t i = 0; i < walk_n; i++) {
      strided.AddAccess((2 << 20) + i * 24, Key(2));
    }
    summary.AddRow({"stride-24 walk", std::to_string(walk_n),
                    std::to_string(strided.NodeCount()),
                    FormatSeconds(t.ElapsedSeconds())});
  }
  uint64_t scattered_nodes = 0;
  {
    itree::IntervalTree scattered;
    Rng rng(9);
    Timer t;
    const uint64_t scatter_n = quick ? 50000 : 200000;
    for (uint64_t i = 0; i < scatter_n; i++) {
      scattered.AddAccess((3 << 20) + rng.Below(1 << 22) * 8,
                          Key(static_cast<uint32_t>(rng.Below(16))));
    }
    scattered_nodes = scattered.NodeCount();
    summary.AddRow({"random scatter (worst case)", std::to_string(scatter_n),
                    std::to_string(scattered_nodes),
                    FormatSeconds(t.ElapsedSeconds())});
  }
  summary.Print();
  std::printf("\n");

  // --- Comparison: tree range queries vs all-pairs.
  TextTable compare({"nodes per side", "naive all-pairs", "interval tree",
                     "speedup"});
  bool tree_wins = true;
  const std::vector<uint64_t> naive_sizes =
      quick ? std::vector<uint64_t>{500, 2000} : std::vector<uint64_t>{500, 2000, 8000};
  for (uint64_t m : naive_sizes) {
    itree::IntervalTree ta, tb;
    std::vector<itree::AccessNode> va, vb;
    Rng rng(m);
    for (uint64_t i = 0; i < m; i++) {
      ilp::StridedInterval iv{(1u << 24) + rng.Below(1 << 22), 8, 1 + rng.Below(16), 8};
      ta.AddInterval(iv, Key(1));
      va.push_back({iv, Key(1), iv.count});
      ilp::StridedInterval jv{(1u << 24) + rng.Below(1 << 22), 8, 1 + rng.Below(16), 8};
      tb.AddInterval(jv, Key(2));
      vb.push_back({jv, Key(2), jv.count});
    }

    Timer naive_timer;
    const uint64_t naive_conflicts = NaiveCompare(va, vb);
    const double naive_s = naive_timer.ElapsedSeconds();

    Timer tree_timer;
    uint64_t tree_conflicts = 0;
    ta.ForEach([&](const itree::AccessNode& x) {
      tb.QueryRange(x.interval.lo(), x.interval.hi(),
                    [&](const itree::AccessNode& y) {
                      if (ilp::Intersect(x.interval, y.interval)) tree_conflicts++;
                      return true;
                    });
    });
    const double tree_s = tree_timer.ElapsedSeconds();

    if (tree_conflicts != naive_conflicts) {
      std::printf("DISAGREEMENT: naive %llu vs tree %llu\n",
                  (unsigned long long)naive_conflicts,
                  (unsigned long long)tree_conflicts);
      return 1;
    }
    compare.AddRow({std::to_string(m), FormatSeconds(naive_s), FormatSeconds(tree_s),
                    FmtX(naive_s / std::max(tree_s, 1e-9), 0)});
    if (m >= 2000 && tree_s * 5 > naive_s) tree_wins = false;
  }
  compare.Print();
  std::printf("\n");

  // --- Legacy per-node QueryRange vs frozen sweep + fast paths: the
  // race-check hot path, measured in enumerated pairs per second.
  itree::MutexSetTable mutexes;
  const int reps = quick ? 3 : 10;
  TextTable hot({"workload", "nodes/side", "legacy pairs/s", "frozen pairs/s",
                 "speedup", "freeze"});
  double dense_legacy_pps = 0, dense_frozen_pps = 0;
  {
    itree::IntervalTree a, b;
    const uint64_t nodes = quick ? 10000 : 40000;
    BuildDenseStridePair(nodes, &a, &b);
    const auto legacy = RunLegacy(a, b, mutexes, reps);
    double freeze_s = 0;
    const auto frozen = RunFrozen(a, b, mutexes, reps, &freeze_s);
    if (legacy.pairs != frozen.pairs || legacy.races != frozen.races) {
      std::printf("DISAGREEMENT: legacy %llu pairs/%llu races vs frozen %llu/%llu\n",
                  (unsigned long long)legacy.pairs, (unsigned long long)legacy.races,
                  (unsigned long long)frozen.pairs, (unsigned long long)frozen.races);
      return 1;
    }
    dense_legacy_pps = legacy.pairs_per_sec;
    dense_frozen_pps = frozen.pairs_per_sec;
    hot.AddRow({"dense stride-8 runs", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(legacy.pairs_per_sec)),
                std::to_string(static_cast<uint64_t>(frozen.pairs_per_sec)),
                FmtX(frozen.pairs_per_sec / std::max(legacy.pairs_per_sec, 1e-9), 1),
                FormatSeconds(freeze_s)});
  }
  {
    // Scattered sparse nodes: fewer touching pairs, enumeration still wins.
    itree::IntervalTree a, b;
    Rng rng(77);
    const uint64_t nodes = quick ? 8000 : 30000;
    for (uint64_t i = 0; i < nodes; i++) {
      a.AddInterval({0x400000 + rng.Below(1 << 21), 24, 1 + rng.Below(8), 8},
                    Key(static_cast<uint32_t>(1 + i % 4), itree::kRead));
      b.AddInterval({0x400000 + rng.Below(1 << 21), 24, 1 + rng.Below(8), 8},
                    Key(static_cast<uint32_t>(100 + i % 4), itree::kRead));
    }
    const auto legacy = RunLegacy(a, b, mutexes, reps);
    double freeze_s = 0;
    const auto frozen = RunFrozen(a, b, mutexes, reps, &freeze_s);
    hot.AddRow({"random sparse strides", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(legacy.pairs_per_sec)),
                std::to_string(static_cast<uint64_t>(frozen.pairs_per_sec)),
                FmtX(frozen.pairs_per_sec / std::max(legacy.pairs_per_sec, 1e-9), 1),
                FormatSeconds(freeze_s)});
  }
  hot.Print();
  std::printf("\n");

  // --- Closed-form fast paths vs the general engine, per shape class.
  TextTable fp({"overlap shape", "decisions", "engine", "fast path", "speedup",
                "closed-form coverage"});
  double fastpath_coverage_min = 1.0;
  double fastpath_speedup_dense = 0;
  struct Shape {
    const char* name;
    ilp::StridedInterval a, b;
  };
  const Shape shapes[] = {
      {"dense x dense", {0x1000, 8, 64, 8}, {0x1004, 8, 64, 8}},
      {"dense x sparse", {0x1000, 8, 64, 8}, {0x1002, 48, 12, 4}},
      {"equal-stride sparse", {0x1000, 48, 32, 4}, {0x1010, 48, 32, 4}},
  };
  const uint64_t decisions = quick ? 200000 : 1000000;
  for (const Shape& s : shapes) {
    ilp::OverlapOptions engine_only;
    engine_only.allow_fastpath = false;
    uint64_t sink = 0;
    Timer engine_timer;
    for (uint64_t i = 0; i < decisions; i++) {
      ilp::StridedInterval a = s.a;
      a.base += (i % 7);  // defeat branch prediction on identical inputs
      sink += ilp::IntersectBounded(a, s.b, engine_only).verdict ==
              ilp::OverlapVerdict::kOverlap;
    }
    const double engine_s = engine_timer.ElapsedSeconds();

    ilp::OverlapOptions with_fast;
    uint64_t fast_hits = 0, fast_sink = 0;
    Timer fast_timer;
    for (uint64_t i = 0; i < decisions; i++) {
      ilp::StridedInterval a = s.a;
      a.base += (i % 7);
      const auto r = ilp::IntersectBounded(a, s.b, with_fast);
      fast_hits += r.via_fastpath;
      fast_sink += r.verdict == ilp::OverlapVerdict::kOverlap;
    }
    const double fast_s = fast_timer.ElapsedSeconds();
    if (sink != fast_sink) {
      std::printf("DISAGREEMENT on %s: %llu vs %llu overlaps\n", s.name,
                  (unsigned long long)sink, (unsigned long long)fast_sink);
      return 1;
    }
    const double coverage = static_cast<double>(fast_hits) / decisions;
    fastpath_coverage_min = std::min(fastpath_coverage_min, coverage);
    const double speedup = engine_s / std::max(fast_s, 1e-9);
    if (std::string(s.name) == "dense x dense") fastpath_speedup_dense = speedup;
    fp.AddRow({s.name, std::to_string(decisions), FormatSeconds(engine_s),
               FormatSeconds(fast_s), FmtX(speedup, 1),
               std::to_string(static_cast<int>(coverage * 100)) + "%"});
  }
  fp.Print();
  std::printf("\n");

  const bool frozen_3x = dense_frozen_pps >= 3.0 * dense_legacy_pps;
  Check(tree_wins, "tree comparison >5x faster than all-pairs at 2000+ nodes");
  Check(scattered_nodes > (quick ? 25000u : 100000u),
        "random scatter does not summarize (worst case honest)");
  Check(frozen_3x,
        "frozen sweep + fast paths >= 3x legacy pairs/sec on dense strides (" +
            FmtX(dense_frozen_pps / std::max(dense_legacy_pps, 1e-9), 1) + ")");
  Check(fastpath_coverage_min == 1.0,
        "closed forms fully cover the dense/equal-stride shape classes");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"ablation_itree\",\"quick\":" << (quick ? "true" : "false")
        << ",\"dense_legacy_pairs_per_sec\":" << dense_legacy_pps
        << ",\"dense_frozen_pairs_per_sec\":" << dense_frozen_pps
        << ",\"dense_speedup\":" << dense_frozen_pps / std::max(dense_legacy_pps, 1e-9)
        << ",\"fastpath_speedup_dense\":" << fastpath_speedup_dense
        << ",\"fastpath_coverage_min\":" << fastpath_coverage_min << "}\n";
  }
  return frozen_3x ? 0 : 1;
}
