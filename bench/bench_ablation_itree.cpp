// Reproduces SIII-B's data-structure claims on the analyzer's own
// structures (itree::StreamingSetBuilder, itree::FrozenIntervalSet):
//   - summarization makes M (nodes) << N (accesses) for array-walking
//     traces - "the interval tree approach allows us to summarize
//     consecutive memory accesses in one node";
//   - summary-vs-summary comparison (the frozen sets' sort-merge sweep)
//     beats the naive all-pairs comparison by orders of magnitude;
//   - the race-check hot path (CheckFrozenPair: sweep or gallop, plus
//     closed-form overlap fast paths) in enumerated pairs per second on
//     dense-stride and sparse workloads, which the perf-smoke gate floors.
//
// Flags: --quick (smaller sizes for CI), --json FILE (machine-readable
// metrics for the perf-smoke regression gate).
#include <algorithm>
#include <fstream>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/rng.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/streaming_builder.h"
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

/// Pre-summarized nodes, frozen in the order StreamingSetBuilder::Freeze
/// produces: ascending first byte, insertion order on ties.
itree::FrozenIntervalSet FreezeNodes(std::vector<itree::AccessNode> nodes) {
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const itree::AccessNode& l, const itree::AccessNode& r) {
                     return l.interval.lo() < r.interval.lo();
                   });
  return itree::FrozenIntervalSet::FromSorted(std::move(nodes));
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

/// The paper's dense-stride shape: two big same-bucket summaries whose nodes
/// are stride-8 runs laid out so each a-node range-touches a couple of
/// b-nodes - the hot path of a real array-heavy trace. Mostly reads, with a
/// few writes so the race path is exercised too. The sweep decides only the
/// write pairs and counts the read-read majority in a callback-free pass -
/// so pairs/s here mostly measures that pass.
void BuildDenseStridePair(uint64_t nodes, std::vector<itree::AccessNode>* a,
                          std::vector<itree::AccessNode>* b) {
  for (uint64_t i = 0; i < nodes; i++) {
    const uint8_t aflags = (i % 16 == 0) ? itree::kWrite : itree::kRead;
    const ilp::StridedInterval ia{0x100000 + i * 80, 8, 8, 8};
    const ilp::StridedInterval ib{0x100040 + i * 80, 8, 8, 8};
    a->push_back({ia, Key(static_cast<uint32_t>(1 + i % 4), aflags), ia.count});
    b->push_back({ib, Key(static_cast<uint32_t>(100 + i % 4), itree::kRead),
                  ib.count});
  }
}

struct PairBenchResult {
  double pairs_per_sec = 0;
  uint64_t pairs = 0;
  uint64_t races = 0;
};

PairBenchResult RunFrozen(std::vector<itree::AccessNode> a,
                          std::vector<itree::AccessNode> b,
                          const itree::MutexSetTable& mutexes, int reps,
                          double* freeze_seconds) {
  PairBenchResult r;
  Timer freeze_timer;
  const itree::FrozenIntervalSet fa = FreezeNodes(std::move(a));
  const itree::FrozenIntervalSet fb = FreezeNodes(std::move(b));
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

  Banner("SIII-B ablation - interval summaries, frozen sets, fast paths",
         "summarization: M << N; summary comparison beats all-pairs; the "
         "closed forms cover the dense/equal-stride shapes");

  // --- Summarization: array-walk traces collapse.
  const uint64_t walk_n = quick ? 100000 : 1000000;
  TextTable summary({"trace pattern", "raw accesses N", "summary nodes M",
                     "build time"});
  {
    itree::StreamingSetBuilder walk;
    Timer t;
    for (uint64_t i = 0; i < walk_n; i++) walk.AddAccess(1 << 20 | (i * 8), Key(1));
    summary.AddRow({"contiguous array walk", std::to_string(walk_n),
                    std::to_string(walk.NodeCount()), FormatSeconds(t.ElapsedSeconds())});
  }
  {
    itree::StreamingSetBuilder strided;
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
    itree::StreamingSetBuilder scattered;
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

  // --- Comparison: the frozen sets' sweep vs all-pairs.
  TextTable compare({"nodes per side", "naive all-pairs", "frozen sweep",
                     "speedup"});
  bool summary_wins = true;
  const std::vector<uint64_t> naive_sizes =
      quick ? std::vector<uint64_t>{500, 2000} : std::vector<uint64_t>{500, 2000, 8000};
  for (uint64_t m : naive_sizes) {
    std::vector<itree::AccessNode> va, vb;
    Rng rng(m);
    for (uint64_t i = 0; i < m; i++) {
      ilp::StridedInterval iv{(1u << 24) + rng.Below(1 << 22), 8, 1 + rng.Below(16), 8};
      va.push_back({iv, Key(1), iv.count});
      ilp::StridedInterval jv{(1u << 24) + rng.Below(1 << 22), 8, 1 + rng.Below(16), 8};
      vb.push_back({jv, Key(2), jv.count});
    }
    const itree::FrozenIntervalSet fa = FreezeNodes(va);
    const itree::FrozenIntervalSet fb = FreezeNodes(vb);

    Timer naive_timer;
    const uint64_t naive_conflicts = NaiveCompare(va, vb);
    const double naive_s = naive_timer.ElapsedSeconds();

    // Every node is a write, so the sweep hands over every range-touching
    // pair; each is decided exactly, like the naive loop's.
    Timer sweep_timer;
    uint64_t sweep_conflicts = 0;
    itree::SweepMatchingPairs(fa, fb, [&](uint32_t i, uint32_t j) {
      if (ilp::Intersect(fa.node(i).interval, fb.node(j).interval)) {
        sweep_conflicts++;
      }
      return true;
    });
    const double sweep_s = sweep_timer.ElapsedSeconds();

    if (sweep_conflicts != naive_conflicts) {
      std::printf("DISAGREEMENT: naive %llu vs sweep %llu\n",
                  (unsigned long long)naive_conflicts,
                  (unsigned long long)sweep_conflicts);
      return 1;
    }
    compare.AddRow({std::to_string(m), FormatSeconds(naive_s),
                    FormatSeconds(sweep_s),
                    FmtX(naive_s / std::max(sweep_s, 1e-9), 0)});
    if (m >= 2000 && sweep_s * 5 > naive_s) summary_wins = false;
  }
  compare.Print();
  std::printf("\n");

  // --- The race-check hot path (CheckFrozenPair with fast paths), in
  // enumerated pairs per second.
  itree::MutexSetTable mutexes;
  const int reps = quick ? 3 : 10;
  TextTable hot({"workload", "nodes/side", "pairs/s", "races", "freeze"});
  double dense_frozen_pps = 0;
  {
    std::vector<itree::AccessNode> a, b;
    const uint64_t nodes = quick ? 10000 : 40000;
    BuildDenseStridePair(nodes, &a, &b);
    double freeze_s = 0;
    const auto frozen = RunFrozen(std::move(a), std::move(b), mutexes, reps,
                                  &freeze_s);
    dense_frozen_pps = frozen.pairs_per_sec;
    hot.AddRow({"dense stride-8 runs", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(frozen.pairs_per_sec)),
                std::to_string(frozen.races), FormatSeconds(freeze_s)});
  }
  {
    // Scattered sparse nodes: fewer touching pairs.
    std::vector<itree::AccessNode> a, b;
    Rng rng(77);
    const uint64_t nodes = quick ? 8000 : 30000;
    for (uint64_t i = 0; i < nodes; i++) {
      const ilp::StridedInterval ia{0x400000 + rng.Below(1 << 21), 24,
                                    1 + rng.Below(8), 8};
      a.push_back({ia, Key(static_cast<uint32_t>(1 + i % 4), itree::kRead),
                   ia.count});
      const ilp::StridedInterval ib{0x400000 + rng.Below(1 << 21), 24,
                                    1 + rng.Below(8), 8};
      b.push_back({ib, Key(static_cast<uint32_t>(100 + i % 4), itree::kRead),
                   ib.count});
    }
    double freeze_s = 0;
    const auto frozen = RunFrozen(std::move(a), std::move(b), mutexes, reps,
                                  &freeze_s);
    hot.AddRow({"random sparse strides", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(frozen.pairs_per_sec)),
                std::to_string(frozen.races), FormatSeconds(freeze_s)});
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

  Check(summary_wins,
        "summary comparison >5x faster than all-pairs at 2000+ nodes");
  Check(scattered_nodes > (quick ? 25000u : 100000u),
        "random scatter does not summarize (worst case honest)");
  Check(fastpath_coverage_min == 1.0,
        "closed forms fully cover the dense/equal-stride shape classes");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"ablation_itree\",\"quick\":" << (quick ? "true" : "false")
        << ",\"dense_frozen_pairs_per_sec\":" << dense_frozen_pps
        << ",\"fastpath_speedup_dense\":" << fastpath_speedup_dense
        << ",\"fastpath_coverage_min\":" << fastpath_coverage_min << "}\n";
  }
  return 0;
}
