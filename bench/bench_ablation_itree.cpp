// Reproduces SIII-B's data-structure claims on the analyzer's own
// structures (itree::StreamingSetBuilder, itree::FrozenIntervalSet):
//   - summarization makes M (nodes) << N (accesses) for array-walking
//     traces - "the interval tree approach allows us to summarize
//     consecutive memory accesses in one node";
//   - summary-vs-summary comparison (the frozen sets' sort-merge sweep)
//     beats the naive all-pairs comparison by orders of magnitude;
//   - the summarizer's cost on a random-access stream shaped like a graph
//     search's neighbour reads (count-2 runs to a random higher neighbour,
//     repeats, single reads), in accesses summarized per second;
//   - the race-check hot path (freezing both sides, then CheckFrozenPair:
//     the write-aware sweep plus the closed-form overlap decision) in frozen
//     nodes swept per second on dense-stride and sparse workloads, and the
//     closed form's decisions per second on each overlap shape class.
// The perf-smoke gate floors each of these rates.
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
/// few writes so the race path is exercised too; the sweep visits only the
/// write pairs.
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

/// One writer event of a random-neighbour stream: a count-2 run, or a
/// single access when count == 1.
struct NeighbourOp {
  uint64_t addr;
  uint64_t stride;
  uint64_t count;
  itree::AccessKey key;
};

/// A graph search's neighbour reads over `vertices` 8-byte slots: most
/// events are count-2 runs from a vertex to a random higher neighbour (an
/// arbitrary stride), some re-read the previous address, the rest are
/// single reads. Three read sites, one rare writing site.
std::vector<NeighbourOp> RandomNeighbourStream(uint64_t accesses,
                                               uint64_t vertices, Rng& rng) {
  std::vector<NeighbourOp> ops;
  uint64_t emitted = 0;
  uint64_t last = 0x400000;
  while (emitted < accesses) {
    const uint32_t pc = static_cast<uint32_t>(1 + rng.Below(3));
    const itree::AccessKey key =
        Key(rng.Chance(0.02) ? 9 : pc, rng.Chance(0.02) ? itree::kWrite : itree::kRead);
    const uint64_t addr = 0x400000 + 8 * rng.Below(vertices);
    const uint64_t pick = rng.Below(100);
    if (pick < 55) {
      const uint64_t hi = addr + 8 * (1 + rng.Below(vertices));
      ops.push_back({addr, hi - addr, 2, key});
      last = hi;
      emitted += 2;
    } else if (pick < 75) {
      ops.push_back({last, 0, 1, key});
      emitted++;
    } else {
      ops.push_back({addr, 0, 1, key});
      last = addr;
      emitted++;
    }
  }
  return ops;
}

/// Summarizes each group of `groups` into a fresh builder as the analyzer
/// does (index reserved from the group's event count, dropped at the end);
/// best of `samples` samples, each `block` passes. Returns accesses per
/// second over all groups.
double SummarizeRate(const std::vector<std::vector<NeighbourOp>>& groups,
                     int samples, int block, uint64_t* nodes, uint64_t* accesses) {
  const double seconds = BestOfReps(
      samples,
      [&] {
        Timer t;
        for (int rep = 0; rep < block; rep++) {
          *nodes = 0;
          *accesses = 0;
          for (const std::vector<NeighbourOp>& ops : groups) {
            itree::StreamingSetBuilder builder;
            builder.ReserveIndex(ops.size());
            for (const NeighbourOp& op : ops) {
              if (op.count == 1) builder.AddAccess(op.addr, op.key);
              else builder.AddRun(op.addr, op.stride, op.count, op.key);
            }
            builder.DropIndex();
            *nodes += builder.NodeCount();
            *accesses += builder.TotalAccesses();
          }
        }
        return t.ElapsedSeconds() / block;
      },
      [](double s) { return s; });
  return static_cast<double>(*accesses) / std::max(seconds, 1e-9);
}

struct SweepBenchResult {
  double nodes_per_sec = 0;  // both sides' nodes, per second of freeze+compare
  uint64_t pairs = 0;        // range-touching pairs with a write, per compare
  uint64_t races = 0;        // per compare
};

/// Freezes both sides and compares them, `block` times per sample; the rate
/// is the best of `samples` samples. One freeze+compare of the quick sizes
/// takes well under a millisecond, so a single one would time scheduler
/// noise.
SweepBenchResult RunFrozen(const std::vector<itree::AccessNode>& a,
                           const std::vector<itree::AccessNode>& b,
                           const itree::MutexSetTable& mutexes, int samples,
                           int block) {
  SweepBenchResult r;
  const double seconds = BestOfReps(
      samples,
      [&] {
        Timer t;
        for (int rep = 0; rep < block; rep++) {
          const itree::FrozenIntervalSet fa = FreezeNodes(a);
          const itree::FrozenIntervalSet fb = FreezeNodes(b);
          offline::CheckStats stats;
          uint64_t races = 0;
          offline::CheckFrozenPair(fa, fb, mutexes,
                                   [&](const RaceReport&) { races++; }, &stats);
          r.pairs = stats.node_pairs_ranged;
          r.races = races;
        }
        return t.ElapsedSeconds() / block;
      },
      [](double s) { return s; });
  r.nodes_per_sec =
      static_cast<double>(a.size() + b.size()) / std::max(seconds, 1e-9);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("SIII-B ablation - interval summaries, frozen sets, closed form",
         "summarization: M << N; summary comparison beats all-pairs; one "
         "closed form decides every overlap shape");

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
  double random_pairs_aps = 0;
  {
    // Timed row: a graph search's random neighbour reads, which summarize
    // a few accesses per node and so exercise every index branch. Groups of
    // 20k accesses, the size of one (thread, label) group of c_GraphSearch
    // at --size 16000.
    Rng rng(23);
    std::vector<std::vector<NeighbourOp>> groups(quick ? 10 : 50);
    for (auto& ops : groups) ops = RandomNeighbourStream(20000, 16000, rng);
    uint64_t nodes = 0;
    uint64_t accesses = 0;
    random_pairs_aps =
        SummarizeRate(groups, quick ? 5 : 9, quick ? 4 : 2, &nodes, &accesses);
    std::string time = FormatSeconds(static_cast<double>(accesses) / random_pairs_aps);
    time.append(" (")
        .append(std::to_string(static_cast<uint64_t>(random_pairs_aps)))
        .append(" accesses/s)");
    summary.AddRow({"random neighbour pairs", std::to_string(accesses),
                    std::to_string(nodes), time});
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

  // --- The race-check hot path (freeze + CheckFrozenPair), in frozen nodes
  // swept per second.
  itree::MutexSetTable mutexes;
  const int samples = quick ? 5 : 9;
  const int block = quick ? 20 : 10;
  TextTable hot({"workload", "nodes/side", "nodes/s", "write pairs", "races"});
  double dense_frozen_nps = 0;
  {
    std::vector<itree::AccessNode> a, b;
    const uint64_t nodes = quick ? 10000 : 40000;
    BuildDenseStridePair(nodes, &a, &b);
    const auto frozen = RunFrozen(a, b, mutexes, samples, block);
    dense_frozen_nps = frozen.nodes_per_sec;
    hot.AddRow({"dense stride-8 runs", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(frozen.nodes_per_sec)),
                std::to_string(frozen.pairs), std::to_string(frozen.races)});
  }
  {
    // Scattered sparse read nodes: no pair with a write at all.
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
    const auto frozen = RunFrozen(a, b, mutexes, samples, block);
    hot.AddRow({"random sparse strides", std::to_string(nodes),
                std::to_string(static_cast<uint64_t>(frozen.nodes_per_sec)),
                std::to_string(frozen.pairs), std::to_string(frozen.races)});
  }
  hot.Print();
  std::printf("\n");

  // --- Closed-form overlap decisions per second, per shape class. Every
  // shape is decided exactly by the one closed form; the perf-smoke gate
  // floors each rate. A block of decisions takes a few milliseconds, so
  // each rate is the best of `samples` blocks, like the rows above.
  TextTable fp({"overlap shape", "decisions", "time", "decisions/s",
                "overlaps"});
  struct Shape {
    const char* name;
    const char* metric;
    ilp::StridedInterval a, b;
  };
  const Shape shapes[] = {
      {"dense x dense", "dense_dense", {0x1000, 8, 64, 8}, {0x1004, 8, 64, 8}},
      {"dense x sparse", "dense_sparse", {0x1000, 8, 64, 8}, {0x1002, 48, 12, 4}},
      {"equal-stride sparse", "equal_sparse", {0x1000, 48, 32, 4}, {0x1010, 48, 32, 4}},
      {"unequal-stride sparse", "unequal_sparse", {0x1000, 48, 32, 4},
       {0x1010, 40, 32, 4}},
  };
  std::vector<std::pair<std::string, double>> shape_rates;
  const uint64_t decisions = quick ? 200000 : 1000000;
  for (const Shape& s : shapes) {
    uint64_t overlaps = 0;
    const double seconds = BestOfReps(
        samples,
        [&] {
          Timer timer;
          overlaps = 0;
          for (uint64_t i = 0; i < decisions; i++) {
            ilp::StridedInterval a = s.a;
            a.base += (i % 7);  // defeat branch prediction on identical inputs
            overlaps += ilp::Intersect(a, s.b).has_value();
          }
          return timer.ElapsedSeconds();
        },
        [](double t) { return t; });
    const double rate = static_cast<double>(decisions) / std::max(seconds, 1e-9);
    shape_rates.emplace_back(s.metric, rate);
    fp.AddRow({s.name, std::to_string(decisions), FormatSeconds(seconds),
               std::to_string(static_cast<uint64_t>(rate)),
               std::to_string(overlaps)});
  }
  fp.Print();
  std::printf("\n");

  Check(summary_wins,
        "summary comparison >5x faster than all-pairs at 2000+ nodes");
  Check(scattered_nodes > (quick ? 25000u : 100000u),
        "random scatter does not summarize (worst case honest)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"ablation_itree\",\"quick\":" << (quick ? "true" : "false")
        << ",\"dense_frozen_nodes_per_sec\":" << dense_frozen_nps
        << ",\"random_pairs_accesses_per_sec\":" << random_pairs_aps;
    for (const auto& [metric, rate] : shape_rates) {
      out << ",\"decisions_per_sec_" << metric << "\":" << rate;
    }
    out << "}\n";
  }
  return 0;
}
