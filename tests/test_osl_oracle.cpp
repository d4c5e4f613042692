// OSL judgment vs a structural reachability oracle.
//
// Random nested fork/join/barrier structures are generated; every barrier
// interval of every context gets both (a) its offset-span label from the
// label algebra and (b) a node in an explicit happens-before DAG built from
// first principles:
//   - program order: interval (ctx, p) -> (ctx, p+1);
//   - barriers are all-to-all within a team: (member, p) -> (member', p+1);
//   - fork: the forking context's CURRENT interval -> each child's first;
//   - join: each child's LAST interval -> the forking context's NEXT
//     interval (labels advance by AfterJoin there).
// Two intervals are truly ordered iff one reaches the other in the DAG.
// osl::Sequential must agree EXACTLY - this is the soundness (no false
// "concurrent" -> no false races) and completeness (no false "sequential"
// -> no masked races) of the paper's core judgment, checked on ~60 random
// structures x all interval pairs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "osl/label.h"

namespace sword::osl {
namespace {

struct Interval {
  Label label;
  int node = 0;  // index into the reachability graph
};

class Structure {
 public:
  explicit Structure(uint64_t seed) : rng_(seed) {
    // The root context: a single-lane "team".
    const int root = NewNode();
    Generate(Label::Initial(), root, /*depth=*/0);
    ComputeReachability();
  }

  const std::vector<Interval>& intervals() const { return intervals_; }

  bool Ordered(int a, int b) const {
    return reach_[static_cast<size_t>(a)][static_cast<size_t>(b)] ||
           reach_[static_cast<size_t>(b)][static_cast<size_t>(a)];
  }

 private:
  // Generates the execution of one context starting at `node` with `label`,
  // possibly forking nested teams; returns the node of its LAST interval.
  int Generate(Label label, int node, int depth) {
    Record(label, node);
    const int constructs = 1 + static_cast<int>(rng_.Below(3));
    for (int c = 0; c < constructs; c++) {
      const bool can_fork = depth < 2 && intervals_.size() < 60;
      // The root always forks at least once so every structure has
      // something to judge.
      const bool must_fork = depth == 0 && c == 0;
      if (can_fork && (must_fork || rng_.Chance(0.45))) {
        // Fork a team of 2..3; children run their own (barrier-containing)
        // bodies, then join back.
        const uint32_t span = 2 + static_cast<uint32_t>(rng_.Below(2));
        std::vector<int> child_last;
        // All children share barrier structure: choose barrier count now.
        const int barriers = static_cast<int>(rng_.Below(3));
        for (uint32_t lane = 0; lane < span; lane++) {
          Label child = label.Fork(lane, span);
          int child_node = NewNode();
          AddEdge(node, child_node);  // fork edge
          child_last.push_back(
              GenerateTeamMember(child, child_node, barriers, depth + 1));
        }
        // Team barriers: all-to-all edges are added inside
        // GenerateTeamMember via the shared barrier node trick; see below.
        // Join: children's last intervals precede the parent's continuation.
        label = label.AfterJoin();
        const int cont = NewNode();
        for (int last : child_last) AddEdge(last, cont);
        AddEdge(node, cont);  // program order of the parent
        node = cont;
        Record(label, node);
      }
    }
    return node;
  }

  // A member's body: `barriers` team barriers; nested forks may happen
  // between them. Barrier all-to-all ordering is modeled with one shared
  // rendezvous node per (team fork id, phase): every member's pre-barrier
  // interval -> rendezvous -> every member's post-barrier interval.
  int GenerateTeamMember(Label label, int node, int barriers, int depth) {
    for (int b = 0; b < barriers; b++) {
      // Nested fork before the barrier, sometimes.
      if (depth < 2 && rng_.Chance(0.3) && intervals_.size() < 60) {
        node = ForkNested(label, node, depth);
      }
      const int rendezvous = RendezvousFor(label, b);
      AddEdge(node, rendezvous);
      label = label.AfterBarrier();
      const int next = NewNode();
      AddEdge(rendezvous, next);
      node = next;
      Record(label, node);
    }
    if (depth < 2 && rng_.Chance(0.3) && intervals_.size() < 60) {
      node = ForkNested(label, node, depth);
    }
    return node;
  }

  int ForkNested(Label& label, int node, int depth) {
    const uint32_t span = 2;
    std::vector<int> child_last;
    for (uint32_t lane = 0; lane < span; lane++) {
      Label child = label.Fork(lane, span);
      int child_node = NewNode();
      AddEdge(node, child_node);
      child_last.push_back(GenerateTeamMember(child, child_node, 1, depth + 1));
    }
    label = label.AfterJoin();
    const int cont = NewNode();
    for (int last : child_last) AddEdge(last, cont);
    AddEdge(node, cont);
    Record(label, cont);
    return cont;
  }

  /// One rendezvous node per (team identity, barrier ordinal). Team
  /// identity = the label minus lane, i.e. the label's parent prefix plus
  /// span; encoded as the label of lane 0 at phase 0 of that team.
  int RendezvousFor(const Label& member_label, int barrier_ordinal) {
    std::vector<Pair> key_pairs = member_label.pairs();
    key_pairs.back().offset = 0;  // erase the lane
    key_pairs.back().phase = 0;   // erase the phase
    ByteWriter w;
    Label(key_pairs).Serialize(w);
    std::string key(reinterpret_cast<const char*>(w.buffer().data()),
                    w.buffer().size());
    key.append(":").append(std::to_string(barrier_ordinal));
    auto [it, inserted] = rendezvous_.try_emplace(key, 0);
    if (inserted) it->second = NewNode();
    return it->second;
  }

  int NewNode() {
    edges_.emplace_back();
    return static_cast<int>(edges_.size()) - 1;
  }

  void AddEdge(int from, int to) { edges_[static_cast<size_t>(from)].push_back(to); }

  void Record(const Label& label, int node) {
    intervals_.push_back(Interval{label, node});
  }

  void ComputeReachability() {
    const size_t n = edges_.size();
    reach_.assign(n, std::vector<bool>(n, false));
    for (size_t v = 0; v < n; v++) {
      // DFS from v (graphs here are tiny).
      std::vector<int> stack{static_cast<int>(v)};
      while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        for (int next : edges_[static_cast<size_t>(cur)]) {
          if (!reach_[v][static_cast<size_t>(next)]) {
            reach_[v][static_cast<size_t>(next)] = true;
            stack.push_back(next);
          }
        }
      }
    }
  }

  Rng rng_;
  std::vector<Interval> intervals_;
  std::vector<std::vector<int>> edges_;
  std::vector<std::vector<bool>> reach_;
  std::map<std::string, int> rendezvous_;
};

class OslOracleTest : public testing::TestWithParam<int> {};

TEST_P(OslOracleTest, JudgmentMatchesReachability) {
  Structure structure(7000 + static_cast<uint64_t>(GetParam()));
  const auto& intervals = structure.intervals();
  ASSERT_GE(intervals.size(), 2u);

  for (size_t i = 0; i < intervals.size(); i++) {
    for (size_t j = i + 1; j < intervals.size(); j++) {
      const auto& a = intervals[i];
      const auto& b = intervals[j];
      if (a.label == b.label) continue;  // same execution point, revisited
      const bool ordered = structure.Ordered(a.node, b.node);
      const bool sequential = Sequential(a.label, b.label);
      EXPECT_EQ(sequential, ordered)
          << "seed " << GetParam() << ": " << a.label.ToString() << " vs "
          << b.label.ToString() << " (oracle " << (ordered ? "ordered" : "concurrent")
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStructures, OslOracleTest, testing::Range(0, 60));

}  // namespace
}  // namespace sword::osl
