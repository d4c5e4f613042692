// Figure 4 demonstration: interleaved strided accesses whose summarized
// intervals OVERLAP AS RANGES but share no byte - a naive range check would
// report a false race; the exact closed-form overlap check stays silent.
//
// Two threads update interleaved 4-byte lanes of a packed array (stride 8),
// a classic SoA/red-black pattern. A third phase introduces one genuine
// collision so the exact check is shown firing too.
//
//   $ ./examples/strided_stencil
#include <cstdio>

#include "common/fsutil.h"
#include "core/sword_tool.h"
#include "ilp/overlap.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "somp/srcloc.h"

using namespace sword;

int main() {
  // Packed pairs: slot 2k belongs to thread 0, slot 2k+1 to thread 1.
  constexpr int64_t kPairs = 512;
  std::vector<float> packed(2 * kPairs, 0.0f);
  float collision = 0.0f;

  TempDir trace_dir("stencil");
  core::SwordConfig config;
  config.out_dir = trace_dir.path();
  core::SwordTool tool(config);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().Configure(rc);

  somp::Parallel(2, [&](somp::Ctx& ctx) {
    const uint32_t lane = ctx.thread_num();
    // Interleaved 4-byte writes at stride 8: ranges overlap, bytes never do.
    for (int64_t k = 0; k < kPairs; k++) {
      instr::store(packed[static_cast<size_t>(2 * k) + lane],
                   static_cast<float>(k + lane));
    }
    // One genuine conflict so the report is not empty.
    instr::store(collision, 1.0f);
  });
  (void)tool.Finalize();
  somp::Runtime::Get().Configure({});

  // First show the raw geometry, as in the paper's Fig. 4 / SIII-B example.
  const uint64_t base = reinterpret_cast<uint64_t>(packed.data());
  ilp::StridedInterval t0{base, 8, kPairs, 4};
  ilp::StridedInterval t1{base + 4, 8, kPairs, 4};
  std::printf("thread 0 interval: [%llu..%llu] stride 8, size 4\n",
              (unsigned long long)t0.lo(), (unsigned long long)t0.hi());
  std::printf("thread 1 interval: [%llu..%llu] stride 8, size 4\n",
              (unsigned long long)t1.lo(), (unsigned long long)t1.hi());
  std::printf("ranges touch:        %s\n", ilp::RangesTouch(t0, t1) ? "YES" : "no");
  std::printf("exact intersection:  %s\n",
              ilp::Intersect(t0, t1) ? "YES" : "no (disjoint strided lanes)");

  auto store = offline::TraceStore::OpenDir(trace_dir.path());
  if (!store.ok()) return 1;
  const offline::AnalysisResult result = offline::Analyze(store.value());
  auto pc_name = [](uint32_t pc) { return somp::LookupSrcLoc(pc).ToString(); };

  std::printf("\noffline analysis: %llu candidate node pairs survived the range "
              "query,\n%llu got an exact overlap decision, races reported: %zu\n",
              (unsigned long long)result.stats.node_pairs_ranged,
              (unsigned long long)result.stats.fastpath_hits, result.races.size());
  for (const RaceReport& race : result.races.reports()) {
    std::printf("  %s\n", race.ToString(pc_name).c_str());
  }
  // Exactly the intentional collision; the strided lanes are exonerated.
  return result.races.size() == 1 ? 0 : 1;
}
