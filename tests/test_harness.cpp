// Tests for src/harness: configuration plumbing, measurement sanity, and
// the knobs the benches rely on (codec selection, buffer size, offline
// threads, trace-dir pinning, geometric mean).
#include <gtest/gtest.h>

#include "common/fsutil.h"
#include "harness/harness.h"
#include "workloads/workload.h"

namespace sword {
namespace {

using harness::GeometricMean;
using harness::RunByName;
using harness::RunConfig;
using harness::RunResult;
using harness::ToolKind;
using harness::ToolName;

TEST(Harness, ToolNames) {
  EXPECT_STREQ(ToolName(ToolKind::kBaseline), "baseline");
  EXPECT_STREQ(ToolName(ToolKind::kArcher), "archer");
  EXPECT_STREQ(ToolName(ToolKind::kArcherLow), "archer-low");
  EXPECT_STREQ(ToolName(ToolKind::kSword), "sword");
}

TEST(Harness, UnknownWorkloadIsNotFound) {
  RunConfig config;
  const auto result = RunByName("drb", "no-such-kernel", config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST(Harness, SwordRunPopulatesAllMetrics) {
  RunConfig config;
  config.tool = ToolKind::kSword;
  config.params.threads = 4;
  const auto result = RunByName("drb", "truedep1-orig-yes", config);
  ASSERT_TRUE(result.ok());
  const RunResult& r = result.value();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.dynamic_seconds, 0.0);
  EXPECT_GT(r.offline_seconds, 0.0);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.log_bytes_on_disk, 0u);
  EXPECT_EQ(r.trace_threads, 4u);
  EXPECT_GT(r.baseline_bytes, 0u);
  // N * (2 MB buffer + 1.31 MB aux).
  EXPECT_EQ(r.tool_peak_bytes, 4u * (2 * 1024 * 1024 + 1340 * 1024));
  EXPECT_EQ(r.races, 1u);
  EXPECT_GT(r.analysis.trees_built, 0u);
}

TEST(Harness, RunOfflineFalseSkipsAnalysis) {
  RunConfig config;
  config.tool = ToolKind::kSword;
  config.params.threads = 2;
  config.run_offline = false;
  const auto result = RunByName("drb", "truedep1-orig-yes", config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().races, 0u);  // never analyzed
  EXPECT_EQ(result.value().offline_seconds, 0.0);
}

TEST(Harness, TraceDirPinningLeavesFilesBehind) {
  TempDir dir("harness-pin");
  RunConfig config;
  config.tool = ToolKind::kSword;
  config.params.threads = 2;
  config.trace_dir = dir.path();
  const auto result = RunByName("drb", "truedep1-orig-yes", config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(FileExists(dir.File("sword_t0.log")));
  EXPECT_TRUE(FileExists(dir.File("sword_t0.meta")));
  EXPECT_TRUE(FileExists(dir.File("sword_t1.log")));
}

TEST(Harness, BufferSizeKnobChangesFlushCount) {
  RunConfig small;
  small.tool = ToolKind::kSword;
  small.params.threads = 2;
  small.buffer_bytes = 4 * 1024;
  small.run_offline = false;
  RunConfig large = small;
  large.buffer_bytes = 4 * 1024 * 1024;
  // c_GraphSearch's random neighbour reads stay one event each under the
  // v3 coalescer, so its trace is large enough to fill small buffers.
  const auto rs = RunByName("ompscr", "c_GraphSearch", small);
  const auto rl = RunByName("ompscr", "c_GraphSearch", large);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_GT(rs.value().flushes, rl.value().flushes);
}

TEST(Harness, CodecKnobIsHonoredAndEquivalent) {
  for (const char* codec : {"raw", "rle", "lzs", "lzf"}) {
    RunConfig config;
    config.tool = ToolKind::kSword;
    config.params.threads = 4;
    config.codec = codec;
    const auto result = RunByName("drb", "plusplus-orig-yes", config);
    ASSERT_TRUE(result.ok()) << codec;
    ASSERT_TRUE(result.value().status.ok()) << codec;
    EXPECT_EQ(result.value().races, 2u) << codec;  // codec-independent
  }
}

TEST(Harness, OfflineThreadsProduceSameRaces) {
  for (uint32_t threads : {1u, 4u}) {
    RunConfig config;
    config.tool = ToolKind::kSword;
    config.params.threads = 8;
    config.offline_threads = threads;
    const auto result = RunByName("hpc", "AMG2013_10", config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().races, 14u) << threads << " offline threads";
  }
}

TEST(Harness, ArcherCapFlagReachesTheTool) {
  RunConfig config;
  config.tool = ToolKind::kArcher;
  config.params.threads = 2;
  config.archer_memory_cap = 1024;  // absurdly small: everything OOMs
  const auto result = RunByName("drb", "indep-loop-no", config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().oom);
  EXPECT_EQ(result.value().status.code(), ErrorCode::kOutOfMemory);
}

TEST(Harness, GeometricMeanBasics) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 4.0}), 4.0);
  EXPECT_NEAR(GeometricMean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_EQ(GeometricMean({}), 0.0);
}

TEST(Harness, BackToBackRunsAreIndependent) {
  // Alternating tools on the same workload must give stable results (no
  // cross-run contamination through the runtime, pool, or TLS).
  for (int round = 0; round < 3; round++) {
    RunConfig sword_config;
    sword_config.tool = ToolKind::kSword;
    sword_config.params.threads = 4;
    RunConfig archer_config;
    archer_config.tool = ToolKind::kArcher;
    archer_config.params.threads = 4;
    EXPECT_EQ(RunByName("drb", "nowait-orig-yes", sword_config).value().races, 1u);
    EXPECT_EQ(RunByName("drb", "nowait-orig-yes", archer_config).value().races, 0u);
  }
}

}  // namespace
}  // namespace sword
