// Integration tests for the CLI tools and the report renderers: a SWORD
// trace is collected in-process, then sword-offline / sword-dump are spawned
// on it as separate processes - exercising the paper's deployment shape
// (collection on the compute node, analysis elsewhere).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "common/fsutil.h"
#include "core/sword_tool.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "oracle/journal_v4.h"
#include "somp/instr.h"
#include "somp/runtime.h"

namespace sword {
namespace {

/// Runs a command, captures stdout, returns {exit_code, output}.
std::pair<int, std::string> RunCommand(const std::string& command) {
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return {-1, ""};
  while (fgets(buffer.data(), buffer.size(), pipe)) output += buffer.data();
  const int rc = pclose(pipe);
  return {WEXITSTATUS(rc), output};
}

std::string ToolPath(const std::string& name) {
  // ctest runs the test binary from build/tests; the tools live in
  // build/src/tools.
  return "../src/tools/" + name;
}

bool ToolsAvailable() { return FileExists(ToolPath("sword-offline")); }

class ToolsTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!ToolsAvailable()) {
      GTEST_SKIP() << "CLI tools not found relative to test cwd";
    }
    // Collect a small racy trace.
    core::SwordConfig config;
    config.out_dir = dir_.path();
    core::SwordTool tool(config);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    double x = 0.0;
    somp::Parallel(2, [&](somp::Ctx& ctx) {
      if (ctx.thread_num() == 0) instr::store(x, 1.0);
      else (void)instr::load(x);
    });
    ASSERT_TRUE(tool.Finalize().ok());
    somp::Runtime::Get().Configure({});
  }

  TempDir dir_{"tools-test"};
};

TEST_F(ToolsTest, OfflineToolFindsTheRace) {
  const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " " + dir_.path());
  EXPECT_EQ(rc, 2) << out;  // 2 = races found
  EXPECT_NE(out.find("1 data race(s)"), std::string::npos) << out;
}

TEST_F(ToolsTest, OfflineToolJsonOutputParses) {
  const auto [rc, out] =
      RunCommand(ToolPath("sword-offline") + " " + dir_.path() + " --json");
  EXPECT_EQ(rc, 2) << out;
  EXPECT_EQ(out.find("{\"races\":[{"), 0u) << out;
  EXPECT_TRUE(out.find("\"write1\":true") != std::string::npos ||
              out.find("\"write2\":true") != std::string::npos)
      << out;
  EXPECT_NE(out.find("\"stats\":{"), std::string::npos) << out;
}

TEST_F(ToolsTest, OfflineToolStatsAndThreads) {
  const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " " + dir_.path() +
                                    " --stats --threads 4");
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("interval trees built"), std::string::npos) << out;
}

TEST_F(ToolsTest, DumpToolPrintsTableIColumns) {
  const auto [rc, out] =
      RunCommand(ToolPath("sword-dump") + " " + dir_.path() + " --events");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("pid=0"), std::string::npos) << out;
  EXPECT_NE(out.find("span=2"), std::string::npos) << out;
  EXPECT_NE(out.find("write size=8"), std::string::npos) << out;
}

TEST_F(ToolsTest, DumpToolRendersRunEvents) {
  // A strided sweep coalesces into kAccessRun events (format v3); --events
  // must render them as one run line, not N access lines.
  TempDir dir("tools-run-events");
  core::SwordConfig config;
  config.out_dir = dir.path();
  core::SwordTool tool(config);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  std::vector<uint64_t> data(2 * 64);
  somp::Parallel(2, [&](somp::Ctx& ctx) {
    for (int i = 0; i < 64; i++) {
      instr::store(data[ctx.thread_num() * 64 + i], uint64_t{1});
    }
  });
  ASSERT_TRUE(tool.Finalize().ok());
  somp::Runtime::Get().Configure({});

  const auto [code, out] =
      RunCommand(ToolPath("sword-dump") + " " + dir.path() + " --events");
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("write run base=0x"), std::string::npos) << out;
  EXPECT_NE(out.find("stride=8 count=64"), std::string::npos) << out;
  EXPECT_NE(out.find("format v3"), std::string::npos) << out;
}

TEST_F(ToolsTest, OfflineToolRejectsBadInput) {
  // Exit-code contract: 4 = I/O/analysis failure, 1 = usage error.
  const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " /nonexistent-dir");
  EXPECT_EQ(rc, 4) << out;
  const auto [rc2, out2] =
      RunCommand(ToolPath("sword-offline") + " " + dir_.path() + " --bogus-flag");
  EXPECT_EQ(rc2, 1) << out2;
}

TEST_F(ToolsTest, OfflineToolValidatesFlagCombinations) {
  // Misconfigurations die with a usage error (1) before touching the trace.
  const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " " + dir_.path() +
                                    " --shard 2 --shards 2");
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("--shard must be in [0, --shards)"), std::string::npos) << out;

  const auto [rc2, out2] =
      RunCommand(ToolPath("sword-offline") + " " + dir_.path() + " --threads 0");
  EXPECT_EQ(rc2, 1) << out2;
  EXPECT_NE(out2.find("--threads must be >= 1"), std::string::npos) << out2;

  const auto [rc3, out3] =
      RunCommand(ToolPath("sword-offline") + " " + dir_.path() + " --engine qp");
  EXPECT_EQ(rc3, 1) << out3;

  // --resume with no journal on disk is an I/O failure (4), not usage: the
  // flags are fine, the state is missing.
  const auto [rc4, out4] =
      RunCommand(ToolPath("sword-offline") + " " + dir_.path() + " --resume");
  EXPECT_EQ(rc4, 4) << out4;
  EXPECT_NE(out4.find("no journal"), std::string::npos) << out4;
}

TEST_F(ToolsTest, OfflineToolJournalAndResumeMatchCleanRun) {
  const std::string base = ToolPath("sword-offline") + " " + dir_.path();
  const auto [rc_clean, out_clean] = RunCommand(base);
  EXPECT_EQ(rc_clean, 2) << out_clean;

  // Journal a run, then resume it: every bucket replays, and the report is
  // byte-identical to the clean run (the journal adds nothing to stdout).
  const auto [rc_j, out_j] = RunCommand(base + " --journal");
  EXPECT_EQ(rc_j, 2) << out_j;
  EXPECT_EQ(out_j, out_clean);
  EXPECT_TRUE(FileExists(dir_.path() + "/sword_analysis_0of1.journal"));

  const auto [rc_r, out_r] = RunCommand(base + " --resume");
  EXPECT_EQ(rc_r, 2) << out_r;
  EXPECT_EQ(out_r, out_clean);
}

TEST_F(ToolsTest, OfflineToolRefusesResumeAcrossSalvageModes) {
  // The journal header binds the salvage policy (journal v3). Resuming a
  // strict journal with --salvage (or the reverse) is a usage error caught
  // BEFORE the store opens - the two modes' buckets are not interchangeable.
  const std::string base = ToolPath("sword-offline") + " " + dir_.path();
  const auto [rc_j, out_j] = RunCommand(base + " --journal");
  EXPECT_EQ(rc_j, 2) << out_j;

  const auto [rc, out] = RunCommand(base + " --resume --salvage");
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("silently diverge"), std::string::npos) << out;

  // The matching mode still resumes fine afterwards - the refusal did not
  // damage the journal.
  const auto [rc_ok, out_ok] = RunCommand(base + " --resume");
  EXPECT_EQ(rc_ok, 2) << out_ok;
}

TEST_F(ToolsTest, OfflineToolRefusesResumeAcrossDedupModes) {
  // The journal binds --no-dedup the same way it binds the salvage policy:
  // a journal written with dedup on must not replay under --no-dedup, nor
  // the reverse.
  const std::string base = ToolPath("sword-offline") + " " + dir_.path();
  const auto [rc_j, out_j] = RunCommand(base + " --journal");
  EXPECT_EQ(rc_j, 2) << out_j;

  const auto [rc, out] = RunCommand(base + " --resume --no-dedup");
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("mismatched statistics"), std::string::npos) << out;

  const auto [rc_ok, out_ok] = RunCommand(base + " --resume");
  EXPECT_EQ(rc_ok, 2) << out_ok;

  const auto [rc_nd, out_nd] = RunCommand(base + " --journal --no-dedup");
  EXPECT_EQ(rc_nd, 2) << out_nd;
  const auto [rc_rev, out_rev] = RunCommand(base + " --resume");
  EXPECT_EQ(rc_rev, 1) << out_rev;
  EXPECT_NE(out_rev.find("mismatched statistics"), std::string::npos)
      << out_rev;
}

TEST_F(ToolsTest, OfflineToolRefusesVersion4Journal) {
  // A journal from before the v5 header (which dropped three retired knob
  // bytes) is an analysis failure naming the version, not a usage error.
  ASSERT_TRUE(WriteFile(dir_.path() + "/sword_analysis_0of1.journal",
                        oracle::JournalV4File(offline::JournalHeader{}))
                  .ok());
  const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " " +
                                    dir_.path() + " --resume");
  EXPECT_EQ(rc, 4) << out;
  EXPECT_NE(out.find("journal version 4"), std::string::npos) << out;
}

TEST_F(ToolsTest, OfflineToolRejectsRetiredAblationFlags) {
  // No option answers to these names: they fail as unknown flags (exit 1),
  // before the trace is touched.
  for (const char* flag : {"--no-stream", "--no-sweep", "--no-symbolic"}) {
    const auto [rc, out] = RunCommand(ToolPath("sword-offline") + " " +
                                      dir_.path() + " " + flag);
    EXPECT_EQ(rc, 1) << flag << ": " << out;
    EXPECT_NE(out.find(std::string("unknown flag ") + flag), std::string::npos)
        << flag << ": " << out;
  }
}

TEST_F(ToolsTest, RunToolListsAndRuns) {
  const auto [rc, out] = RunCommand(ToolPath("sword-run") + " --list");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("nowait-orig-yes"), std::string::npos);
  EXPECT_NE(out.find("AMG2013_40"), std::string::npos);

  const auto [rc2, out2] = RunCommand(
      ToolPath("sword-run") +
      " --suite drb --name truedep1-orig-yes --tool archer --threads 4");
  EXPECT_EQ(rc2, 2) << out2;  // 2 = races found
  EXPECT_NE(out2.find("races:           1"), std::string::npos) << out2;
}

TEST(ReportRender, TextAndJsonFromInProcessAnalysis) {
  TempDir dir("report-test");
  core::SwordConfig config;
  config.out_dir = dir.path();
  {
    core::SwordTool tool(config);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    int64_t c = 0;
    somp::Parallel(2, [&](somp::Ctx&) { instr::racy_increment(c); });
    ASSERT_TRUE(tool.Finalize().ok());
    somp::Runtime::Get().Configure({});
  }
  auto store = offline::TraceStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok());
  const auto result = offline::Analyze(store.value());
  auto namer = [](uint32_t pc) { return "site" + std::to_string(pc); };

  const std::string text = offline::RenderText(result, namer);
  EXPECT_NE(text.find("1 data race(s)"), std::string::npos);
  const std::string json = offline::RenderJson(result, namer);
  EXPECT_NE(json.find("\"loc1\":\"site"), std::string::npos);
  EXPECT_NE(json.find("\"raw_events\":"), std::string::npos);
}

}  // namespace
}  // namespace sword
