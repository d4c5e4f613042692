// Tests for the CLI flag parser and the logging facility.
#include <gtest/gtest.h>

#include "common/args.h"
#include "common/log.h"

namespace sword {
namespace {

ArgParser Parse(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, PositionalAndFlags) {
  ArgParser args = Parse({"input.dir", "--threads", "8", "--json"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.dir");
  EXPECT_EQ(args.GetInt("threads", 1), 8);
  EXPECT_TRUE(args.GetBool("json"));
  EXPECT_FALSE(args.GetBool("stats"));
}

TEST(Args, EqualsSyntax) {
  ArgParser args = Parse({"--codec=lzf", "--size=1024"});
  EXPECT_EQ(args.GetString("codec"), "lzf");
  EXPECT_EQ(args.GetInt("size", 0), 1024);
}

TEST(Args, BareFlagBeforeFlagIsBoolean) {
  // "--json --stats": --json must not swallow "--stats" as its value.
  ArgParser args = Parse({"--json", "--stats"});
  EXPECT_TRUE(args.GetBool("json"));
  EXPECT_TRUE(args.GetBool("stats"));
}

TEST(Args, DefaultsWhenAbsent) {
  ArgParser args = Parse({});
  EXPECT_EQ(args.GetString("name", "fallback"), "fallback");
  EXPECT_EQ(args.GetInt("n", -3), -3);
  EXPECT_TRUE(args.GetBool("on", true));
}

TEST(Args, UnknownFlagDetection) {
  ArgParser args = Parse({"--known", "1", "--typo", "2"});
  (void)args.GetInt("known", 0);
  const auto unknown = args.UnknownFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(Args, BoolValueForms) {
  ArgParser args = Parse({"--a=true", "--b=1", "--c=false"});
  EXPECT_TRUE(args.GetBool("a"));
  EXPECT_TRUE(args.GetBool("b"));
  EXPECT_FALSE(args.GetBool("c"));
}

TEST(Log, LevelsGate) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must compile and be cheap no-ops below the level.
  SWORD_DEBUG() << "invisible " << 42;
  SWORD_INFO() << "invisible";
  SetLogLevel(LogLevel::kOff);
  SWORD_ERROR() << "also invisible";
  SetLogLevel(original);
}

}  // namespace
}  // namespace sword
