// Unit tests for the CLI flag parser.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

#include "../tools/cli_args.hpp"
#include "util/error.hpp"

namespace {

using acclaim::cli::Args;
using acclaim::cli::split_csv;

Args parse(std::vector<std::string> tokens, const std::vector<std::string>& known) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  return Args(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(CliArgs, ParsesFlagValuePairs) {
  const Args args = parse({"--nodes", "32", "--out", "x.csv"}, {"nodes", "out", "ppn"});
  EXPECT_TRUE(args.has("nodes"));
  EXPECT_FALSE(args.has("ppn"));
  EXPECT_EQ(args.get("out"), "x.csv");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("nodes", 1), 32);
  EXPECT_EQ(args.get_int("ppn", 16), 16);
  EXPECT_EQ(args.require_flag("out"), "x.csv");
}

TEST(CliArgs, NumericAndByteConversions) {
  const Args args = parse({"--speedup", "1.05", "--msg", "64K"}, {"speedup", "msg"});
  EXPECT_DOUBLE_EQ(args.get_double("speedup", 0.0), 1.05);
  EXPECT_EQ(args.get_bytes("msg", 0), 65536u);
  EXPECT_EQ(args.get_bytes("other", 128), 128u);
}

// Regression: malformed numeric flag values used to reach std::stoi/std::stod
// unguarded — "--threads 4x" silently parsed as 4, and "--threads abc" threw
// a raw std::invalid_argument that bypassed the CLI's error handler and
// aborted. Every malformed value must now produce one InvalidArgument naming
// the flag and the offending value.
TEST(CliArgs, RejectsTrailingGarbageInIntFlags) {
  const Args args = parse({"--threads", "4x"}, {"threads"});
  try {
    args.get_int("threads", 1);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
  }
}

TEST(CliArgs, RejectsNonNumericIntFlags) {
  const Args args = parse({"--nodes", "abc", "--ppn", ""}, {"nodes", "ppn"});
  EXPECT_THROW(args.get_int("nodes", 1), acclaim::InvalidArgument);
  EXPECT_THROW(args.get_int("ppn", 1), acclaim::InvalidArgument);
}

TEST(CliArgs, RejectsOutOfRangeIntFlags) {
  const Args args = parse({"--seed", "99999999999999999999"}, {"seed"});
  EXPECT_THROW(args.get_int("seed", 1), acclaim::InvalidArgument);
}

// Regression: `acclaim serve --cache-capacity -1` cast -1 to a size_t, which
// left the daemon's decision cache without a memory bound, and 0 silently
// became the cache's minimum. Both are now usage errors naming the flag.
TEST(CliArgs, PositiveIntFlagsRejectZeroAndNegatives) {
  for (const char* bad : {"-1", "0"}) {
    const Args args = parse({"--cache-capacity", bad}, {"cache-capacity"});
    try {
      args.get_positive_int("cache-capacity", 8);
      FAIL() << "expected InvalidArgument for " << bad;
    } catch (const acclaim::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--cache-capacity"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(parse({"--cache-capacity", "16"}, {"cache-capacity"})
                .get_positive_int("cache-capacity", 8),
            16);
  EXPECT_EQ(parse({}, {"cache-capacity"}).get_positive_int("cache-capacity", 8), 8);
}

TEST(CliArgs, RejectsMalformedDoubleFlags) {
  const Args args =
      parse({"--speedup", "1.5x", "--training", "oops"}, {"speedup", "training"});
  EXPECT_THROW(args.get_double("speedup", 1.0), acclaim::InvalidArgument);
  try {
    args.get_double("training", 1.0);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--training"), std::string::npos) << msg;
    EXPECT_NE(msg.find("oops"), std::string::npos) << msg;
  }
}

TEST(CliArgs, WrapsByteParseErrorsWithTheFlagName) {
  const Args args = parse({"--msg", "1BB"}, {"msg"});
  try {
    args.get_bytes("msg", 8);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--msg"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1BB"), std::string::npos) << msg;
  }
}

TEST(CliArgs, StillAcceptsWellFormedNumericValues) {
  const Args args = parse({"--threads", "8", "--speedup", "1.25", "--msg", "4KB"},
                          {"threads", "speedup", "msg"});
  EXPECT_EQ(args.get_int("threads", 1), 8);
  EXPECT_DOUBLE_EQ(args.get_double("speedup", 1.0), 1.25);
  EXPECT_EQ(args.get_bytes("msg", 0), 4096u);
}

TEST(CliArgs, RejectsMalformedInput) {
  EXPECT_THROW(parse({"nodes", "32"}, {"nodes"}), acclaim::InvalidArgument);  // no dashes
  EXPECT_THROW(parse({"--bogus", "1"}, {"nodes"}), acclaim::InvalidArgument);  // unknown
  EXPECT_THROW(parse({"--nodes"}, {"nodes"}), acclaim::InvalidArgument);  // missing value
  const Args args = parse({"--nodes", "2"}, {"nodes", "out"});
  try {
    args.require_flag("out");
    FAIL() << "expected throw";
  } catch (const acclaim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--out"), std::string::npos);
  }
}

// Regression: `--threads` had no upper bound, so `acclaim tune-job
// --threads 2000000000` asked the pool for that many workers. The flag is
// now rejected with exit 1 before any work starts: no rules file is
// written and the error line is all the command prints.
TEST(CliBinary, TuneJobRejectsThreadsAboveTheCapBeforeAnyWork) {
  const std::filesystem::path rules =
      std::filesystem::path(::testing::TempDir()) / "cli_threads_cap_rules.json";
  std::filesystem::remove(rules);
  const std::string cmd = std::string(ACCLAIM_CLI) +
                          " tune-job --machine tiny --nodes 4 --ppn 4 --collectives bcast"
                          " --threads 5000 --rules " +
                          rules.string() + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 256> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    output += buf.data();
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_EQ(output.rfind("error: ", 0), 0u) << output;
  EXPECT_EQ(output.find('\n'), output.size() - 1) << output;
  EXPECT_NE(output.find("5000"), std::string::npos) << output;
  EXPECT_NE(output.find("1024"), std::string::npos) << output;
  EXPECT_FALSE(std::filesystem::exists(rules));
}

TEST(CliArgs, SplitCsv) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("bcast"), (std::vector<std::string>{"bcast"}));
  EXPECT_EQ(split_csv(",a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_csv("").empty());
}

}  // namespace
