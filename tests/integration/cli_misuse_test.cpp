// Command-line misuse across all six front ends, as real processes: a
// value that does not parse in full, a sign on an unsigned flag, a missing
// value and an unknown flag each exit 2 (run::kExitUsage) with a message
// naming the flag, and the nearest declared flag for an unknown one — never
// a run with some other value. Unit layer: tests/run/args_test.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "run/exit_codes.hpp"
#include "support/process.hpp"

namespace cohesion {
namespace {

namespace fs = std::filesystem;

struct FrontEnd {
  const char* binary;
  std::vector<std::string> base;  ///< a valid start: operands, or a mode
  const char* count_flag;         ///< an unsigned integer flag, or nullptr
  const char* value_flag;         ///< a flag that takes a value
  const char* typo;               ///< an undeclared flag ...
  const char* nearest;            ///< ... and the declared one nearest to it
};

TEST(CliMisuse, EveryFrontEndExitsTwoNamingTheFlag) {
  const FrontEnd front_ends[] = {
      {"cohesion_run", {"spec.json"}, "--threads", "--out", "--thread", "--threads"},
      {"cohesion_launch", {"spec.json"}, "--shards", "--work-dir", "--shard", "--shards"},
      {"cohesion_serve", {"--worker", "unix:/nonexistent.sock"}, "--threads", "--runner",
       "--thread", "--threads"},
      {"cohesion_replay", {"run_0.cohtrace"}, nullptr, "--svg", "--svgs", "--svg"},
      {"cohesion_merge", {"p0.json"}, nullptr, "--out", "--outt", "--out"},
      {"example_cohesion_sim", {}, "--n", "--trace", "--seeds", "--seed"},
  };
  const std::string log = ::testing::TempDir() + "cli_misuse.log";
  for (const FrontEnd& fe : front_ends) {
    const std::string binary = test::build_dir() + "/" + fe.binary;
    if (!fs::exists(binary)) {
      // The examples are optional (COHESION_BUILD_EXAMPLES); the tools are not.
      EXPECT_EQ(std::string(fe.binary).rfind("example_", 0), 0u) << binary << " is missing";
      continue;
    }
    struct Case {
      std::vector<std::string> extra;
      std::vector<std::string> named;  ///< each must appear in the message
    };
    std::vector<Case> cases = {
        {{fe.value_flag}, {fe.value_flag, "needs a value"}},
        {{fe.typo, "1"}, {std::string("unknown flag ") + fe.typo,
                          std::string("nearest: ") + fe.nearest}},
    };
    if (fe.count_flag) {
      for (const char* bad : {"2x", "1e3", "-1"}) {
        cases.push_back({{fe.count_flag, bad},
                         {std::string("bad value for ") + fe.count_flag + ": " + bad}});
      }
    }
    for (const Case& c : cases) {
      std::vector<std::string> argv = {binary};
      argv.insert(argv.end(), fe.base.begin(), fe.base.end());
      argv.insert(argv.end(), c.extra.begin(), c.extra.end());
      fs::remove(log);
      EXPECT_EQ(test::run_tool(argv, log), run::kExitUsage) << fe.binary << " " << c.extra[0];
      const std::string message = test::read_file(log);
      for (const std::string& part : c.named) {
        EXPECT_NE(message.find(part), std::string::npos)
            << fe.binary << ": \"" << part << "\" not in: " << message;
      }
    }
  }
}

TEST(CliMisuse, RetryAndLeaseValuesThatBreakASweepExitTwoNamingTheFlag) {
  // These parse as numbers but cannot run a sweep: --max-attempts 0
  // poisons every variant before its first lease, a lease timeout <= 0
  // expires every lease at its first tick, and delays, jitter and
  // intervals are never negative. Launch and the serve daemon share them.
  const struct {
    const char* binary;
    std::vector<std::string> base;
  } tools[] = {{"cohesion_launch", {"spec.json"}},
               {"cohesion_serve", {"--listen", "unix:/nonexistent/serve.sock"}}};
  const struct {
    const char* flag;
    const char* value;
    const char* rule;
  } cases[] = {
      {"--max-attempts", "0", "must be >= 1"},   {"--lease-timeout", "0", "must be > 0"},
      {"--lease-timeout", "-1", "must be > 0"},  {"--backoff-base", "-0.5", "must be >= 0"},
      {"--backoff-max", "-1", "must be >= 0"},   {"--jitter", "-0.1", "must be >= 0"},
      {"--poll-interval", "-1", "must be >= 0"}, {"--status-interval", "-2", "must be >= 0"},
  };
  const std::string log = ::testing::TempDir() + "cli_misuse_retry.log";
  for (const auto& tool : tools) {
    const std::string binary = test::build_dir() + "/" + tool.binary;
    for (const auto& c : cases) {
      std::vector<std::string> argv = {binary};
      argv.insert(argv.end(), tool.base.begin(), tool.base.end());
      argv.insert(argv.end(), {c.flag, c.value});
      fs::remove(log);
      EXPECT_EQ(test::run_tool(argv, log), run::kExitUsage) << tool.binary << " " << c.flag;
      const std::string message = test::read_file(log);
      const std::string named =
          std::string("bad value for ") + c.flag + ": " + c.value + " (" + c.rule + ")";
      EXPECT_NE(message.find(named), std::string::npos)
          << tool.binary << ": \"" << named << "\" not in: " << message;
    }
  }
}

TEST(CliMisuse, ServeAddressThatDoesNotParseExitsTwoNamingTheFlag) {
  // ADDR is read after the flags; a bad port or an empty socket path is
  // misuse, not a failed run.
  const std::string binary = test::build_dir() + "/cohesion_serve";
  const std::string log = ::testing::TempDir() + "cli_misuse_serve.log";
  const struct {
    const char* address;
    const char* named;
  } cases[] = {{"host:99999", "bad port"}, {"unix:", "empty unix socket path"}};
  for (const auto& c : cases) {
    fs::remove(log);
    EXPECT_EQ(test::run_tool({binary, "--status", c.address}, log), run::kExitUsage)
        << c.address;
    const std::string message = test::read_file(log);
    for (const std::string part : {std::string("bad value for --status"), std::string(c.named)}) {
      EXPECT_NE(message.find(part), std::string::npos)
          << "\"" << part << "\" not in: " << message;
    }
  }
}

}  // namespace
}  // namespace cohesion
