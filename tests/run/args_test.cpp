// run::Args, the declarative command line behind every front end: flags
// read into typed variables whose values are the defaults, whole-token
// numbers, the first problem in argv order (naming the flag and, for an
// unknown one, the nearest declared flag), per-mode flags, and the usage
// text generated from the declarations. The process-level table over the
// six front ends is tests/integration/cli_misuse_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "run/args.hpp"

namespace cohesion::run {
namespace {

/// A small front end over `argv` (the tool name is prepended).
struct Cli {
  std::size_t threads = 1;
  double rate = 0.5;
  std::string out;
  bool quiet = false;
  std::vector<std::string> faults;
  std::string spec;
  std::string problem;

  explicit Cli(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "tool");
    Args args(static_cast<int>(argv.size()), argv.data(), "tool");
    args.read("--threads N", threads, "worker threads");
    args.read("--rate X", rate, "a rate");
    args.read("--out FILE", out, "report file");
    args.read("--quiet", quiet, "no chatter");
    args.read("--fault F", faults, "repeatable");
    args.operand("SPEC", spec, "the spec");
    problem = args.check();
  }
};

TEST(Args, ReadsFlagsOperandsAndDefaults) {
  const Cli given({"--threads", "4", "spec.json", "--quiet", "--fault", "a", "--out", "r.json",
                   "--fault", "b", "--threads", "8", "--rate", "-2.5e-1"});
  EXPECT_EQ(given.problem, "");
  EXPECT_EQ(given.threads, 8u);  // given twice: the last wins
  EXPECT_EQ(given.rate, -0.25);
  EXPECT_EQ(given.out, "r.json");
  EXPECT_TRUE(given.quiet);
  EXPECT_EQ(given.faults, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(given.spec, "spec.json");

  const Cli defaults({"spec.json"});
  EXPECT_EQ(defaults.problem, "");
  EXPECT_EQ(defaults.threads, 1u);
  EXPECT_EQ(defaults.rate, 0.5);
  EXPECT_EQ(defaults.out, "");
  EXPECT_FALSE(defaults.quiet);
  EXPECT_TRUE(defaults.faults.empty());
}

TEST(Args, EachMalformedValueNamesTheFlag) {
  for (const char* bad : {"2x", "1e3", "-1", "+1", " 1", "", "18446744073709551616"}) {
    EXPECT_EQ(Cli({"spec.json", "--threads", bad}).problem,
              "bad value for --threads: " + std::string(bad) + " (expected an unsigned integer)")
        << bad;
  }
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "0x10", "2x", "1,5"}) {
    EXPECT_EQ(Cli({"spec.json", "--rate", bad}).problem,
              "bad value for --rate: " + std::string(bad) + " (expected a finite number)")
        << bad;
  }
}

TEST(Args, ReportsTheFirstProblemInArgvOrder) {
  EXPECT_EQ(Cli({"spec.json", "--threads"}).problem, "--threads needs a value");
  EXPECT_EQ(Cli({"spec.json", "--out", "--quiet"}).problem, "--out needs a value");
  EXPECT_EQ(Cli({"spec.json", "--thread", "2"}).problem,
            "unknown flag --thread (nearest: --threads)");
  EXPECT_EQ(Cli({"spec.json", "--quite"}).problem, "unknown flag --quite (nearest: --quiet)");
  EXPECT_EQ(Cli({"--rate", "x", "--thread", "2", "spec.json"}).problem,
            "bad value for --rate: x (expected a finite number)");
  EXPECT_EQ(Cli({"--quiet"}).problem, "missing SPEC");
  EXPECT_EQ(Cli({"a.json", "b.json"}).problem, "unexpected argument b.json");
}

/// A two-mode front end in the shape of cohesion_serve.
std::string modes(std::vector<const char*> argv, std::string* address = nullptr) {
  argv.insert(argv.begin(), "served");
  Args args(static_cast<int>(argv.size()), argv.data(), "served");
  std::string addr, spec, ledger;
  std::size_t threads = 1;
  args.mode("--listen ADDR", addr, "run the daemon");
  args.read("--ledger FILE", ledger, "job ledger");
  args.mode("--submit SPEC", spec, "enqueue SPEC");
  args.operand("ADDR", addr, "the daemon");
  args.read("--threads N", threads, "threads");
  const std::string problem = args.check();
  if (address) *address = addr;
  return problem;
}

TEST(Args, ModesAdmitOnlyTheirOwnFlags) {
  std::string address;
  EXPECT_EQ(modes({"--submit", "s.json", "unix:/x", "--threads", "2"}, &address), "");
  EXPECT_EQ(address, "unix:/x");
  EXPECT_EQ(modes({"--listen", "unix:/y", "--ledger", "l"}, &address), "");
  EXPECT_EQ(address, "unix:/y");
  EXPECT_EQ(modes({"--submit", "s.json", "unix:/x", "--ledger", "l"}),
            "--ledger is a --listen flag, not a --submit flag");
  EXPECT_EQ(modes({"--listen", "unix:/y", "--threads", "2"}),
            "--threads is a --submit flag, not a --listen flag");
  EXPECT_EQ(modes({"--listen", "unix:/y", "unix:/z"}), "unexpected argument unix:/z");
  EXPECT_EQ(modes({"--submit", "s.json"}), "missing ADDR");
  EXPECT_EQ(modes({"--listen", "a", "--submit", "s", "b"}),
            "--submit cannot be combined with --listen");
  EXPECT_EQ(modes({}), "needs one of --listen, --submit");
}

TEST(Args, UsageIsGeneratedFromTheDeclarations) {
  const char* argv[] = {"tool"};
  Args args(1, argv, "tool");
  std::size_t threads = 1;
  double rate = 0.25;
  std::string out;
  bool quiet = false;
  std::string spec;
  args.read("--threads N", threads, "worker threads");
  args.read("--rate X", rate, "a rate");
  args.read("--out FILE", out, "report file");
  args.read("--quiet", quiet, "no chatter");
  args.operand("SPEC", spec, "the spec", false);
  EXPECT_EQ(args.usage(),
            "usage: tool [SPEC] [flags]\n"
            "\n"
            "  --threads N  worker threads (default 1)\n"
            "  --rate X     a rate (default 0.25)\n"
            "  --out FILE   report file\n"
            "  --quiet      no chatter\n"
            "  SPEC         the spec\n");
  EXPECT_EQ(args.check(), "");  // an optional operand may be absent
}

TEST(ParseWhole, ReadsWholeTokensOnly) {
  std::uint16_t port = 7;
  EXPECT_TRUE(parse_whole("65535", port));
  EXPECT_EQ(port, 65535);
  EXPECT_FALSE(parse_whole("65536", port));  // overflow leaves the target alone
  EXPECT_EQ(port, 65535);
  std::size_t n = 0;
  EXPECT_TRUE(parse_whole("18446744073709551615", n));
  EXPECT_FALSE(parse_whole("18446744073709551616", n));
  EXPECT_FALSE(parse_whole("12 ", n));
  double d = 0;
  EXPECT_TRUE(parse_whole("1e3", d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_FALSE(parse_whole("1e3x", d));
}

}  // namespace
}  // namespace cohesion::run
