// The shared runner lifecycle (serve/runner): the bounded stop and the one
// exit-classification rule. Every stop test runs inside a forked child
// that arms alarm(2), so a stop that blocks fails the test (the child dies
// of SIGALRM) instead of hanging the suite.
#include "serve/runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "run/exit_codes.hpp"

namespace cohesion::serve {
namespace {

namespace fs = std::filesystem;

/// A child that parks until signalled, optionally ignoring SIGTERM; the
/// caller SIGSTOPs it before stopping it. The disposition is set before
/// the fork (and inherited), so no signal can beat it. Only ever called
/// inside a within_alarm child.
::pid_t spawn_sleeper(bool ignore_term) {
  if (ignore_term) ::signal(SIGTERM, SIG_IGN);
  const ::pid_t pid = ::fork();
  if (pid == 0) {
    for (;;) ::pause();
  }
  return pid;
}

/// Runs `body` in a forked child under alarm(seconds) and returns the
/// child's wait status: exit 0 on success, SIGALRM when `body` hung.
template <typename Body>
int within_alarm(unsigned seconds, Body body) {
  const ::pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(seconds);
    ::_exit(body() ? 0 : 1);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// SIGSTOP `pid` and wait until the kernel reports it stopped.
void stop_and_wait(::pid_t pid) {
  ::kill(pid, SIGSTOP);
  int status = 0;
  ::waitpid(pid, &status, WUNTRACED);
}

TEST(RunnerStop, StoppedChildThatHonorsSigtermEndsOnSigtermPromptly) {
  const unsigned bound = static_cast<unsigned>(kRunnerStopGraceSeconds) + 5;
  const int status = within_alarm(bound, [] {
    const ::pid_t sleeper = spawn_sleeper(/*ignore_term=*/false);
    stop_and_wait(sleeper);
    const auto t0 = std::chrono::steady_clock::now();
    const int st = stop_process(sleeper);
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // SIGCONT let the pending SIGTERM act: no SIGKILL, no grace wait.
    const bool reaped = ::waitpid(sleeper, nullptr, WNOHANG) < 0 && errno == ECHILD;
    return WIFSIGNALED(st) && WTERMSIG(st) == SIGTERM && took < kRunnerStopGraceSeconds &&
           reaped;
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << (WIFSIGNALED(status) ? "stop hung (signal " + std::to_string(WTERMSIG(status)) + ")"
                              : "stop returned the wrong status or left the child unreaped");
}

TEST(RunnerStop, StoppedChildThatIgnoresSigtermIsKilledAfterTheGrace) {
  const unsigned bound = static_cast<unsigned>(kRunnerStopGraceSeconds) + 5;
  const int status = within_alarm(bound, [] {
    const ::pid_t sleeper = spawn_sleeper(/*ignore_term=*/true);
    stop_and_wait(sleeper);
    const int st = stop_process(sleeper);
    const bool reaped = ::waitpid(sleeper, nullptr, WNOHANG) < 0 && errno == ECHILD;
    return WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL && reaped;
  });
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << (WIFSIGNALED(status) ? "stop hung (signal " + std::to_string(WTERMSIG(status)) + ")"
                              : "stop returned the wrong status or left the child unreaped");
}

/// A wait status as waitpid would report it for `code` / `sig`.
int exited(int code) {
  const ::pid_t pid = ::fork();
  if (pid == 0) ::_exit(code);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

int signalled(int sig) {
  const ::pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(RunnerExitRule, ClassifiesExitsOneWay) {
  const std::string dir = std::string(::testing::TempDir()) + "runner_exit_rule";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerLaunch launch;
  launch.stem = dir + "/s";
  launch.shard = 1;
  launch.of = 3;

  EXPECT_TRUE(classify_exit(exited(run::kExitSuccess), launch).covered);

  const RunnerExit killed = classify_exit(signalled(SIGKILL), launch);
  EXPECT_FALSE(killed.covered);
  EXPECT_TRUE(run::exit_code_retryable(killed.exit_code));
  EXPECT_EQ(killed.reason, "killed by signal 9");

  const RunnerExit interrupted = classify_exit(exited(run::kExitInterrupted), launch);
  EXPECT_FALSE(interrupted.covered);
  EXPECT_EQ(interrupted.exit_code, run::kExitInterrupted);

  // Exit 1 covers the shard only with this shard's partial report.
  EXPECT_FALSE(classify_exit(exited(run::kExitPermanent), launch).covered);
  std::ofstream(launch.stem + ".partial.json")
      << R"({"format": "cohesion-partial-report/1", "shard": {"index": 1, "count": 3}})";
  EXPECT_TRUE(classify_exit(exited(run::kExitPermanent), launch).covered);
  launch.shard = 2;
  EXPECT_FALSE(classify_exit(exited(run::kExitPermanent), launch).covered);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cohesion::serve
