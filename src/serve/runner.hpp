// One lifecycle for a `cohesion_run <spec> --shard i/N --resume <journal>`
// runner process, shared by the two front ends of serve::JobTable: the
// networked worker (serve/worker) and the in-process supervisor behind
// cohesion_launch (run/supervisor). Start, watch, classify and stop exist
// here once:
//
//   * spawn: fork/exec the runner with the standard arguments, stdout and
//     stderr appended to <stem>.log, any stale <stem>.partial.json removed
//     first (it must never masquerade as coverage);
//   * watch: the heartbeat is the checkpoint journal — its growth (bytes,
//     complete lines) and its complete outcome lines;
//   * classify: exit 0 covers the shard, and so does exit 1 whose partial
//     report is this shard's (in-run errors travel inside the report
//     exactly as in a single process). Everything else is a failure
//     carrying its exit code — run::exit_code_retryable decides transient
//     versus permanent, and a signal death counts as transient. Coverage
//     itself is JobTable's to judge: a "covered" exit whose journal falls
//     short costs one attempt there;
//   * stop: SIGTERM plus SIGCONT, so even a SIGSTOPped runner acts on it
//     and flushes its journal (the exit-4 contract), then SIGKILL once
//     kRunnerStopGraceSeconds have passed. A stop always returns.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"

namespace cohesion::serve {

/// Time a stopped runner gets between SIGTERM and SIGKILL.
inline constexpr double kRunnerStopGraceSeconds = 5.0;

/// The cohesion_run binary next to the current executable — the right
/// default for every CLI and for the test binary, which live in the same
/// build tree as their runners.
std::string sibling_runner();

/// Cheap heartbeat read: journal size and complete-line count, no parsing.
struct JournalStat {
  std::size_t bytes = 0;
  std::size_t outcome_lines = 0;  ///< complete lines minus the header
};

/// SIGTERM + SIGCONT `pid`, wait up to kRunnerStopGraceSeconds, then
/// SIGKILL; always reaps. Returns the wait status.
int stop_process(::pid_t pid);

struct RunnerLaunch {
  std::string runner;     ///< cohesion_run binary
  std::string spec_path;  ///< experiment file the runner reads
  std::size_t shard = 0;  ///< i in --shard i/N
  std::size_t of = 1;     ///< N
  std::string stem;       ///< <stem>.ckpt, <stem>.partial.json, <stem>.log
  std::size_t threads = 1;
  std::size_t throttle_ms = 0;  ///< forwarded as --throttle-ms when > 0
};

/// How a reaped runner ended, in JobTable's terms: complete() when
/// `covered`, otherwise fail(exit_code, reason).
struct RunnerExit {
  bool covered = false;
  int exit_code = 0;
  std::string reason;
};

/// The one exit-classification rule (see file header).
RunnerExit classify_exit(int wait_status, const RunnerLaunch& launch);

/// A live runner. Move-only; destroying one that is still running stops it.
class RunnerProcess {
 public:
  /// Fork/exec. Throws run::TransientError when fork fails.
  static RunnerProcess spawn(const RunnerLaunch& launch);

  RunnerProcess(RunnerProcess&& other) noexcept;
  RunnerProcess& operator=(RunnerProcess&&) = delete;
  ~RunnerProcess();

  [[nodiscard]] ::pid_t pid() const { return pid_; }
  [[nodiscard]] std::string journal() const { return launch_.stem + ".ckpt"; }
  [[nodiscard]] JournalStat stat() const;
  /// Every complete outcome line of the journal (run::read_journal_outcomes).
  [[nodiscard]] std::vector<run::RunOutcome> outcomes() const;

  /// Send `sig` to the runner (fault injection).
  void signal(int sig) const;
  /// Non-blocking reap: the classified exit once the runner has ended.
  std::optional<RunnerExit> poll();
  /// Bounded stop (stop_process), classified.
  RunnerExit stop();

 private:
  RunnerProcess(::pid_t pid, RunnerLaunch launch);

  ::pid_t pid_ = -1;
  RunnerLaunch launch_;
};

}  // namespace cohesion::serve
