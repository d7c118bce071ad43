// One lifecycle for a `cohesion_run <spec> --shard i/N --resume <journal>`
// runner process. Its one user is the runner-slot loop (serve/slots),
// which both front ends of serve::JobTable — cohesion_launch and the
// cohesion_serve worker — hold their leases through. Start, watch,
// classify and stop exist here once:
//
//   * spawn: fork/exec the runner with the standard arguments, stdout and
//     stderr appended to <stem>.log, any stale <stem>.partial.json removed
//     first (it must never masquerade as coverage);
//   * watch: the heartbeat is the checkpoint journal — its growth (bytes,
//     complete lines) and its complete outcome lines, read incrementally
//     by JournalReader;
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
#include <utility>
#include <vector>

#include "run/batch_runner.hpp"

namespace cohesion::serve {

/// Time a stopped runner gets between SIGTERM and SIGKILL.
inline constexpr double kRunnerStopGraceSeconds = 5.0;

/// The cohesion_run binary next to the current executable — the right
/// default for every CLI and for the test binary, which live in the same
/// build tree as their runners.
std::string sibling_runner();

/// What one JournalReader::next() saw.
struct JournalRead {
  bool found = false;             ///< the journal has at least its header line
  std::size_t bytes = 0;          ///< journal size, torn tail included
  std::size_t outcome_lines = 0;  ///< complete lines minus the header, in total
  std::vector<run::RunOutcome> fresh;  ///< outcomes of the lines this call consumed
};

/// Incremental heartbeat view of a live runner's checkpoint journal: each
/// next() reads only what was appended past the last complete line it
/// consumed, so a heartbeat costs O(growth). The header is skipped, a torn
/// tail is left for the next call, and unparseable lines are skipped (the
/// runner's own resume is the authoritative read). A journal shorter than
/// the offset is read again from the start.
class JournalReader {
 public:
  explicit JournalReader(std::string path) : path_(std::move(path)) {}
  JournalRead next();

 private:
  std::string path_;
  std::size_t offset_ = 0;  ///< just past the last complete line consumed
  std::size_t lines_ = 0;   ///< complete lines consumed, header included
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
