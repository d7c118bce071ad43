// Exit-code taxonomy shared by every CLI (cohesion_run, cohesion_merge,
// cohesion_launch, cohesion_replay, cohesion_serve) and the supervisor
// that retries them.
//
// The taxonomy exists for exactly one consumer question: *is retrying this
// invocation, unchanged, able to fix it?* Transient failures (I/O: disk
// full, unreadable input file, torn journal write) can vanish on a retry;
// permanent failures (malformed spec, unknown registry key, fingerprint
// mismatch, invalid merge) reproduce deterministically, so a supervisor
// must re-classify them as operator problems instead of burning its retry
// budget. Documented for operators in docs/experiments.md ("Exit codes")
// and docs/operations.md.
#pragma once

#include <signal.h>

#include <atomic>
#include <iostream>
#include <stdexcept>

namespace cohesion::run {

enum ExitCode : int {
  kExitSuccess = 0,      ///< every run executed; report written
  kExitPermanent = 1,    ///< deterministic failure — retrying cannot fix it
  kExitUsage = 2,        ///< bad command line
  kExitTransient = 3,    ///< environmental I/O failure — retrying may fix it
  kExitInterrupted = 4,  ///< SIGTERM/SIGINT: journal flushed, resumable
  kExitTransientNetwork = 5,  ///< peer unreachable/refused/reset — retrying may fix it
};

/// Thrown for failures of the environment (open/write/fsync/truncate), as
/// opposed to failures of the input. CLIs map it to kExitTransient; plain
/// std::runtime_error maps to kExitPermanent.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when a network peer is unreachable (connection refused/reset,
/// lookup failure, send/recv timeout): a distinct transient cause, because
/// the right response differs — a worker that cannot reach its daemon
/// should keep retrying the *connect* under backoff (the daemon may be
/// restarting), not relaunch its whole invocation. CLIs map it to
/// kExitTransientNetwork; it is-a TransientError, so code that only
/// distinguishes transient-vs-permanent keeps working.
struct TransientNetworkError : TransientError {
  using TransientError::TransientError;
};

/// The one exception-to-exit mapping every tool's main routes through:
/// returns what `body` returns, or turns what escapes it into one stderr
/// line prefixed with `tool` and the taxonomy's code — TransientNetworkError
/// 5, TransientError 3, anything else 1.
template <class Body>
int run_main(const char* tool, Body&& body) {
  try {
    return body();
  } catch (const TransientNetworkError& e) {
    std::cerr << tool << ": " << e.what()
              << " (transient network — the daemon may be down or restarting; retrying "
                 "may succeed)\n";
    return kExitTransientNetwork;
  } catch (const TransientError& e) {
    std::cerr << tool << ": " << e.what() << " (transient — retrying may succeed)\n";
    return kExitTransient;
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return kExitPermanent;
  }
}

/// Whether a worker that exited with `code` is worth relaunching with the
/// same arguments. Transient (I/O or network) and interrupted exits are;
/// success needs no retry and permanent/usage exits would fail identically
/// again.
[[nodiscard]] inline bool exit_code_retryable(int code) {
  return code == kExitTransient || code == kExitInterrupted || code == kExitTransientNetwork;
}

/// Route SIGTERM and SIGINT to the returned flag, the kExitInterrupted
/// contract: the handler only raises it, and the tool stops at a point of
/// its own choosing (BatchRunner between runs, the slot loop at its next
/// poll), so no journal line is torn by a signal, then flushes and exits 4.
/// SA_RESTART keeps journal writes from failing with EINTR.
inline const std::atomic<bool>& install_stop_flag() {
  static std::atomic<bool> stop{false};
  struct sigaction sa {};
  sa.sa_handler = [](int) { stop.store(true); };
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  return stop;
}

}  // namespace cohesion::run
