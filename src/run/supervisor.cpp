#include "run/supervisor.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/preset.hpp"
#include "serve/job_table.hpp"
#include "serve/runner.hpp"

namespace cohesion::run {

namespace {

using State = ShardStatus::State;

/// The in-process lease host: one JobTable job with one local worker per
/// slot, the steady clock (the table ticks once per poll), and the
/// per-shard narration of what the table made of each ended lease.
class TableHost final : public serve::LeaseHost {
 public:
  TableHost(const SupervisorOptions& options, const ExperimentSpec& experiment)
      : options_(options),
        t0_(std::chrono::steady_clock::now()),
        table_(serve::ServeConfig{.retry = options.retry,
                                  .lease_timeout_seconds = options.lease.timeout_seconds}),
        job_(table_.add_job("", experiment.to_json(), now(), effects_)),
        shards_(std::min(options.shards, std::max<std::size_t>(experiment.variant_count(), 1))),
        total_runs_(experiment.run_count()) {
    for (std::size_t i = 0; i < options.shards; ++i) {
      workers_.push_back(table_.worker_joined("local-" + std::to_string(i)));
    }
  }

  SupervisorResult run() {
    options_.event("supervising " + std::to_string(shards_.size()) + " shards of " +
                   options_.spec_path + " (" + std::to_string(total_runs_) + " runs, max " +
                   std::to_string(options_.retry.max_attempts) + " attempts/shard, lease " +
                   std::to_string(options_.lease.timeout_seconds) + "s)");
    const bool finished = serve::run_slots(*this, options_.shards, options_.max_parallel,
                                           options_.lease.poll_interval_seconds, options_,
                                           options_.stop);
    SupervisorResult r;
    r.shards = shards_;
    r.total_runs = total_runs_;
    r.covered_runs = total_runs_;
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
      r.shards[s].state = table_.shard_state(job_, s);
    }
    if (!finished && !table_.job_terminal(job_)) {
      r.covered_runs = table_.status_json().at("jobs").items().front().uint_or("covered_runs", 0);
      r.exit_code = kExitInterrupted;
      options_.event("interrupted: every runner stopped with its journal flushed (" +
                     std::to_string(r.covered_runs) + "/" + std::to_string(total_runs_) +
                     " runs journaled); rerun with the same --work-dir to resume");
      return r;
    }
    r.complete = table_.job_done(job_);
    r.report = table_.job_report(job_);
    r.exit_code = table_.job_exit_code(job_);
    if (!r.complete) r.covered_runs = r.report.at("covered_runs").as_uint();
    options_.event(r.complete ? "complete: " + std::to_string(total_runs_) + " runs (exit " +
                                    std::to_string(r.exit_code) + ")"
                              : "INCOMPLETE: " + std::to_string(r.covered_runs) + "/" +
                                    std::to_string(total_runs_) +
                                    " runs covered; see uncovered_shards in the partial report");
    return r;
  }

  std::optional<serve::Lease> request(std::size_t slot) override {
    return table_.request_lease(workers_[slot], now(), effects_);
  }

  bool heartbeat(const serve::Lease& lease, std::size_t journal_bytes, std::size_t journal_lines,
                 const std::vector<RunOutcome>& fresh) override {
    if (table_.heartbeat(lease.id, journal_bytes, journal_lines, fresh, now(), effects_)) {
      return true;
    }
    if (!table_.job_terminal(job_)) {
      // Only tick() revokes a local lease: the journal was silent too long.
      // The loop releases the lease right away; settle() says why.
      expired_ = "lease expired (no journal progress for " +
                 std::to_string(options_.lease.timeout_seconds) + "s)";
      options_.event("shard " + std::to_string(lease.shard) + " " + expired_ +
                     "; stopping its runner");
    }
    return false;
  }

  void complete(const serve::Lease& lease, const std::vector<RunOutcome>& outcomes) override {
    table_.complete(lease.id, outcomes, now(), effects_);
    settle(lease, "complete", false);
  }

  void fail(const serve::Lease& lease, int exit_code, const std::string& reason,
            const std::vector<RunOutcome>& outcomes) override {
    table_.fail(lease.id, exit_code, reason, outcomes, now(), effects_);
    settle(lease, reason, !exit_code_retryable(exit_code));
  }

  void release(const serve::Lease& lease, const std::vector<RunOutcome>& outcomes) override {
    table_.release(lease.id, outcomes, now(), effects_);
    settle(lease, expired_.empty() ? "released" : std::exchange(expired_, {}), false);
  }

  bool finished() override {
    table_.tick(now(), effects_);
    effects_ = {};  // narration is the host's own; the table's notes are dropped
    if (now() - last_status_ >= options_.lease.status_interval_seconds) {
      last_status_ = now();
      std::map<State, std::size_t> count;
      for (std::size_t s = 0; s < shards_.size(); ++s) ++count[table_.shard_state(job_, s)];
      const Json status = table_.status_json().at("jobs").items().front();
      options_.event("progress: " + std::to_string(status.uint_or("covered_runs", 0)) + "/" +
                     std::to_string(total_runs_) + " runs; shards " +
                     std::to_string(count[State::done]) + " done, " +
                     std::to_string(count[State::running]) + " running, " +
                     std::to_string(count[State::backoff]) + " backoff, " +
                     std::to_string(count[State::failed]) + " failed; partial aggregate: " +
                     status.at("aggregate").dump());
    }
    return table_.job_terminal(job_);
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

  /// Record the loop's attempt number for the lease's shard and narrate
  /// what the table made of the lease that just ended.
  void settle(const serve::Lease& lease, const std::string& how, bool permanent) {
    const std::size_t s = lease.shard;
    shards_[s].attempts = std::max(shards_[s].attempts, lease.attempt);
    const std::string who = "shard " + std::to_string(s);
    const std::string attempts = std::to_string(lease.attempt);
    switch (table_.shard_state(job_, s)) {
      case State::done:
        options_.event(who + " done (" + how + ", attempt " + attempts + ")");
        break;
      case State::failed:
        options_.event(who + (permanent ? " FAILED permanently: " + how
                                        : " FAILED: retry budget exhausted after " + attempts +
                                              " attempts (last: " + how + ")"));
        break;
      default:
        options_.event(who + " died (" + how + "); retry " +
                       std::to_string(lease.attempt + 1) + "/" +
                       std::to_string(options_.retry.max_attempts) + " after backoff");
    }
  }

  const SupervisorOptions& options_;
  std::chrono::steady_clock::time_point t0_;
  serve::Effects effects_;
  serve::JobTable table_;
  std::uint64_t job_;
  std::vector<std::uint64_t> workers_;  ///< one local worker per slot
  std::vector<ShardStatus> shards_;     ///< the partition's shards
  std::size_t total_runs_;
  double last_status_ = 0.0;
  std::string expired_;  ///< why the last refused heartbeat's lease ended
};

}  // namespace

double RetryPolicy::backoff_seconds(std::size_t shard, std::size_t failed_attempts) const {
  const std::size_t exponent = failed_attempts > 0 ? failed_attempts - 1 : 0;
  double delay = base_delay_seconds * std::pow(multiplier, static_cast<double>(exponent));
  delay = std::min(delay, max_delay_seconds);
  // Seeded jitter: a pure function of (seed, shard, attempt), so backoff
  // schedules are reproducible — asserted in tests — yet differ across
  // shards that died in the same instant.
  std::uint64_t state = jitter_seed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(shard) + 1);
  state ^= 0xBF58476D1CE4E5B9ull * (static_cast<std::uint64_t>(failed_attempts) + 1);
  const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return delay * (1.0 + jitter * u);
}

void read_retry_flags(Args& args, RetryPolicy& retry, LeaseConfig& lease) {
  args.read("--max-attempts K", retry.max_attempts, "launches per shard before giving up");
  args.read("--backoff-base S", retry.base_delay_seconds, "backoff before the 2nd launch");
  args.read("--backoff-max S", retry.max_delay_seconds, "backoff cap before jitter");
  args.read("--jitter F", retry.jitter, "adds up to this fraction of the backoff");
  args.read("--jitter-seed N", retry.jitter_seed, "seed of the jitter draws");
  args.read("--lease-timeout S", lease.timeout_seconds, "journal silence that expires a lease");
  args.read("--poll-interval S", lease.poll_interval_seconds, "lease and heartbeat poll cadence");
  args.read("--status-interval S", lease.status_interval_seconds, "progress line cadence");
  // Values that parse but break a sweep: a zero budget poisons every
  // variant before its first lease, a non-positive timeout expires every
  // lease at its first tick.
  const auto require = [&](const char* flag, double value, bool ok, const char* rule) {
    if (ok) return;
    char buf[32];
    const std::string text(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    args.reject(flag, text, text + " (" + rule + ")");
  };
  require("--max-attempts", static_cast<double>(retry.max_attempts), retry.max_attempts >= 1,
          "must be >= 1");
  require("--lease-timeout", lease.timeout_seconds, lease.timeout_seconds > 0, "must be > 0");
  for (const auto& [flag, value] :
       {std::pair{"--backoff-base", retry.base_delay_seconds},
        std::pair{"--backoff-max", retry.max_delay_seconds}, std::pair{"--jitter", retry.jitter},
        std::pair{"--poll-interval", lease.poll_interval_seconds},
        std::pair{"--status-interval", lease.status_interval_seconds}}) {
    require(flag, value, value >= 0, "must be >= 0");
  }
}

bool supersede(RunOutcome& kept, const RunOutcome& incoming) {
  const bool kept_ok = kept.error.empty();
  if (kept_ok && incoming.error.empty()) {
    // Outcomes are deterministic functions of the grid position, so two
    // completed attempts must agree exactly; a difference means the
    // attempts ran different specs (or nondeterminism crept in) and no
    // silent choice between them is right.
    if (kept.to_json().dump() != incoming.to_json().dump()) {
      throw std::runtime_error(
          "conflicting completed outcomes for grid index " + std::to_string(incoming.index) +
          " — attempts disagree on a deterministic run (different spec or "
          "nondeterministic engine); refusing to pick one");
    }
    return false;
  }
  if (kept_ok) return false;  // a completed outcome outlives a later error
  // A completed outcome supersedes an environmental error; between two
  // errors, the later attempt's wins.
  kept = incoming;
  return true;
}

Supervisor::Supervisor(SupervisorOptions options) : options_(std::move(options)) {}

SupervisorResult Supervisor::run() {
  if (options_.shards == 0) throw std::runtime_error("supervisor: shards must be >= 1");
  if (options_.retry.max_attempts == 0) {
    throw std::runtime_error("supervisor: max_attempts must be >= 1");
  }
  if (options_.runner.empty()) options_.runner = serve::sibling_runner();
  if (::access(options_.runner.c_str(), X_OK) != 0) {
    throw std::runtime_error("supervisor: runner " + options_.runner + " is not executable");
  }
  // A spec error is the supervisor's to report, not N runners' to rediscover.
  const ExperimentSpec experiment = load_experiment_file(options_.spec_path);
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    throw std::runtime_error("supervisor: cannot create work dir " + options_.work_dir + " (" +
                             ec.message() + ")");
  }
  return TableHost(options_, experiment).run();
}

}  // namespace cohesion::run
