#include "run/supervisor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "run/exit_codes.hpp"
#include "run/preset.hpp"
#include "serve/job_table.hpp"
#include "serve/runner.hpp"

namespace cohesion::run {

namespace {

namespace fs = std::filesystem;
using State = ShardStatus::State;

void append_torn_tail(const std::string& path) {
  // A newline-free fragment of a plausible outcome line: exactly what a
  // crash mid-write(2) would leave if appends were not single writes.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << R"({"index": 4294967295, "variant": 0, "repe)";
}

/// A lease a local worker holds, with the runner executing it.
struct Active {
  serve::Lease lease;
  serve::RunnerProcess runner;
  std::size_t read_bytes = ~std::size_t{0};  ///< journal size at the last outcome read
  std::size_t sent = 0;                      ///< journal outcomes already heartbeated
  bool corrupt_pending = false;  ///< corrupt fault fired: scribble the tail once reaped
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

FaultPlan FaultPlan::parse(const std::string& text) {
  const auto bad = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("bad fault \"" + text + "\": " + why +
                              " (expected kind:shard=J[,attempt=A][,after=K] with kind one of "
                              "kill, stall, corrupt)");
  };
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) throw bad("missing ':'");
  const std::string kind = text.substr(0, colon);
  FaultPlan f;
  if (kind == "kill") {
    f.kind = Kind::kill;
  } else if (kind == "stall") {
    f.kind = Kind::stall;
  } else if (kind == "corrupt") {
    f.kind = Kind::corrupt;
  } else {
    throw bad("unknown kind \"" + kind + "\"");
  }
  bool have_shard = false;
  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    const std::size_t eq = token.find('=');
    if (token.empty() || eq == std::string::npos) throw bad("bad token \"" + token + "\"");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    std::size_t parsed = 0;
    if (value.empty()) throw bad("empty value for " + key);
    for (const char c : value) {
      if (c < '0' || c > '9') throw bad("non-numeric value for " + key);
      parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    }
    if (key == "shard") {
      f.shard = parsed;
      have_shard = true;
    } else if (key == "attempt") {
      if (parsed == 0) throw bad("attempt is 1-based");
      f.attempt = parsed;
    } else if (key == "after") {
      f.after_lines = parsed;
    } else {
      throw bad("unknown key \"" + key + "\"");
    }
    pos = comma + 1;
  }
  if (!have_shard) throw bad("missing shard=J");
  return f;
}

std::string FaultPlan::describe() const {
  const char* kind_name =
      kind == Kind::kill ? "kill" : kind == Kind::stall ? "stall" : "corrupt";
  return std::string(kind_name) + ":shard=" + std::to_string(shard) +
         ",attempt=" + std::to_string(attempt) + ",after=" + std::to_string(after_lines);
}

const char* ShardStatus::state_name() const {
  switch (state) {
    case State::pending: return "pending";
    case State::running: return "running";
    case State::backoff: return "backoff";
    case State::done: return "done";
    case State::failed: return "failed";
  }
  return "?";
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

std::vector<RunOutcome> merge_attempt_outcomes(
    const std::vector<std::vector<RunOutcome>>& attempts) {
  std::map<std::size_t, RunOutcome> by_index;
  for (const std::vector<RunOutcome>& attempt : attempts) {
    for (const RunOutcome& o : attempt) {
      const auto [it, fresh] = by_index.try_emplace(o.index, o);
      if (!fresh) supersede(it->second, o);
    }
  }
  std::vector<RunOutcome> out;
  out.reserve(by_index.size());
  for (auto& [index, o] : by_index) out.push_back(std::move(o));
  return out;
}

bool read_journal_outcomes(const std::string& path, std::vector<RunOutcome>& outcomes) {
  outcomes.clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail — a crash artifact, ignored
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line_no == 1) continue;  // header
    try {
      outcomes.push_back(RunOutcome::from_json(Json::parse(line)));
    } catch (const std::exception&) {
      // A live worker owns this file; skip anything unreadable rather than
      // fail supervision over a monitoring read.
    }
  }
  return line_no > 0;
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
  fs::create_directories(options_.work_dir, ec);
  if (ec) {
    throw std::runtime_error("supervisor: cannot create work dir " + options_.work_dir + " (" +
                             ec.message() + ")");
  }
  // Every runner reads the resolved echo — the spec its lease carries.
  const std::string spec_path = options_.work_dir + "/spec.json";
  {
    std::ofstream out(spec_path);
    if (!out) throw TransientError("supervisor: cannot write " + spec_path);
    out << experiment.to_json().dump(2) << '\n';
  }

  const auto event = [&](const std::string& line) {
    if (options_.on_event) options_.on_event(line);
  };
  const auto t0 = std::chrono::steady_clock::now();
  const auto now = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  serve::JobTable table(serve::ServeConfig{.retry = options_.retry,
                                           .lease_timeout_seconds = options_.lease.timeout_seconds});
  serve::Effects effects;  // the supervisor narrates through on_event; table notes are dropped
  const std::uint64_t job = table.add_job("", experiment.to_json(), now(), effects);
  std::vector<std::uint64_t> workers(options_.shards);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i] = table.worker_joined("local-" + std::to_string(i));
  }
  std::vector<std::optional<Active>> slots(options_.shards);
  const std::size_t partition =
      std::min(options_.shards, std::max<std::size_t>(experiment.variant_count(), 1));
  const std::size_t total_runs =
      experiment.variant_count() * std::max<std::size_t>(experiment.repeats, 1);
  const std::size_t cap = options_.max_parallel == 0
                              ? slots.size()
                              : std::min(options_.max_parallel, slots.size());
  std::vector<ShardStatus> shards(partition);
  std::vector<char> fault_fired(options_.faults.size(), 0);

  // Narrate what the table made of a lease that just ended.
  const auto settle = [&](std::size_t s, const std::string& how, bool permanent) {
    const std::string who = "shard " + std::to_string(s);
    const std::string attempts = std::to_string(shards[s].attempts);
    switch (table.shard_state(job, s)) {
      case State::done:
        event(who + " done (" + how + ", attempt " + attempts + ")");
        break;
      case State::failed:
        event(who + (permanent ? " FAILED permanently: " + how
                               : " FAILED: retry budget exhausted after " + attempts +
                                     " attempts (last: " + how + ")"));
        break;
      default:
        event(who + " died (" + how + "); retry " + std::to_string(shards[s].attempts + 1) +
              "/" + std::to_string(options_.retry.max_attempts) + " after backoff");
    }
  };

  // A reaped (or stopped) runner completes or fails its lease. `why`
  // overrides the exit's own reason (a lease that expired first).
  const auto finish = [&](std::optional<Active>& slot, const serve::RunnerExit& exit,
                          const std::string& why = {}) {
    Active& a = *slot;
    const std::size_t s = a.lease.shard;
    if (a.corrupt_pending) append_torn_tail(a.runner.journal());
    const std::vector<RunOutcome> outcomes = a.runner.outcomes();
    shards[s].journal_lines = a.runner.stat().outcome_lines;
    const std::uint64_t lease_id = a.lease.id;
    slot.reset();
    if (exit.covered && why.empty()) {
      table.complete(lease_id, outcomes, now(), effects);
      settle(s, "exit " + std::to_string(exit.exit_code), false);
      return;
    }
    const std::string reason = why.empty() ? exit.reason : why;
    shards[s].last_failure = reason;
    table.fail(lease_id, exit.exit_code, reason, outcomes, now(), effects);
    settle(s, reason, why.empty() && !exit_code_retryable(exit.exit_code));
  };

  const auto launch = [&](std::optional<Active>& slot, const serve::Lease& lease) {
    const std::size_t s = lease.shard;
    const std::size_t attempt = ++shards[s].attempts;
    serve::RunnerLaunch spec{.runner = options_.runner,
                             .spec_path = spec_path,
                             .shard = s,
                             .of = lease.of,
                             .stem = options_.work_dir + "/shard_" + std::to_string(s),
                             .threads = options_.worker_threads,
                             .throttle_ms = options_.throttle_ms};
    try {
      slot.emplace(Active{.lease = lease, .runner = serve::RunnerProcess::spawn(spec)});
    } catch (const TransientError& e) {
      shards[s].last_failure = e.what();
      table.fail(lease.id, kExitTransient, e.what(), {}, now(), effects);
      settle(s, e.what(), false);
      return;
    }
    event("shard " + std::to_string(s) + " attempt " + std::to_string(attempt) +
          " launched (pid " + std::to_string(slot->runner.pid()) + ")");
  };

  // Heartbeat one running lease from its journal, then fire armed faults.
  const auto watch = [&](std::optional<Active>& slot) {
    Active& a = *slot;
    const std::size_t s = a.lease.shard;
    const serve::JournalStat js = a.runner.stat();
    shards[s].journal_lines = js.outcome_lines;
    std::vector<RunOutcome> fresh;
    if (js.bytes != a.read_bytes) {
      a.read_bytes = js.bytes;
      std::vector<RunOutcome> all = a.runner.outcomes();
      fresh.assign(all.begin() + static_cast<std::ptrdiff_t>(std::min(a.sent, all.size())),
                   all.end());
      a.sent = all.size();
    }
    if (!table.heartbeat(a.lease.id, js.bytes, js.outcome_lines, fresh, now(), effects)) {
      if (table.job_terminal(job)) return;  // nothing left to run; stopped below
      // Only tick() revokes a local lease: the journal was silent too long.
      const std::string reason = "lease expired (no journal progress for " +
                                 std::to_string(options_.lease.timeout_seconds) + "s)";
      event("shard " + std::to_string(s) + " " + reason + "; stopping its runner");
      finish(slot, a.runner.stop(), reason);
      return;
    }
    for (std::size_t f = 0; f < options_.faults.size(); ++f) {
      const FaultPlan& fault = options_.faults[f];
      if (fault_fired[f] || fault.shard != s || fault.attempt != shards[s].attempts ||
          js.outcome_lines < fault.after_lines) {
        continue;
      }
      fault_fired[f] = 1;
      event("fault injected on shard " + std::to_string(s) + ": " + fault.describe());
      // A stall keeps the runner alive with its heartbeat stopped: only the
      // lease can catch it, which is exactly what the harness verifies.
      a.runner.signal(fault.kind == FaultPlan::Kind::stall ? SIGSTOP : SIGKILL);
      a.corrupt_pending = a.corrupt_pending || fault.kind == FaultPlan::Kind::corrupt;
    }
  };

  event("supervising " + std::to_string(partition) + " shards of " + options_.spec_path + " (" +
        std::to_string(total_runs) + " runs, max " +
        std::to_string(options_.retry.max_attempts) + " attempts/shard, lease " +
        std::to_string(options_.lease.timeout_seconds) + "s)");

  double last_status = now();
  while (!table.job_terminal(job)) {
    std::size_t running = 0;
    for (std::optional<Active>& slot : slots) {
      if (!slot) continue;
      if (const std::optional<serve::RunnerExit> exit = slot->runner.poll()) {
        finish(slot, *exit);
      } else {
        ++running;
      }
    }
    for (std::size_t i = 0; i < slots.size() && running < cap && !table.job_terminal(job); ++i) {
      if (slots[i]) continue;
      const std::optional<serve::Lease> lease = table.request_lease(workers[i], now(), effects);
      if (!lease) break;
      launch(slots[i], *lease);
      if (slots[i]) ++running;
    }
    for (std::optional<Active>& slot : slots) {
      if (slot) watch(slot);
    }
    table.tick(now(), effects);
    effects = {};

    if (now() - last_status >= options_.lease.status_interval_seconds) {
      last_status = now();
      std::map<State, std::size_t> count;
      for (std::size_t s = 0; s < partition; ++s) ++count[table.shard_state(job, s)];
      const Json status = table.status_json().at("jobs").items().front();
      event("progress: " + std::to_string(status.uint_or("covered_runs", 0)) + "/" +
            std::to_string(total_runs) + " runs; shards " + std::to_string(count[State::done]) +
            " done, " + std::to_string(count[State::running]) + " running, " +
            std::to_string(count[State::backoff]) + " backoff, " +
            std::to_string(count[State::failed]) + " failed; partial aggregate: " +
            status.at("aggregate").dump());
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(options_.lease.poll_interval_seconds, 0.001)));
  }
  // Runners still alive once the job settled have nothing left to add
  // beyond what they journaled; their outcomes fold in as they stop.
  for (std::optional<Active>& slot : slots) {
    if (slot) finish(slot, slot->runner.stop());
  }

  SupervisorResult result;
  result.total_runs = total_runs;
  for (std::size_t s = 0; s < partition; ++s) shards[s].state = table.shard_state(job, s);
  result.shards = std::move(shards);
  result.report = table.job_report(job);
  result.complete = table.job_done(job);
  result.covered_runs =
      result.complete ? total_runs
                      : static_cast<std::size_t>(result.report.at("covered_runs").as_uint());
  result.exit_code = table.job_exit_code(job);
  event(result.complete
            ? "complete: " + std::to_string(total_runs) + " runs (exit " +
                  std::to_string(result.exit_code) + ")"
            : "INCOMPLETE: " + std::to_string(result.covered_runs) + "/" +
                  std::to_string(total_runs) +
                  " runs covered; see uncovered_shards in the partial report");
  return result;
}

}  // namespace cohesion::run
