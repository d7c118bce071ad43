#include "serve/job_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "run/exit_codes.hpp"
#include "run/instantiate.hpp"

namespace cohesion::serve {

JobTable::JobTable(ServeConfig config) : config_(std::move(config)) {}

JobTable::JobState& JobTable::job_or_throw(std::uint64_t job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::runtime_error("unknown job " + std::to_string(job));
  return it->second;
}

const JobTable::JobState& JobTable::job_or_throw(std::uint64_t job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::runtime_error("unknown job " + std::to_string(job));
  return it->second;
}

JobTable::JobState JobTable::make_job(std::uint64_t id, const std::string& name,
                                     const run::ExperimentSpec& spec, double now) {
  JobState j;
  j.id = id;
  j.name = name.empty() ? spec.name : name;
  // Store the *normalized* echo. The JSON round trip is exact, so these are
  // the same bytes a single-process report's experiment echo carries —
  // which is what makes the final report byte-identical (contract 9).
  j.echo = spec.to_json();
  j.variants = spec.variant_count();
  j.repeats = std::max<std::size_t>(spec.repeats, 1);
  j.total_runs = spec.run_count();
  j.attempts.assign(j.variants, 0);
  j.retry_at.assign(j.variants, now);
  return j;
}

std::uint64_t JobTable::add_job(const std::string& name, const Json& experiment_echo,
                                double now, Effects& effects) {
  // Parse and preflight first: an invalid spec or factory param must fail
  // the submit, not a worker later.
  const run::ExperimentSpec spec = run::ExperimentSpec::from_json(experiment_echo);
  run::check_factories(spec);
  JobState j = make_job(next_job_, name, spec, now);
  const std::uint64_t id = next_job_++;
  effects.notes.push_back("job " + std::to_string(id) + " (" + j.name + "): " +
                          std::to_string(j.total_runs) + " runs over " +
                          std::to_string(j.variants) + " variants");
  jobs_.emplace(id, std::move(j));
  return id;
}

void JobTable::replay_job(std::uint64_t id, const std::string& name, const Json& experiment_echo) {
  jobs_[id] = make_job(id, name, run::ExperimentSpec::from_json(experiment_echo), 0.0);
  next_job_ = std::max(next_job_, id + 1);
}

void JobTable::replay_outcome(std::uint64_t job, const run::RunOutcome& outcome) {
  Effects ignored;
  record_outcomes(job_or_throw(job), {outcome}, ignored);
}

void JobTable::replay_terminal(std::uint64_t job, bool failed) {
  JobState& j = job_or_throw(job);
  j.done = !failed;
  j.failed = failed;
}

std::uint64_t JobTable::worker_joined(const std::string& name) {
  const std::uint64_t id = next_worker_++;
  workers_[id] = name.empty() ? "worker-" + std::to_string(id) : name;
  return id;
}

void JobTable::worker_left(std::uint64_t worker, double now, Effects& effects) {
  workers_.erase(worker);
  // The dead worker's leases are transient failures: one attempt spent,
  // uncovered variants go under backoff.
  std::vector<std::uint64_t> held;
  for (const auto& [id, lease] : leases_) {
    if (lease.worker == worker) held.push_back(id);
  }
  for (const std::uint64_t id : held) {
    const LeaseState lease = revoke(id);
    JobState& j = job_or_throw(lease.job);
    j.last_failure = "worker connection lost (lease " + std::to_string(id) + ", shard " +
                     std::to_string(lease.shard) + "/" + std::to_string(lease.of) + ")";
    effects.notes.push_back("job " + std::to_string(lease.job) + ": " + j.last_failure);
    penalize_shard(j, lease.shard, lease.of, /*poison=*/false, now, effects);
    check_terminal(j, effects);
  }
  // Elastic shrink: the surviving workers re-cover the grid under the new
  // width. Outcomes already collected stay; `variant % N` keeps indices
  // and seeds fixed, so the eventual merge is exact either way.
  for (auto& [id, j] : jobs_) {
    if (j.done || j.failed) continue;
    const std::size_t want = desired_partition(j);
    if (want != j.partition) repartition(j, want, effects);
  }
}

bool JobTable::variant_covered(const JobState& j, std::size_t v) const {
  for (std::size_t r = 0; r < j.repeats; ++r) {
    if (j.outcomes.find(v * j.repeats + r) == j.outcomes.end()) return false;
  }
  return true;
}

bool JobTable::variant_poisoned(const JobState& j, std::size_t v) const {
  return j.attempts[v] >= config_.retry.max_attempts;
}

std::size_t JobTable::desired_partition(const JobState& j) const {
  const std::size_t w = std::max<std::size_t>(workers_.size(), 1);
  return std::min(w, std::max<std::size_t>(j.variants, 1));
}

void JobTable::record_outcomes(JobState& j, const std::vector<run::RunOutcome>& outcomes,
                               Effects& effects) {
  for (const run::RunOutcome& o : outcomes) {
    if (o.index >= j.total_runs) {
      effects.notes.push_back("job " + std::to_string(j.id) + ": ignoring outcome with "
                              "out-of-range index " + std::to_string(o.index));
      continue;
    }
    auto it = j.outcomes.find(o.index);
    if (it == j.outcomes.end()) {
      j.outcomes.emplace(o.index, o);
      effects.fresh.emplace_back(j.id, o);
      continue;
    }
    try {
      if (run::supersede(it->second, o)) effects.fresh.emplace_back(j.id, o);
    } catch (const std::runtime_error& e) {
      // Two workers computed the same grid index and disagreed: never pick
      // one silently — fail the job, naming the index.
      j.failed = true;
      j.merge_error = e.what();
      effects.failed_jobs.push_back(j.id);
      effects.notes.push_back("job " + std::to_string(j.id) + ": " + j.merge_error);
      return;
    }
  }
}

void JobTable::penalize_shard(JobState& j, std::size_t shard, std::size_t of, bool poison,
                              double now, Effects& effects) {
  for (std::size_t v = shard; v < j.variants; v += of) {
    if (variant_covered(j, v)) continue;
    if (poison) {
      j.attempts[v] = config_.retry.max_attempts;
      continue;
    }
    if (j.attempts[v] >= config_.retry.max_attempts) continue;
    ++j.attempts[v];
    if (j.attempts[v] < config_.retry.max_attempts) {
      j.retry_at[v] = now + config_.retry.backoff_seconds(v, j.attempts[v]);
    } else {
      effects.notes.push_back("job " + std::to_string(j.id) + ": variant " +
                              std::to_string(v) + " poisoned after " +
                              std::to_string(j.attempts[v]) + " attempts");
    }
  }
}

void JobTable::repartition(JobState& j, std::size_t new_n, Effects& effects) {
  std::vector<std::uint64_t> held;
  for (const auto& [id, lease] : leases_) {
    if (lease.job == j.id) held.push_back(id);
  }
  for (const std::uint64_t id : held) {
    const LeaseState lease = leases_.at(id);
    leases_.erase(id);
    revoked_[id] = j.id;
    effects.notes.push_back("job " + std::to_string(j.id) + ": revoked lease " +
                            std::to_string(id) + " (shard " + std::to_string(lease.shard) +
                            "/" + std::to_string(lease.of) + ") for re-partition");
  }
  j.leased_shards.clear();
  effects.notes.push_back("job " + std::to_string(j.id) + ": re-partitioned " +
                          std::to_string(j.partition) + " -> " + std::to_string(new_n) +
                          " shards (" + std::to_string(workers_.size()) + " workers)");
  j.partition = new_n;
}

std::optional<Lease> JobTable::try_lease_job(JobState& j, std::uint64_t worker, double now,
                                             Effects& effects) {
  if (j.done || j.failed) return std::nullopt;
  for (std::size_t s = 0; s < j.partition; ++s) {
    if (j.leased_shards.count(s)) continue;
    bool leasable = false;
    for (std::size_t v = s; v < j.variants; v += j.partition) {
      if (!variant_covered(j, v) && !variant_poisoned(j, v) && j.retry_at[v] <= now) {
        leasable = true;
        break;
      }
    }
    if (!leasable) continue;
    Lease lease;
    lease.id = next_lease_++;
    lease.job = j.id;
    lease.shard = s;
    lease.of = j.partition;
    lease.spec = j.echo;
    LeaseState state;
    state.job = j.id;
    state.shard = s;
    state.of = j.partition;
    state.worker = worker;
    state.last_progress = now;
    leases_.emplace(lease.id, state);
    j.leased_shards.insert(s);
    effects.notes.push_back("job " + std::to_string(j.id) + ": leased shard " +
                            std::to_string(s) + "/" + std::to_string(j.partition) +
                            " to worker " + std::to_string(worker) + " (lease " +
                            std::to_string(lease.id) + ")");
    return lease;
  }
  return std::nullopt;
}

std::optional<Lease> JobTable::request_lease(std::uint64_t worker, double now,
                                             Effects& effects) {
  for (auto& [id, j] : jobs_) {
    if (j.done || j.failed) continue;
    // Free re-partition: with no leases outstanding nothing is revoked, so
    // track the worker count eagerly.
    if (active_lease_count(id) == 0) {
      const std::size_t want = desired_partition(j);
      if (want != j.partition) repartition(j, want, effects);
    }
    if (auto lease = try_lease_job(j, worker, now, effects)) return lease;
  }
  // Nothing leasable under current widths. If this idle worker would get a
  // shard under the *desired* width (elastic grow: workers joined after
  // the job started), re-partition — outstanding leases are revoked
  // gracefully and their journaled outcomes come back via release.
  for (auto& [id, j] : jobs_) {
    if (j.done || j.failed) continue;
    const std::size_t want = desired_partition(j);
    if (want == j.partition) continue;
    bool ready_work = false;
    for (std::size_t v = 0; v < j.variants; ++v) {
      if (!variant_covered(j, v) && !variant_poisoned(j, v) && j.retry_at[v] <= now) {
        ready_work = true;
        break;
      }
    }
    if (!ready_work) continue;
    repartition(j, want, effects);
    if (auto lease = try_lease_job(j, worker, now, effects)) return lease;
  }
  return std::nullopt;
}

bool JobTable::heartbeat(std::uint64_t lease_id, std::size_t journal_bytes,
                         std::size_t journal_lines,
                         const std::vector<run::RunOutcome>& outcomes, double now,
                         Effects& effects) {
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    fold_late(lease_id, outcomes, effects);  // the data is welcome, the lease is not
    return false;
  }
  LeaseState& lease = it->second;
  // Journal growth is the heartbeat. A heartbeat message whose journal has
  // not grown does NOT extend the lease: a wedged runner pinging through a
  // healthy worker is still wedged (wedged == dead).
  if (journal_bytes > lease.journal_bytes || journal_lines > lease.journal_lines) {
    lease.last_progress = now;
  }
  lease.journal_bytes = journal_bytes;
  lease.journal_lines = journal_lines;
  JobState& j = job_or_throw(lease.job);
  record_outcomes(j, outcomes, effects);
  check_terminal(j, effects);
  if (j.done || j.failed) return false;  // nothing left worth running
  return true;
}

void JobTable::complete(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
                        double now, Effects& effects) {
  const std::optional<LeaseState> ended = end_lease(lease_id, outcomes, effects);
  if (!ended) return;
  const LeaseState& lease = *ended;
  JobState& j = job_or_throw(lease.job);
  // A "complete" that left shard variants uncovered is a short delivery —
  // treat it as one failed attempt so the budget still bounds it.
  bool uncovered = false;
  for (std::size_t v = lease.shard; v < j.variants; v += lease.of) {
    if (!variant_covered(j, v)) { uncovered = true; break; }
  }
  if (uncovered && !j.failed) {
    effects.notes.push_back("job " + std::to_string(j.id) + ": lease " +
                            std::to_string(lease_id) + " completed short of covering shard " +
                            std::to_string(lease.shard) + "/" + std::to_string(lease.of));
    penalize_shard(j, lease.shard, lease.of, /*poison=*/false, now, effects);
  }
  check_terminal(j, effects);
}

void JobTable::fail(std::uint64_t lease_id, int exit_code, const std::string& reason,
                    const std::vector<run::RunOutcome>& outcomes, double now,
                    Effects& effects) {
  const std::optional<LeaseState> ended = end_lease(lease_id, outcomes, effects);
  if (!ended) return;
  const LeaseState& lease = *ended;
  JobState& j = job_or_throw(lease.job);
  const bool poison = !run::exit_code_retryable(exit_code) && exit_code != run::kExitSuccess;
  j.last_failure = "shard " + std::to_string(lease.shard) + "/" + std::to_string(lease.of) +
                   " failed (exit " + std::to_string(exit_code) + "): " + reason;
  effects.notes.push_back("job " + std::to_string(j.id) + ": " + j.last_failure +
                          (poison ? " [permanent]" : " [retryable]"));
  penalize_shard(j, lease.shard, lease.of, poison, now, effects);
  check_terminal(j, effects);
}

void JobTable::release(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
                       double now, Effects& effects) {
  (void)now;
  const std::optional<LeaseState> ended = end_lease(lease_id, outcomes, effects);
  if (!ended) return;
  const LeaseState& lease = *ended;
  JobState& j = job_or_throw(lease.job);
  effects.notes.push_back("job " + std::to_string(j.id) + ": lease " +
                          std::to_string(lease_id) + " released (shard " +
                          std::to_string(lease.shard) + "/" + std::to_string(lease.of) + ")");
  check_terminal(j, effects);
}

JobTable::LeaseState JobTable::revoke(std::uint64_t lease_id) {
  const LeaseState lease = leases_.at(lease_id);
  leases_.erase(lease_id);
  revoked_[lease_id] = lease.job;
  job_or_throw(lease.job).leased_shards.erase(lease.shard);
  return lease;
}

void JobTable::fold_late(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
                         Effects& effects) {
  auto rv = revoked_.find(lease_id);
  if (rv == revoked_.end() || jobs_.count(rv->second) == 0) return;
  JobState& j = jobs_.at(rv->second);
  record_outcomes(j, outcomes, effects);
  check_terminal(j, effects);
}

std::optional<JobTable::LeaseState> JobTable::end_lease(
    std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes, Effects& effects) {
  if (leases_.count(lease_id) == 0) {
    fold_late(lease_id, outcomes, effects);
    return std::nullopt;
  }
  const LeaseState lease = revoke(lease_id);
  record_outcomes(job_or_throw(lease.job), outcomes, effects);
  return lease;
}

void JobTable::tick(double now, Effects& effects) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, lease] : leases_) {
    if (now - lease.last_progress > config_.lease_timeout_seconds) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    const LeaseState lease = revoke(id);
    JobState& j = job_or_throw(lease.job);
    j.last_failure = "lease " + std::to_string(id) + " expired (shard " +
                     std::to_string(lease.shard) + "/" + std::to_string(lease.of) +
                     ": journal silent past " +
                     std::to_string(config_.lease_timeout_seconds) + "s)";
    effects.notes.push_back("job " + std::to_string(j.id) + ": " + j.last_failure);
    penalize_shard(j, lease.shard, lease.of, /*poison=*/false, now, effects);
    check_terminal(j, effects);
  }
}

std::size_t JobTable::active_lease_count(std::uint64_t job) const {
  std::size_t n = 0;
  for (const auto& [id, lease] : leases_) {
    if (lease.job == job) ++n;
  }
  return n;
}

void JobTable::check_terminal(JobState& j, Effects& effects) {
  if (j.done || j.failed) return;
  if (j.outcomes.size() == j.total_runs) {
    j.done = true;
    effects.done_jobs.push_back(j.id);
    effects.notes.push_back("job " + std::to_string(j.id) + ": complete (" +
                            std::to_string(j.total_runs) + " runs)");
    return;
  }
  if (active_lease_count(j.id) > 0) return;
  for (std::size_t v = 0; v < j.variants; ++v) {
    if (!variant_covered(j, v) && !variant_poisoned(j, v)) return;  // still workable
  }
  j.failed = true;
  effects.failed_jobs.push_back(j.id);
  effects.notes.push_back("job " + std::to_string(j.id) +
                          ": FAILED — every uncovered variant exhausted its attempts");
}

run::ShardStatus::State JobTable::shard_state(std::uint64_t job, std::size_t shard) const {
  using State = run::ShardStatus::State;
  const JobState& j = job_or_throw(job);
  bool covered = true;
  bool poisoned = false;
  bool attempted = false;
  for (std::size_t v = shard; v < j.variants; v += j.partition) {
    if (variant_covered(j, v)) continue;
    covered = false;
    poisoned = poisoned || variant_poisoned(j, v);
    attempted = attempted || j.attempts[v] > 0;
  }
  if (covered) return State::done;
  if (poisoned) return State::failed;
  if (j.leased_shards.count(shard) != 0) return State::running;
  return attempted ? State::backoff : State::pending;
}

bool JobTable::job_exists(std::uint64_t job) const { return jobs_.count(job) != 0; }
bool JobTable::job_done(std::uint64_t job) const { return job_or_throw(job).done; }
bool JobTable::job_failed(std::uint64_t job) const { return job_or_throw(job).failed; }

int JobTable::job_exit_code(std::uint64_t job) const {
  const JobState& j = job_or_throw(job);
  if (j.failed) return run::kExitPermanent;
  for (const auto& [index, o] : j.outcomes) {
    if (!o.error.empty()) return run::kExitPermanent;
  }
  return run::kExitSuccess;
}

Json JobTable::job_report(std::uint64_t job) const {
  const JobState& j = job_or_throw(job);
  if (!j.done && !j.failed) {
    throw std::runtime_error("job " + std::to_string(job) + " is still running");
  }
  std::vector<run::RunOutcome> all;
  all.reserve(j.outcomes.size());
  for (const auto& [index, o] : j.outcomes) all.push_back(o);  // map: index order
  if (j.done) return run::BatchRunner::report_json_from(j.echo, all);

  // Degraded output, per contract 9: everything recovered plus an
  // explicit statement of what is NOT covered — never a silent wrong
  // answer.
  Json out = Json::object();
  out.set("format", kSupervisedPartialFormat);
  out.set("complete", false);
  out.set("job", j.id);
  out.set("name", j.name);
  out.set("spec", j.echo);
  out.set("total_runs", j.total_runs);
  out.set("covered_runs", all.size());
  out.set("partition", j.partition);
  JsonArray uncovered_variants;
  std::set<std::size_t> uncovered_shards;
  for (std::size_t v = 0; v < j.variants; ++v) {
    if (variant_covered(j, v)) continue;
    Json vd = Json::object();
    vd.set("variant", v);
    vd.set("attempts", j.attempts[v]);
    uncovered_variants.push_back(std::move(vd));
    uncovered_shards.insert(v % j.partition);
  }
  out.set("uncovered_variants", Json(std::move(uncovered_variants)));
  JsonArray shards;
  for (const std::size_t s : uncovered_shards) shards.push_back(Json(s));
  out.set("uncovered_shards", Json(std::move(shards)));
  if (!j.merge_error.empty()) out.set("merge_error", j.merge_error);
  if (!j.last_failure.empty()) out.set("last_failure", j.last_failure);
  out.set("aggregate", run::BatchRunner::aggregate(all).to_json());
  JsonArray runs;
  for (const run::RunOutcome& o : all) runs.push_back(o.to_json());
  out.set("runs", Json(std::move(runs)));
  return out;
}

Json JobTable::status_json() const {
  Json out = Json::object();
  out.set("workers", workers_.size());
  JsonArray jobs;
  for (const auto& [id, j] : jobs_) {
    Json jd = Json::object();
    jd.set("job", id);
    jd.set("name", j.name);
    jd.set("state", j.done ? "done" : (j.failed ? "failed" : "running"));
    jd.set("total_runs", j.total_runs);
    jd.set("covered_runs", j.outcomes.size());
    jd.set("partition", j.partition);
    jd.set("active_leases", active_lease_count(id));
    std::vector<run::RunOutcome> all;
    all.reserve(j.outcomes.size());
    for (const auto& [index, o] : j.outcomes) all.push_back(o);
    jd.set("aggregate", run::BatchRunner::aggregate(all).to_json());
    if (!j.last_failure.empty()) jd.set("last_failure", j.last_failure);
    jobs.push_back(std::move(jd));
  }
  out.set("jobs", Json(std::move(jobs)));
  return out;
}

}  // namespace cohesion::serve
