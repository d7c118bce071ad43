#include "serve/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <vector>

#include "run/exit_codes.hpp"

namespace cohesion::serve {

namespace {

namespace fs = std::filesystem;

Json outcomes_json(const std::vector<run::RunOutcome>& outcomes) {
  JsonArray arr;
  for (const run::RunOutcome& o : outcomes) arr.push_back(o.to_json());
  return Json(std::move(arr));
}

class WorkerLoop final : public LeaseHost {
 public:
  explicit WorkerLoop(const WorkerOptions& options) : options_(options) {
    if (options_.name.empty()) options_.name = "worker-" + std::to_string(::getpid());
  }

  int run() {
    std::error_code ec;
    fs::create_directories(options_.work_dir, ec);
    if (ec) throw run::TransientError("cannot create work dir " + options_.work_dir);

    for (;;) {
      if (stopped()) return run::kExitInterrupted;
      int exit_code = 0;
      if (!connect_with_retry(exit_code)) return exit_code;
      try {
        // Hold leases over this connection until oneshot finishes or a stop.
        idle_ = false;
        return run_slots(*this, 1, 1, options_.heartbeat_interval_seconds, options_, options_.stop)
                   ? run::kExitSuccess
                   : run::kExitInterrupted;
      } catch (const run::TransientNetworkError& e) {
        // Reconnect and keep serving; the loop stopped our runner as it
        // unwound, and the daemon reclaims the lease through the dropped
        // connection.
        options_.event(std::string("connection lost: ") + e.what() + " — reconnecting");
      }
      conn_.reset();
    }
  }

 private:
  [[nodiscard]] bool stopped() const { return options_.stop != nullptr && options_.stop->load(); }

  /// Retry the connect under exponential backoff: the daemon may not be up
  /// yet, or may be mid-restart. Exhaustion returns false with exit 5 — the
  /// named transient-network cause, so an outer supervisor retries us.
  bool connect_with_retry(int& exit_code) {
    double delay = options_.connect_backoff_seconds;
    for (std::size_t attempt = 1;; ++attempt) {
      if (stopped()) {
        exit_code = run::kExitInterrupted;
        return false;
      }
      try {
        conn_.emplace(connect_to(options_.address, options_.io_timeout_seconds));
        worker_id_ = transact({{"op", "hello"}, {"role", "worker"}, {"name", options_.name}})
                         .uint_or("worker", 0);
        options_.event("connected to " + options_.address.describe() + " as worker " +
                       std::to_string(worker_id_));
        return true;
      } catch (const run::TransientNetworkError& e) {
        conn_.reset();
        if (attempt >= options_.connect_attempts) {
          options_.event(std::string("giving up after ") + std::to_string(attempt) +
                         " connect attempts: " + e.what());
          exit_code = run::kExitTransientNetwork;
          return false;
        }
        options_.event("connect attempt " + std::to_string(attempt) + "/" +
                       std::to_string(options_.connect_attempts) + " failed (" + e.what() +
                       "); retrying in " + std::to_string(delay) + "s");
        nap(delay, options_.stop);
        delay = std::min(delay * 2.0, 5.0);
      }
    }
  }

  /// One request/response exchange; a reply that is not ok throws.
  Json transact(run::JsonObject fields) {
    const Json request(std::move(fields));
    conn_->send(request);
    std::optional<Json> reply = conn_->receive();
    if (!reply) throw run::TransientNetworkError("daemon closed the connection");
    if (!reply->bool_or("ok", false)) {
      throw std::runtime_error("daemon rejected " + request.string_or("op", "?") + ": " +
                               reply->string_or("error", "unspecified"));
    }
    return std::move(*reply);
  }

  // --- LeaseHost: one protocol message per verb ----------------------------

  std::optional<Lease> request(std::size_t /*slot*/) override {
    const Json reply = transact({{"op", "request"}, {"worker", worker_id_}});
    const Json* l = reply.find("lease");
    idle_ = l == nullptr;
    if (idle_) return std::nullopt;
    Lease lease{.id = l->uint_or("id", 0),
                .job = l->uint_or("job", 0),
                .shard = static_cast<std::size_t>(l->uint_or("shard", 0)),
                .of = static_cast<std::size_t>(l->uint_or("of", 1)),
                .spec = l->at("spec")};
    options_.event("lease " + std::to_string(lease.id) + ": job " + std::to_string(lease.job) +
                   " shard " + std::to_string(lease.shard) + "/" + std::to_string(lease.of));
    return lease;
  }

  bool heartbeat(const Lease& lease, std::size_t journal_bytes, std::size_t journal_lines,
                 const std::vector<run::RunOutcome>& fresh) override {
    if (transact({{"op", "heartbeat"},
                  {"lease", lease.id},
                  {"journal_bytes", journal_bytes},
                  {"journal_lines", journal_lines},
                  {"outcomes", outcomes_json(fresh)}})
            .bool_or("valid", false)) {
      return true;
    }
    options_.event("lease " + std::to_string(lease.id) + " revoked — stopping runner");
    return false;
  }

  void complete(const Lease& lease, const std::vector<run::RunOutcome>& outcomes) override {
    options_.event("lease " + std::to_string(lease.id) + " complete (" +
                   std::to_string(outcomes.size()) + " outcomes)");
    transact({{"op", "complete"}, {"lease", lease.id}, {"outcomes", outcomes_json(outcomes)}});
  }

  void fail(const Lease& lease, int exit_code, const std::string& reason,
            const std::vector<run::RunOutcome>& outcomes) override {
    options_.event("lease " + std::to_string(lease.id) + " failed: runner " + reason);
    transact({{"op", "fail"},
              {"lease", lease.id},
              {"exit_code", exit_code},
              {"reason", reason},
              {"outcomes", outcomes_json(outcomes)}});
  }

  void release(const Lease& lease, const std::vector<run::RunOutcome>& outcomes) override {
    options_.event("lease " + std::to_string(lease.id) + " released (" +
                   std::to_string(outcomes.size()) + " outcomes)");
    transact({{"op", "release"}, {"lease", lease.id}, {"outcomes", outcomes_json(outcomes)}});
  }

  bool finished() override {
    if (!options_.oneshot || !idle_) return false;
    const Json reply = transact({{"op", "status"}});
    for (const Json& jd : reply.at("status").at("jobs").items()) {
      if (jd.string_or("state", "") == "running") return false;
    }
    options_.event("oneshot: no running jobs — exiting");
    return true;
  }

  WorkerOptions options_;
  std::optional<LineConnection> conn_;
  std::uint64_t worker_id_ = 0;
  bool idle_ = false;  ///< the last request found nothing to lease
};

}  // namespace

int run_worker(const WorkerOptions& options) { return WorkerLoop(options).run(); }

}  // namespace cohesion::serve
