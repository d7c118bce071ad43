#include "serve/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "run/exit_codes.hpp"
#include "serve/ledger.hpp"

namespace cohesion::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::vector<run::RunOutcome> parse_outcomes(const Json& msg) {
  std::vector<run::RunOutcome> out;
  const Json* arr = msg.find("outcomes");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const Json& o : arr->items()) out.push_back(run::RunOutcome::from_json(o));
  return out;
}

struct Client {
  LineConnection conn;
  std::uint64_t worker = 0;  ///< 0 until a worker hello
  explicit Client(int fd) : conn(fd) {}
};

class DaemonLoop {
 public:
  explicit DaemonLoop(const DaemonOptions& options)
      : options_(options), table_(options.config), start_(Clock::now()) {}

  int run() {
    JobLedger::Loaded loaded;
    ledger_ = JobLedger::open(options_.ledger_path, loaded);
    replay(loaded);
    listen_fd_ = listen_on(options_.address);
    event("listening on " + options_.address.describe() + " (ledger " + options_.ledger_path +
          ", " + std::to_string(loaded.events.size()) + " events replayed)");

    while (!shutdown_requested_) {
      if (options_.stop != nullptr && options_.stop->load()) {
        event("interrupted (SIGTERM/SIGINT): ledger flushed, " +
              std::to_string(clients_.size()) + " connections closed — restart resumes "
              "every in-flight job from the ledger");
        ::close(listen_fd_);
        return run::kExitInterrupted;
      }
      poll_once();
      Effects effects;
      table_.tick(now(), effects);
      apply(effects);
      maybe_report_progress();
    }
    ::close(listen_fd_);
    event("shutdown requested: exiting");
    return 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void event(const std::string& line) {
    if (options_.on_event) options_.on_event(line);
  }

  void replay(const JobLedger::Loaded& loaded) {
    for (const LedgerEvent& e : loaded.events) {
      if (e.event == "job") {
        table_.replay_job(e.job, e.payload.string_or("name", ""), e.payload.at("spec"));
      } else if (e.event == "outcome") {
        table_.replay_outcome(e.job, run::RunOutcome::from_json(e.payload.at("run")));
      } else if (e.event == "done") {
        table_.replay_terminal(e.job, /*failed=*/false);
      } else if (e.event == "failed") {
        table_.replay_terminal(e.job, /*failed=*/true);
      } else {
        throw std::runtime_error("ledger " + options_.ledger_path + ": unknown event \"" +
                                 e.event + "\"");
      }
    }
  }

  /// Ledger + log every effect of a JobTable mutation. Outcome events are
  /// written before the done/failed seals they may have caused.
  void apply(Effects& effects) {
    for (const auto& [job, outcome] : effects.fresh) {
      Json e = Json::object();
      e.set("event", "outcome");
      e.set("job", job);
      e.set("run", outcome.to_json());
      ledger_->append(e);
    }
    for (const std::uint64_t job : effects.done_jobs) {
      Json e = Json::object();
      e.set("event", "done");
      e.set("job", job);
      ledger_->append(e);
    }
    for (const std::uint64_t job : effects.failed_jobs) {
      Json e = Json::object();
      e.set("event", "failed");
      e.set("job", job);
      ledger_->append(e);
    }
    for (const std::string& note : effects.notes) event(note);
  }

  void poll_once() {
    std::vector<struct pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<std::uint64_t> order;
    bool buffered = false;
    for (auto& [id, client] : clients_) {
      fds.push_back({client->conn.fd(), POLLIN, 0});
      order.push_back(id);
      buffered = buffered || client->conn.has_buffered_line();
    }
    const int timeout_ms =
        buffered ? 0 : static_cast<int>(options_.poll_interval_seconds * 1000.0);
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms < 1 ? 1 : timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw run::TransientNetworkError("poll failed");
    }

    if (fds[0].revents & POLLIN) {
      const int fd = accept_on(listen_fd_, options_.io_timeout_seconds);
      if (fd >= 0) {
        clients_.emplace(next_client_++, std::make_unique<Client>(fd));
      }
    }
    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < order.size(); ++i) {
      Client& client = *clients_.at(order[i]);
      const bool readable = (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if (!readable && !client.conn.has_buffered_line()) continue;
      if (!serve_client(client)) dead.push_back(order[i]);
    }
    for (const std::uint64_t id : dead) drop_client(id);
  }

  /// Drain every complete message the connection has for us. Returns false
  /// when the connection is finished (EOF or error) and must be dropped.
  bool serve_client(Client& client) {
    try {
      do {
        std::optional<Json> msg = client.conn.receive();
        if (!msg) return false;  // clean EOF
        Json reply = handle(client, *msg);
        client.conn.send(reply);
      } while (client.conn.has_buffered_line());
      return true;
    } catch (const std::exception& e) {
      // Torn line, reset, timeout, or unparseable message: the connection
      // is beyond repair. The worker's leases are reclaimed by drop_client.
      event(std::string("connection error: ") + e.what());
      return false;
    }
  }

  void drop_client(std::uint64_t id) {
    auto it = clients_.find(id);
    if (it == clients_.end()) return;
    const std::uint64_t worker = it->second->worker;
    clients_.erase(it);
    if (worker != 0) {
      Effects effects;
      table_.worker_left(worker, now(), effects);
      event("worker " + std::to_string(worker) + " disconnected (" +
            std::to_string(table_.active_workers()) + " left)");
      apply(effects);
    }
  }

  Json ok() {
    Json r = Json::object();
    r.set("ok", true);
    return r;
  }

  Json error_reply(const std::string& message) {
    Json r = Json::object();
    r.set("ok", false);
    r.set("error", message);
    return r;
  }

  Json handle(Client& client, const Json& msg) {
    const std::string op = msg.string_or("op", "");
    try {
      Effects effects;
      Json reply = ok();
      if (op == "hello") {
        if (msg.string_or("role", "") == "worker") {
          client.worker = table_.worker_joined(msg.string_or("name", ""));
          reply.set("worker", client.worker);
          event("worker " + std::to_string(client.worker) + " (" + msg.string_or("name", "?") +
                ") joined (" + std::to_string(table_.active_workers()) + " active)");
        }
      } else if (op == "submit") {
        const Json* spec = msg.find("spec");
        if (spec == nullptr) return error_reply("submit: missing \"spec\"");
        const std::uint64_t job =
            table_.add_job(msg.string_or("name", ""), *spec, now(), effects);
        // Durability before the ack: once the client hears the job id, a
        // daemon restart must still know the job.
        Json e = Json::object();
        e.set("event", "job");
        e.set("job", job);
        e.set("name", msg.string_or("name", ""));
        e.set("spec", run::ExperimentSpec::from_json(*spec).to_json());
        ledger_->append(e);
        reply.set("job", job);
      } else if (op == "request") {
        if (client.worker == 0) return error_reply("request: hello as a worker first");
        std::optional<Lease> lease = table_.request_lease(client.worker, now(), effects);
        if (lease) {
          Json ld = Json::object();
          ld.set("id", lease->id);
          ld.set("job", lease->job);
          ld.set("shard", lease->shard);
          ld.set("of", lease->of);
          ld.set("spec", lease->spec);
          reply.set("lease", std::move(ld));
        } else {
          reply.set("idle", true);  // the worker asks again at its own cadence
        }
      } else if (op == "heartbeat") {
        const bool valid = table_.heartbeat(
            msg.uint_or("lease", 0), static_cast<std::size_t>(msg.uint_or("journal_bytes", 0)),
            static_cast<std::size_t>(msg.uint_or("journal_lines", 0)), parse_outcomes(msg),
            now(), effects);
        reply.set("valid", valid);
      } else if (op == "complete") {
        table_.complete(msg.uint_or("lease", 0), parse_outcomes(msg), now(), effects);
      } else if (op == "fail") {
        table_.fail(msg.uint_or("lease", 0), static_cast<int>(msg.uint_or("exit_code", 1)),
                    msg.string_or("reason", "unspecified"), parse_outcomes(msg), now(),
                    effects);
      } else if (op == "release") {
        table_.release(msg.uint_or("lease", 0), parse_outcomes(msg), now(), effects);
      } else if (op == "report") {
        const std::uint64_t job = msg.uint_or("job", 0);
        if (!table_.job_exists(job)) return error_reply("unknown job " + std::to_string(job));
        if (!table_.job_terminal(job)) {
          reply.set("state", "running");
          const Json status = table_.status_json();
          for (const Json& jd : status.at("jobs").items()) {
            if (jd.uint_or("job", 0) == job) {
              reply.set("covered", jd.at("covered_runs"));
              reply.set("total", jd.at("total_runs"));
            }
          }
        } else {
          reply.set("state", table_.job_done(job) ? "done" : "failed");
          reply.set("exit_code", table_.job_exit_code(job));
          reply.set("report", table_.job_report(job));
        }
      } else if (op == "status") {
        reply.set("status", table_.status_json());
      } else if (op == "shutdown") {
        shutdown_requested_ = true;
      } else {
        return error_reply("unknown op \"" + op + "\"");
      }
      apply(effects);
      return reply;
    } catch (const std::exception& e) {
      return error_reply(e.what());
    }
  }

  void maybe_report_progress() {
    const double t = now();
    if (t - last_status_ < options_.status_interval_seconds) return;
    last_status_ = t;
    const Json status = table_.status_json();
    for (const Json& jd : status.at("jobs").items()) {
      if (jd.string_or("state", "") != "running") continue;
      event("progress: job " + std::to_string(jd.uint_or("job", 0)) + " " +
            std::to_string(jd.uint_or("covered_runs", 0)) + "/" +
            std::to_string(jd.uint_or("total_runs", 0)) + " runs, partition " +
            std::to_string(jd.uint_or("partition", 0)) + ", " +
            std::to_string(jd.uint_or("active_leases", 0)) + " leases; partial aggregate: " +
            jd.at("aggregate").dump());
    }
  }

  DaemonOptions options_;
  JobTable table_;
  Clock::time_point start_;
  std::unique_ptr<JobLedger> ledger_;
  int listen_fd_ = -1;
  std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
  std::uint64_t next_client_ = 1;
  bool shutdown_requested_ = false;
  double last_status_ = 0.0;
};

}  // namespace

int run_daemon(const DaemonOptions& options) { return DaemonLoop(options).run(); }

}  // namespace cohesion::serve
