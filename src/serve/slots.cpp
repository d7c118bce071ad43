#include "serve/slots.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/journal.hpp"
#include "serve/runner.hpp"

namespace cohesion::serve {

namespace {

/// A lease a slot holds, with the runner executing it.
struct Slot {
  RunnerProcess runner;
  Lease lease;
  JournalReader journal{runner.journal()};
  std::vector<run::RunOutcome> outcomes{};  ///< every journaled outcome read so far
  bool corrupt_pending = false;  ///< corrupt fault fired: scribble the tail once reaped
};

void append_torn_tail(const std::string& path) {
  // A newline-free fragment of a plausible outcome line: exactly what a
  // crash mid-write(2) would leave if appends were not single writes.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << R"({"index": 4294967295, "variant": 0, "repe)";
}

class Slots {
 public:
  Slots(LeaseHost& host, std::size_t count, std::size_t max_parallel, const SlotConfig& config,
        const std::atomic<bool>* stop)
      : host_(host),
        config_(config),
        stop_(stop),
        slots_(count),
        cap_(max_parallel == 0 ? count : std::min(max_parallel, count)),
        fired_(config.faults.size(), 0) {
    if (config_.runner.empty()) config_.runner = sibling_runner();
  }

  bool run(double poll_seconds) {
    while (!stopped() && !host_.finished()) {
      std::size_t running = 0;
      for (std::optional<Slot>& slot : slots_) {
        if (!slot) continue;
        if (const std::optional<RunnerExit> exit = slot->runner.poll()) {
          finish(slot, exit);
        } else {
          watch(slot);
          running += slot.has_value();
        }
      }
      for (std::size_t i = 0; i < slots_.size() && running < cap_; ++i) {
        if (slots_[i]) continue;
        std::optional<Lease> lease = host_.request(i);
        if (!lease) break;
        start(slots_[i], std::move(*lease));
        running += slots_[i].has_value();
      }
      nap(std::max(poll_seconds, 0.001), stop_);
    }
    // The host is done (what a live runner journaled is all it can add) or
    // the stop flag is set: stop every runner and hand its journal back.
    for (std::optional<Slot>& slot : slots_) {
      if (!slot) continue;
      try {
        finish(slot);
      } catch (const std::exception&) {
        // The host reclaims the lease on its own (a dropped connection).
      }
    }
    return !stopped();
  }

 private:
  [[nodiscard]] bool stopped() const { return stop_ != nullptr && stop_->load(); }

  void start(std::optional<Slot>& slot, Lease lease) {
    const std::string job = config_.work_dir + "/job" + std::to_string(lease.job);
    const RunnerLaunch launch{.runner = config_.runner,
                              .spec_path = job + ".spec.json",
                              .shard = lease.shard,
                              .of = lease.of,
                              .stem = job + "_s" + std::to_string(lease.shard) + "of" +
                                      std::to_string(lease.of),
                              .threads = config_.threads,
                              .throttle_ms = config_.throttle_ms};
    lease.attempt = ++attempts_[{lease.job, lease.shard}];
    std::string failure;
    try {
      // Once per loop, before the job's first runner: a rewrite under a
      // starting runner would hand it a truncated spec.
      if (spec_written_.count(lease.job) == 0) {
        run::replace_file(launch.spec_path, lease.spec.dump(2) + "\n");
        spec_written_.insert(lease.job);
      }
      slot.emplace(Slot{.runner = RunnerProcess::spawn(launch), .lease = std::move(lease)});
    } catch (const run::TransientError& e) {
      failure = e.what();
    }
    if (!slot) return host_.fail(lease, run::kExitTransient, failure, {});
    config_.event("shard " + std::to_string(slot->lease.shard) + " attempt " +
                  std::to_string(slot->lease.attempt) + " launched (pid " +
                  std::to_string(slot->runner.pid()) + ")");
  }

  /// Read the journal's growth, keeping every outcome for the lease's end.
  static JournalRead read(Slot& s) {
    JournalRead r = s.journal.next();
    s.outcomes.insert(s.outcomes.end(), r.fresh.begin(), r.fresh.end());
    return r;
  }

  /// Heartbeat one running lease from its journal, then fire armed faults.
  void watch(std::optional<Slot>& slot) {
    Slot& s = *slot;
    const JournalRead r = read(s);
    if (!host_.heartbeat(s.lease, r.bytes, r.outcome_lines, r.fresh)) return finish(slot);
    for (std::size_t f = 0; f < config_.faults.size(); ++f) {
      const FaultPlan& fault = config_.faults[f];
      if (fired_[f] || fault.shard != s.lease.shard || fault.attempt != s.lease.attempt ||
          r.outcome_lines < fault.after_lines) {
        continue;
      }
      fired_[f] = 1;
      config_.event("fault injected on shard " + std::to_string(s.lease.shard) + ": " +
                    fault.describe());
      // A stall keeps the runner alive with its heartbeat stopped: only the
      // lease can catch it, which is exactly what the harness verifies.
      s.runner.signal(fault.kind == FaultPlan::Kind::stall ? SIGSTOP : SIGKILL);
      s.corrupt_pending = s.corrupt_pending || fault.kind == FaultPlan::Kind::corrupt;
    }
  }

  /// End a slot's lease: a reaped runner completes or fails it by its
  /// exit; without an exit the runner is stopped (bounded, its journal
  /// flushes) and the lease released. Every journaled outcome goes along.
  void finish(std::optional<Slot>& slot, const std::optional<RunnerExit>& exit = std::nullopt) {
    if (!exit) slot->runner.stop();
    if (slot->corrupt_pending) append_torn_tail(slot->runner.journal());
    read(*slot);
    const Slot s = std::move(*slot);
    slot.reset();
    if (!exit) {
      host_.release(s.lease, s.outcomes);
    } else if (exit->covered) {
      host_.complete(s.lease, s.outcomes);
    } else {
      host_.fail(s.lease, exit->exit_code, exit->reason, s.outcomes);
    }
  }

  LeaseHost& host_;
  SlotConfig config_;
  const std::atomic<bool>* stop_;  ///< SIGTERM/SIGINT flag, or null
  std::vector<std::optional<Slot>> slots_;
  std::size_t cap_;  ///< runners alive at once
  std::vector<char> fired_;  ///< per fault plan: already injected
  /// Leases this loop got per (job, shard): FaultPlan::attempt counts these.
  std::map<std::pair<std::uint64_t, std::size_t>, std::size_t> attempts_;
  std::set<std::uint64_t> spec_written_;  ///< jobs whose spec file this loop wrote
};

/// FaultPlan::Kind names, in enum order.
constexpr const char* kFaultKinds[] = {"kill", "stall", "corrupt"};

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  const auto bad = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("bad fault \"" + text + "\": " + why +
                              " (expected kind:shard=J[,attempt=A][,after=K] with kind one of "
                              "kill, stall, corrupt)");
  };
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) throw bad("missing ':'");
  const std::string kind = text.substr(0, colon);
  const auto named = std::find(std::begin(kFaultKinds), std::end(kFaultKinds), kind);
  if (named == std::end(kFaultKinds)) throw bad("unknown kind \"" + kind + "\"");
  FaultPlan f;
  f.kind = static_cast<Kind>(named - std::begin(kFaultKinds));
  bool have_shard = false;
  for (std::size_t pos = colon + 1; pos <= text.size();) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = token.find('=');
    if (token.empty() || eq == std::string::npos) throw bad("bad token \"" + token + "\"");
    const std::string key = token.substr(0, eq);
    std::size_t parsed = 0;
    if (eq + 1 == token.size()) throw bad("empty value for " + key);
    if (!run::parse_whole(std::string_view(token).substr(eq + 1), parsed)) {
      throw bad("value for " + key + " is not an unsigned integer");
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
  }
  if (!have_shard) throw bad("missing shard=J");
  return f;
}

std::string FaultPlan::describe() const {
  return std::string(kFaultKinds[static_cast<int>(kind)]) + ":shard=" + std::to_string(shard) +
         ",attempt=" + std::to_string(attempt) + ",after=" + std::to_string(after_lines);
}

void nap(double seconds, const std::atomic<bool>* stop) {
  const auto wake = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  for (auto now = std::chrono::steady_clock::now();
       now < wake && (stop == nullptr || !stop->load());
       now = std::chrono::steady_clock::now()) {
    std::this_thread::sleep_for(
        std::min<std::chrono::duration<double>>(wake - now, std::chrono::milliseconds(20)));
  }
}

bool run_slots(LeaseHost& host, std::size_t slots, std::size_t max_parallel, double poll_seconds,
               const SlotConfig& config, const std::atomic<bool>* stop) {
  return Slots(host, slots, max_parallel, config, stop).run(poll_seconds);
}

}  // namespace cohesion::serve
