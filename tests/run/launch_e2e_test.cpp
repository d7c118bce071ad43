// Process-level fault-injection matrix for the supervisor (unit layer:
// supervisor_test.cpp). Each test drives real `cohesion_run` worker
// processes from the build tree through Supervisor and holds it to the
// acceptance bar: the supervised report is byte-identical to the fresh
// single-process `--no-timing` report under every fault schedule — kill,
// heartbeat stall, journal corruption — or an explicit partial report
// naming the uncovered shards. Also covers the workers' exit-code
// taxonomy, SIGTERM -> flush -> resume behavior and the bounded-memory
// stream mode at n = 16384 end to end.
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "run/supervisor.hpp"
#include "serve/runner.hpp"
#include "support/process.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

using serve::FaultPlan;
using test::build_dir;
using test::read_file;
using test::run_tool;
using test::spawn_tool;
using test::wait_code;

/// Runs a tool whose output is bound for /dev/full, through a flag or
/// through stdout (`stdout_path`): it must exit 3 and name where the output
/// was going. Every tool writes such outputs in place, so /dev/full itself
/// is never replaced.
void expect_lost_output_is_transient(const std::vector<std::string>& args, const std::string& log,
                                     const std::string& named,
                                     const std::string& stdout_path = {}) {
  fs::remove(log);
  EXPECT_EQ(run_tool(args, log, stdout_path), kExitTransient) << read_file(log);
  EXPECT_NE(read_file(log).find("cannot write " + named), std::string::npos) << read_file(log);
}

class LaunchE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    runner_ = build_dir() + "/cohesion_run";
    if (!fs::exists(runner_)) {
      GTEST_SKIP() << "cohesion_run not found next to the test binary (" << runner_ << ")";
    }
    dir_ = std::string(::testing::TempDir()) + "launch_e2e_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_path_ = dir_ + "/sweep.json";
    std::ofstream out(spec_path_);
    out << sweep_spec().to_json().dump(2) << '\n';
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// shard_test's sharded_sweep: 3 scheduler-k variants x 3 repeats = 9
  /// runs, each a few thousand activations — big enough that a throttled
  /// worker is killable mid-shard, small enough to run many times here.
  static ExperimentSpec sweep_spec() {
    ExperimentSpec e;
    e.name = "supervised";
    e.base.n = 8;
    e.base.seed = 2024;
    e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
    e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
    e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
    e.base.stop.epsilon = 0.05;
    e.base.stop.max_activations = 20000;
    e.repeats = 3;
    e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3)}});
    return e;
  }

  /// The acceptance reference: the fresh single-process `--no-timing`
  /// report, computed from the very spec file the workers will read.
  std::string expected_report() const {
    const ExperimentSpec e = ExperimentSpec::from_json(Json::parse_file(spec_path_));
    const BatchResult result = BatchRunner().run(e);
    return BatchRunner::report_json(e, result, false).dump(2);
  }

  SupervisorOptions base_options() {
    SupervisorOptions o;
    o.runner = runner_;
    o.spec_path = spec_path_;
    o.shards = 3;
    o.throttle_ms = 50;  // steady journal cadence for the fault triggers
    o.work_dir = dir_ + "/work";
    o.retry.base_delay_seconds = 0.05;
    o.retry.max_delay_seconds = 0.2;
    o.lease.poll_interval_seconds = 0.01;
    o.lease.status_interval_seconds = 0.5;
    o.on_event = [this](const std::string& line) { events_.push_back(line); };
    return o;
  }

  [[nodiscard]] bool saw_event(const std::string& needle) const {
    for (const std::string& e : events_) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  std::string runner_;
  std::string dir_;
  std::string spec_path_;
  std::vector<std::string> events_;
};

// --- supervised byte-identity matrix ---------------------------------------

TEST_F(LaunchE2E, NoFaultsMergesByteIdenticalToSingleProcess) {
  SupervisorOptions o = base_options();
  o.throttle_ms = 0;  // no faults to pace for
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.exit_code, kExitSuccess);
  EXPECT_EQ(r.covered_runs, 9u);
  EXPECT_EQ(r.report.dump(2), expected_report());
  ASSERT_EQ(r.shards.size(), 3u);
  for (const ShardStatus& s : r.shards) {
    EXPECT_EQ(s.state, ShardStatus::State::done);
    EXPECT_EQ(s.attempts, 1u);
  }
}

TEST_F(LaunchE2E, KillFaultIsRetriedAndStillByteIdentical) {
  SupervisorOptions o = base_options();
  o.faults.push_back(FaultPlan::parse("kill:shard=1,after=1"));
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.report.dump(2), expected_report());
  // The sabotaged shard died and came back; resume kept its first journal
  // line from being recomputed (asserted indirectly: the bytes match).
  EXPECT_GE(r.shards[1].attempts, 2u);
  EXPECT_EQ(r.shards[1].state, ShardStatus::State::done);
  EXPECT_TRUE(saw_event("fault injected on shard 1"));
  EXPECT_TRUE(saw_event("killed by signal 9"));
}

TEST_F(LaunchE2E, StalledHeartbeatExpiresTheLeaseAndRecovers) {
  SupervisorOptions o = base_options();
  // SIGSTOP stops the journal heartbeat but the process lives — only the
  // lease can catch it. Short timeout so the test stays quick; the worker
  // appends a line every ~50ms, so 1s of silence is unambiguous.
  o.lease.timeout_seconds = 1.0;
  o.faults.push_back(FaultPlan::parse("stall:shard=0,after=1"));
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.report.dump(2), expected_report());
  EXPECT_GE(r.shards[0].attempts, 2u);
  EXPECT_TRUE(saw_event("lease expired"));
}

TEST_F(LaunchE2E, CorruptedJournalTailIsTruncatedByResumeAndStillByteIdentical) {
  SupervisorOptions o = base_options();
  o.faults.push_back(FaultPlan::parse("corrupt:shard=2,after=1"));
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.report.dump(2), expected_report());
  EXPECT_GE(r.shards[2].attempts, 2u);
  EXPECT_TRUE(saw_event("fault injected on shard 2"));
}

TEST_F(LaunchE2E, ExhaustedRetryBudgetYieldsPartialReportNamingTheShard) {
  SupervisorOptions o = base_options();
  o.retry.max_attempts = 2;
  // Sabotage every launch of shard 1 the moment it starts: the shard can
  // never complete and must be reported as uncovered — never silently.
  o.faults.push_back(FaultPlan::parse("kill:shard=1,attempt=1,after=0"));
  o.faults.push_back(FaultPlan::parse("kill:shard=1,attempt=2,after=0"));
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.exit_code, kExitPermanent);
  EXPECT_EQ(r.shards[1].state, ShardStatus::State::failed);
  EXPECT_EQ(r.shards[1].attempts, 2u);
  EXPECT_EQ(r.shards[0].state, ShardStatus::State::done);
  EXPECT_EQ(r.shards[2].state, ShardStatus::State::done);

  EXPECT_EQ(r.report.string_or("format", ""), "cohesion-supervised-partial/1");
  ASSERT_EQ(r.report.at("uncovered_shards").items().size(), 1u);
  EXPECT_EQ(r.report.at("uncovered_shards").items()[0].as_uint(), 1u);
  // Shards 0 and 2 each own 3 of the 9 runs; whatever shard 1 journaled
  // before dying is recovered on top, but it can never reach full coverage.
  EXPECT_GE(r.covered_runs, 6u);
  EXPECT_LT(r.covered_runs, 9u);
  EXPECT_EQ(r.report.at("covered_runs").as_uint(), r.covered_runs);
  EXPECT_EQ(r.report.at("runs").items().size(), r.covered_runs);
  EXPECT_TRUE(saw_event("retry budget exhausted"));
}

TEST_F(LaunchE2E, LaunchCliWritesTheByteIdenticalReportUnderAFault) {
  const std::string launch = build_dir() + "/cohesion_launch";
  if (!fs::exists(launch)) GTEST_SKIP() << "cohesion_launch not built";
  // One kill, then all three fault kinds in one launch: SIGKILL a shard
  // mid-journal, SIGSTOP another until its lease expires, kill + corrupt
  // the third's journal tail. Each row lists the narration it must show.
  struct Schedule {
    std::vector<std::string> flags;
    std::vector<std::string> events;
  };
  const Schedule schedules[] = {
      {{"--fault", "kill:shard=0,after=1"}, {"fault injected on shard 0"}},
      {{"--fault", "kill:shard=1,after=2", "--fault", "stall:shard=0,after=1", "--fault",
        "corrupt:shard=2,after=1", "--lease-timeout", "1"},
       {"fault injected on shard 0", "fault injected on shard 1", "fault injected on shard 2",
        "shard 0 lease expired"}},
  };
  for (std::size_t i = 0; i < std::size(schedules); ++i) {
    const std::string out = dir_ + "/report" + std::to_string(i) + ".json";
    const std::string log = dir_ + "/launch" + std::to_string(i) + ".log";
    std::vector<std::string> args = {launch, spec_path_, "--shards", "3", "--throttle-ms", "50",
                                     "--backoff-base", "0.05", "--poll-interval", "0.01",
                                     "--work-dir", dir_ + "/cli_work" + std::to_string(i),
                                     "--out", out};
    args.insert(args.end(), schedules[i].flags.begin(), schedules[i].flags.end());
    EXPECT_EQ(run_tool(args, log), kExitSuccess) << "schedule " << i << "\n" << read_file(log);
    EXPECT_EQ(read_file(out), expected_report() + "\n") << "schedule " << i;
    for (const std::string& event : schedules[i].events) {
      EXPECT_NE(read_file(log).find(event), std::string::npos)
          << "schedule " << i << " lacks \"" << event << "\"\n" << read_file(log);
    }
  }
}

TEST_F(LaunchE2E, MaxParallelOneRunsOneShardAtATimeByteIdentical) {
  SupervisorOptions o = base_options();
  o.throttle_ms = 0;
  o.max_parallel = 1;
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.report.dump(2), expected_report());
  ASSERT_EQ(r.shards.size(), 3u);
  for (const ShardStatus& s : r.shards) {
    EXPECT_EQ(s.state, ShardStatus::State::done);
    EXPECT_EQ(s.attempts, 1u);
  }
  // Never two runners at once: every launch follows the previous shard's end.
  std::size_t live = 0;
  for (const std::string& e : events_) {
    if (e.find(" launched (pid ") != std::string::npos) {
      ++live;
      EXPECT_LE(live, 1u) << e;
    } else if (e.find(" done (") != std::string::npos) {
      --live;
    }
  }
}

TEST_F(LaunchE2E, ChildSpecResolvesItsExtendsBaseInResultAndPartialDocument) {
  // The sweep lives in the base; the child only renames it. A supervised
  // run must see the resolved 9-run grid, not a 1-run bare RunSpec.
  const std::string base = dir_ + "/base.json";
  fs::rename(spec_path_, base);
  const std::string child = dir_ + "/child.json";
  std::ofstream(child) << R"({"extends": "base.json", "name": "child"})" << '\n';
  SupervisorOptions o = base_options();
  o.spec_path = child;
  o.retry.max_attempts = 1;
  o.faults.push_back(FaultPlan::parse("kill:shard=0,after=0"));
  const SupervisorResult r = Supervisor(o).run();
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.total_runs, 9u);
  EXPECT_EQ(r.report.string_or("format", ""), "cohesion-supervised-partial/1");
  EXPECT_EQ(r.report.at("total_runs").as_uint(), 9u);
  EXPECT_EQ(r.report.at("spec").string_or("name", ""), "child");
}

// --- worker SIGTERM -> flush -> resume --------------------------------------

TEST_F(LaunchE2E, SigtermFlushesTheJournalAndResumeReproducesTheReport) {
  const std::string ckpt = dir_ + "/run.ckpt";
  const std::string report = dir_ + "/report.json";
  const ::pid_t pid = spawn_tool({runner_, spec_path_, "--checkpoint", ckpt, "--throttle-ms",
                                  "60", "--no-timing", "--out", report},
                                 dir_ + "/worker.log");

  // Wait for the first journaled outcome, then interrupt mid-batch (the
  // 60ms/run throttle leaves ~8 runs of headroom).
  std::vector<RunOutcome> journaled;
  serve::JournalReader reader(ckpt);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const serve::JournalRead read = reader.next();
    journaled.insert(journaled.end(), read.fresh.begin(), read.fresh.end());
    if (read.found && !journaled.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(journaled.empty()) << "worker never journaled: " << read_file(dir_ + "/worker.log");
  ::kill(pid, SIGTERM);
  EXPECT_EQ(wait_code(pid), kExitInterrupted) << read_file(dir_ + "/worker.log");

  // No report for a truncated batch; the journal is well-formed and short.
  EXPECT_FALSE(fs::exists(report));
  const serve::JournalRead flushed = serve::JournalReader(ckpt).next();
  ASSERT_TRUE(flushed.found);
  EXPECT_LT(flushed.fresh.size(), 9u);

  // Resume completes the batch and reproduces the fresh report exactly.
  const int code = run_tool(
      {runner_, spec_path_, "--resume", ckpt, "--no-timing", "--out", report},
      dir_ + "/worker.log");
  EXPECT_EQ(code, kExitSuccess) << read_file(dir_ + "/worker.log");
  EXPECT_EQ(read_file(report), expected_report() + "\n");
}

// --- launch SIGTERM -> stop every runner -> resume ---------------------------

/// The runner pids a launch log narrates ("... launched (pid P)").
std::vector<::pid_t> launched_pids(const std::string& log) {
  static constexpr std::string_view kTag = "launched (pid ";
  std::vector<::pid_t> pids;
  for (std::size_t at = log.find(kTag); at != std::string::npos; at = log.find(kTag, at + 1)) {
    pids.push_back(static_cast<::pid_t>(std::stol(log.substr(at + kTag.size()))));
  }
  return pids;
}

TEST_F(LaunchE2E, SigtermStopsEveryRunnerAndAResumedLaunchMatchesTheReport) {
  const std::string launch = build_dir() + "/cohesion_launch";
  if (!fs::exists(launch)) GTEST_SKIP() << "cohesion_launch not built";
  const std::string spec =
      (fs::path(__FILE__).parent_path() / "../../bench/specs/kasync_sweep.json").string();
  const std::string work = dir_ + "/work";
  const std::string out = dir_ + "/report.json";
  const std::string log = dir_ + "/launch.log";
  // 32 runs a shard at 200 ms each: both runners are mid-shard for seconds.
  const ::pid_t pid = spawn_tool({launch, spec, "--shards", "2", "--throttle-ms", "200",
                                  "--work-dir", work, "--out", out},
                                 log);
  std::vector<::pid_t> runners;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runners.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    runners = launched_pids(read_file(log));
  }
  ASSERT_EQ(runners.size(), 2u) << read_file(log);
  ::kill(pid, SIGTERM);
  EXPECT_EQ(wait_code(pid), kExitInterrupted) << read_file(log);
  for (const ::pid_t runner : runners) {
    EXPECT_NE(::kill(runner, 0), 0) << "runner " << runner << " outlived the launch";
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_NE(read_file(log).find("interrupted"), std::string::npos) << read_file(log);

  // The same work dir resumes the sweep to the single-process report.
  const std::string expected = dir_ + "/expected.json";
  ASSERT_EQ(run_tool({runner_, spec, "--no-timing", "--out", expected}, dir_ + "/run.log"),
            kExitSuccess)
      << read_file(dir_ + "/run.log");
  EXPECT_EQ(run_tool({launch, spec, "--shards", "2", "--work-dir", work, "--out", out}, log),
            kExitSuccess)
      << read_file(log);
  EXPECT_EQ(read_file(out), read_file(expected));
}

// --- exit-code taxonomy ------------------------------------------------------

TEST_F(LaunchE2E, WorkerExitCodesDistinguishTransientFromPermanent) {
  const std::string log = dir_ + "/taxonomy.log";
  // Unreadable spec: transient (it may not have been copied yet).
  EXPECT_EQ(run_tool({runner_, dir_ + "/no_such_spec.json"}, log), kExitTransient);
  // Unparseable spec: permanent — retrying cannot help.
  const std::string bad = dir_ + "/bad.json";
  std::ofstream(bad) << "this is not json";
  EXPECT_EQ(run_tool({runner_, bad}, log), kExitPermanent);
  // No spec at all: usage.
  EXPECT_EQ(run_tool({runner_}, log), kExitUsage);
  // A shard count past 2^64 is usage too, not a wrap to 0/1 that runs the
  // whole sweep as one "shard".
  fs::remove(log);
  EXPECT_EQ(run_tool({runner_, spec_path_, "--shard", "0/18446744073709551617"}, log), kExitUsage);
  EXPECT_NE(read_file(log).find("bad shard \"0/18446744073709551617\""), std::string::npos)
      << read_file(log);
  // --resume already journals: combining it with --checkpoint is usage.
  EXPECT_EQ(run_tool({runner_, spec_path_, "--checkpoint", dir_ + "/a.ckpt", "--resume",
                      dir_ + "/b.ckpt"},
                     log),
            kExitUsage);
  // A report lost to a full disk is transient, through --out or stdout.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  expect_lost_output_is_transient({runner_, spec_path_, "--out", "/dev/full"}, log, "/dev/full");
  expect_lost_output_is_transient({runner_, spec_path_}, log, "stdout", "/dev/full");
  expect_lost_output_is_transient({runner_, "--list"}, log, "stdout", "/dev/full");
}

TEST_F(LaunchE2E, MisspelledParamInAnyVariantFailsBeforeAnyRunStarts) {
  // run::check_factories preflights every variant's factory slots: the
  // typo in the last variant fails the batch before run 0, so nothing is
  // journaled and no report is written; cohesion_launch (serve::JobTable)
  // refuses the same spec before starting a worker.
  const std::string spec = dir_ + "/typo.json";
  std::ofstream(spec) << R"({"base": {"n": 6, "stop": {"epsilon": 0.1, "max_activations": 500}},
    "sweep": [{"path": "scheduler.params", "values": [{"k": 2}, {"kk": 2}]}]})";
  const std::string ckpt = dir_ + "/typo.ckpt";
  const std::string report = dir_ + "/typo_report.json";
  const std::string log = dir_ + "/typo.log";
  EXPECT_EQ(run_tool({runner_, spec, "--checkpoint", ckpt, "--out", report}, log), kExitPermanent);
  std::string message = read_file(log);
  EXPECT_NE(message.find("variant 1"), std::string::npos) << message;
  EXPECT_NE(message.find("\"kk\""), std::string::npos) << message;
  EXPECT_TRUE(!fs::exists(ckpt) || fs::file_size(ckpt) == 0);
  EXPECT_FALSE(fs::exists(report));

  const std::string launch = build_dir() + "/cohesion_launch";
  const std::string work = dir_ + "/typo_work";
  fs::remove(log);
  EXPECT_EQ(run_tool({launch, spec, "--shards", "2", "--work-dir", work, "--quiet"}, log),
            kExitPermanent);
  message = read_file(log);
  EXPECT_NE(message.find("variant 1"), std::string::npos) << message;
  if (fs::exists(work)) {
    for (const auto& entry : fs::directory_iterator(work)) {
      EXPECT_EQ(entry.path().extension(), ".json") << "a worker started: " << entry.path();
    }
  }
}

TEST_F(LaunchE2E, MisspelledOrRetiredSpecKeysExitPermanentNamingTheKey) {
  // A typo'd key, a retired engine switch set to its retired value, or a
  // sweep whose grid size overflows is a spec error: exit 1 with the key
  // path named, never a run of some other experiment (an unchecked
  // 2^64-point grid wraps to 0 runs).
  std::string overflow = R"({"base": {"n": 4}, "sweep": [)";
  for (int a = 0; a < 64; ++a) {
    overflow += std::string(a == 0 ? "" : ",") + R"({"path": "seed", "values": [1, 2]})";
  }
  overflow += "]}";
  struct Case {
    std::string doc;
    const char* key;
  };
  const Case cases[] = {
      {R"({"n": 4, "stopp": {"epsilon": 0.1}})", "\"stopp\""},
      {R"({"n": 4, "use_spatial_index": false})", "\"use_spatial_index\""},
      {R"({"n": 4, "incremental_index": false})", "\"incremental_index\""},
      {R"({"base": {"n": 4, "incremental_index": false}})", "\"base.incremental_index\""},
      {R"({"n": 4, "soa_kernel": true})", "\"soa_kernel\""},
      {R"({"n": 4, "algorithm": {"type": "kknps", "parms": {"k": 7}}})", "\"algorithm.parms\""},
      {overflow, "sweep[63] (\"seed\") overflows the variant count"},
  };
  const std::string spec = dir_ + "/bad_key.json";
  const std::string log = dir_ + "/bad_key.log";
  for (const Case& c : cases) {
    std::ofstream(spec) << c.doc;
    fs::remove(log);
    EXPECT_EQ(run_tool({runner_, spec, "--no-timing"}, log), kExitPermanent) << c.doc;
    EXPECT_NE(read_file(log).find(c.key), std::string::npos) << read_file(log);
  }
}

// --- bounded-memory stream mode ------------------------------------------------

/// Removes `keys` from a JSON object; absent keys are ignored.
void drop_keys(Json& object, std::initializer_list<std::string_view> keys) {
  std::erase_if(object.entries(), [&](const auto& entry) {
    return std::find(keys.begin(), keys.end(), entry.first) != keys.end();
  });
}

TEST_F(LaunchE2E, StreamModeRunStaysUnderRssCeilingAndMatchesMemoryAndReplay) {
  // Contract 10 at n = 16384: bench/specs/stream_run.json (250 000
  // activations) streamed through --trace-dir keeps no O(activations)
  // state, so the whole process stays under a fixed 32 MB peak RSS (the
  // in-memory run of the same spec needs ~41 MB). Its report equals the
  // in-memory report once the trace fields are stripped, and
  // cohesion_replay --check recomputes the metrics from the file byte for
  // byte.
  const std::string replay = build_dir() + "/cohesion_replay";
  if (!fs::exists(replay)) GTEST_SKIP() << "cohesion_replay not built";
  const std::string spec =
      (fs::path(__FILE__).parent_path() / "../../bench/specs/stream_run.json").string();
  const std::string traces = dir_ + "/traces";
  const std::string stream_report = dir_ + "/stream.json";
  const std::string memory_report = dir_ + "/memory.json";
  const std::string stream_log = dir_ + "/stream.log";
  const std::string memory_log = dir_ + "/memory.log";

  // Two independent single-threaded processes: run them side by side.
  const ::pid_t stream = spawn_tool({runner_, spec, "--no-timing", "--trace-dir", traces,
                                     "--peak-rss", "--out", stream_report},
                                    stream_log);
  const ::pid_t memory =
      spawn_tool({runner_, spec, "--no-timing", "--out", memory_report}, memory_log);
  const int stream_code = wait_code(stream);
  const int memory_code = wait_code(memory);
  ASSERT_EQ(stream_code, kExitSuccess) << read_file(stream_log);
  ASSERT_EQ(memory_code, kExitSuccess) << read_file(memory_log);

  const std::string log = read_file(stream_log);
  const std::string_view tag = "peak_rss_kb: ";
  const std::size_t at = log.find(tag);
  ASSERT_NE(at, std::string::npos) << log;
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Plain builds only: under ASan the shadow memory alone puts this run
  // near 380 MB.
  constexpr long kRssCeilingKb = 32768;
  EXPECT_LE(std::stol(log.substr(at + tag.size())), kRssCeilingKb)
      << "stream mode must not keep the activation history";
#endif

  Json streamed = Json::parse_file(stream_report);
  drop_keys(*streamed.find("experiment")->find("base"), {"trace"});
  for (Json& run : streamed.find("runs")->items()) {
    drop_keys(run, {"trace_path", "trace_fingerprint"});
  }
  EXPECT_EQ(streamed.dump(2), Json::parse_file(memory_report).dump(2));

  const std::string trace = traces + "/run_0.cohtrace";
  ASSERT_TRUE(fs::exists(trace));
  EXPECT_EQ(run_tool({replay, trace, "--check", stream_report}, dir_ + "/replay.log"),
            kExitSuccess)
      << read_file(dir_ + "/replay.log");
}

TEST_F(LaunchE2E, MergeExitCodesDistinguishTransientFromPermanent) {
  const std::string merge = build_dir() + "/cohesion_merge";
  if (!fs::exists(merge)) GTEST_SKIP() << "cohesion_merge not built";
  const std::string log = dir_ + "/merge_taxonomy.log";
  // A missing partial is transient: its shard may still be running.
  EXPECT_EQ(run_tool({merge, dir_ + "/absent_partial.json"}, log), kExitTransient);
  // A present-but-invalid partial is a permanent input error.
  const std::string junk = dir_ + "/junk.json";
  std::ofstream(junk) << R"({"hello": 1})";
  EXPECT_EQ(run_tool({merge, junk}, log), kExitPermanent);
  EXPECT_EQ(run_tool({merge}, log), kExitUsage);
  // A merged report lost to a full disk is transient.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string partial = dir_ + "/p0.json";
  ASSERT_EQ(run_tool({runner_, spec_path_, "--shard", "0/1", "--out", partial}, log), kExitSuccess);
  expect_lost_output_is_transient({merge, partial, "--out", "/dev/full"}, log, "/dev/full");
}

TEST_F(LaunchE2E, LaunchAndReplayExitTransientWhenTheirOutputCannotBeWritten) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string launch = build_dir() + "/cohesion_launch";
  const std::string replay = build_dir() + "/cohesion_replay";
  const std::string log = dir_ + "/full.log";
  expect_lost_output_is_transient({launch, spec_path_, "--shards", "2", "--work-dir",
                                   dir_ + "/work", "--quiet", "--out", "/dev/full"},
                                  log, "/dev/full");

  ASSERT_EQ(run_tool({runner_, spec_path_, "--trace-dir", dir_ + "/traces", "--out",
                      dir_ + "/report.json"},
                     log),
            kExitSuccess);
  const std::string trace = dir_ + "/traces/run_0.cohtrace";
  expect_lost_output_is_transient({replay, trace, "--out", "/dev/full"}, log, "/dev/full");
  expect_lost_output_is_transient({replay, trace, "--svg", "/dev/full"}, log, "/dev/full");
  expect_lost_output_is_transient({replay, trace}, log, "stdout", "/dev/full");
}

}  // namespace
}  // namespace cohesion::run
