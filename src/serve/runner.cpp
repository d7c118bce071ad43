#include "serve/runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>
#include <utility>

#include "run/exit_codes.hpp"
#include "run/shard.hpp"

namespace cohesion::serve {

namespace {

/// Whether `path` is this shard's partial report.
bool usable_partial(const std::string& path, std::size_t shard, std::size_t of) {
  try {
    const run::Json doc = run::Json::parse_file(path);
    if (doc.string_or("format", "") != run::kPartialReportFormat) return false;
    const run::Json* sh = doc.find("shard");
    return sh != nullptr && sh->uint_or("index", ~0ull) == shard && sh->uint_or("count", 0) == of;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string sibling_runner() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "cohesion_run";
  buf[n] = '\0';
  const std::string exe(buf);
  const std::size_t slash = exe.rfind('/');
  if (slash == std::string::npos) return "cohesion_run";
  return exe.substr(0, slash + 1) + "cohesion_run";
}

int stop_process(::pid_t pid) {
  if (pid <= 0) return 0;  // kill(-1, ...) would signal every process we own
  ::kill(pid, SIGTERM);
  // A SIGSTOPped process only acts on the pending SIGTERM once continued.
  ::kill(pid, SIGCONT);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kRunnerStopGraceSeconds);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const ::pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno != EINTR)) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

RunnerExit classify_exit(int wait_status, const RunnerLaunch& launch) {
  RunnerExit exit;
  if (WIFSIGNALED(wait_status)) {
    exit.exit_code = run::kExitTransient;
    exit.reason = "killed by signal " + std::to_string(WTERMSIG(wait_status));
    return exit;
  }
  if (!WIFEXITED(wait_status)) {
    exit.exit_code = run::kExitTransient;
    exit.reason = "ended abnormally";
    return exit;
  }
  exit.exit_code = WEXITSTATUS(wait_status);
  // Exit 1 with this shard's partial report means in-run errors: the
  // report carries them exactly like a single process would.
  exit.covered = exit.exit_code == run::kExitSuccess ||
                 (exit.exit_code == run::kExitPermanent &&
                  usable_partial(launch.stem + ".partial.json", launch.shard, launch.of));
  if (!exit.covered) exit.reason = "exited " + std::to_string(exit.exit_code);
  return exit;
}

RunnerProcess RunnerProcess::spawn(const RunnerLaunch& launch) {
  const std::string partial = launch.stem + ".partial.json";
  ::unlink(partial.c_str());
  std::vector<std::string> args = {
      launch.runner,
      launch.spec_path,
      "--shard",
      std::to_string(launch.shard) + "/" + std::to_string(launch.of),
      "--resume",
      launch.stem + ".ckpt",
      "--out",
      partial,
      "--threads",
      std::to_string(std::max<std::size_t>(launch.threads, 1)),
  };
  if (launch.throttle_ms > 0) {
    args.push_back("--throttle-ms");
    args.push_back(std::to_string(launch.throttle_ms));
  }
  const std::string log_path = launch.stem + ".log";
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const ::pid_t pid = ::fork();
  if (pid < 0) throw run::TransientError(std::string("fork failed (") + std::strerror(errno) + ")");
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      if (log > STDERR_FILENO) ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failure — reported through the exit status
  }
  return RunnerProcess(pid, launch);
}

RunnerProcess::RunnerProcess(::pid_t pid, RunnerLaunch launch)
    : pid_(pid), launch_(std::move(launch)) {}

RunnerProcess::RunnerProcess(RunnerProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)), launch_(std::move(other.launch_)) {}

RunnerProcess::~RunnerProcess() {
  if (pid_ > 0) stop_process(pid_);
}

JournalRead JournalReader::next() {
  JournalRead read;
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return read;
  const std::size_t size = static_cast<std::size_t>(in.tellg());
  if (size < offset_) offset_ = lines_ = 0;
  in.seekg(static_cast<std::streamoff>(offset_));
  std::string grown(size - offset_, '\0');
  in.read(grown.data(), static_cast<std::streamsize>(grown.size()));
  grown.resize(static_cast<std::size_t>(in.gcount()));
  read.bytes = offset_ + grown.size();
  std::size_t pos = 0;
  for (std::size_t nl; (nl = grown.find('\n', pos)) != std::string::npos; pos = nl + 1) {
    if (lines_++ == 0) continue;  // header
    try {
      const std::string_view line = std::string_view(grown).substr(pos, nl - pos);
      read.fresh.push_back(run::RunOutcome::from_json(run::Json::parse(line)));
    } catch (const std::exception&) {
      // Mid-write weirdness of a live runner: skipped, never fatal.
    }
  }
  offset_ += pos;
  read.found = lines_ > 0;
  read.outcome_lines = lines_ > 0 ? lines_ - 1 : 0;
  return read;
}

void RunnerProcess::signal(int sig) const {
  if (pid_ > 0) ::kill(pid_, sig);
}

std::optional<RunnerExit> RunnerProcess::poll() {
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return std::nullopt;
  pid_ = -1;
  return classify_exit(status, launch_);
}

RunnerExit RunnerProcess::stop() {
  const int status = stop_process(pid_);
  pid_ = -1;
  return classify_exit(status, launch_);
}

}  // namespace cohesion::serve
