// The one append-only line journal under the checkpoint journal and the
// serve job ledger: both typed wrappers must keep writing exactly the
// bytes they always wrote (header line, then one record per line), pinned
// here against literal fixtures. Also the whole-file writers beside it:
// replace_file publishes or leaves the target alone and never leaves a
// temp file behind; write_file writes in place, whatever the path is.
#include "run/journal.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "run/exit_codes.hpp"

#include "run/checkpoint.hpp"
#include "serve/ledger.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_journal_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(LineJournalBytes, CheckpointHeaderAndOutcomeMatchTheFixture) {
  TempFile f("ckpt_fixture");
  RunOutcome o;
  o.index = 4;
  o.variant = 1;
  o.repeat = 1;
  o.label = "k=2";
  o.seed = 12345678901234567890ull;
  o.n = 8;
  o.error = "engine: boom";
  {
    auto journal = CheckpointJournal::create(f.path(), "0123456789abcdef", 9, 1);
    journal->append(o);
    ASSERT_TRUE(journal->error().empty());
  }
  EXPECT_EQ(read_file(f.path()),
            "{\"format\":\"cohesion-checkpoint/1\",\"fingerprint\":\"0123456789abcdef\","
            "\"total_runs\":9}\n"
            "{\"index\":4,\"variant\":1,\"repeat\":1,\"label\":\"k=2\","
            "\"seed\":12345678901234567890,\"error\":\"engine: boom\"}\n");
}

TEST(LineJournalBytes, LedgerHeaderAndEventMatchTheFixture) {
  TempFile f("ledger_fixture");
  {
    serve::JobLedger::Loaded loaded;
    auto ledger = serve::JobLedger::open(f.path(), loaded);
    Json event = Json::object();
    event.set("event", "done");
    event.set("job", 3);
    ledger->append(event);
  }
  EXPECT_EQ(read_file(f.path()),
            "{\"format\":\"cohesion-serve-ledger/1\"}\n"
            "{\"event\":\"done\",\"job\":3}\n");
}

TEST(LineJournalBytes, TornTailIsDroppedOnLoadAndTruncatedOnReopen) {
  TempFile f("torn");
  const JournalFormat format{.label = "test", .marker = "m/1", .noun = "a test journal",
                             .remedy = "start over"};
  {
    Json header = Json::object();
    header.set("format", "m/1");
    auto journal = LineJournal::create(format, f.path(), header, 0);
    Json record = Json::object();
    record.set("x", 1);
    journal->append(record);
  }
  std::ofstream(f.path(), std::ios::binary | std::ios::app) << "{\"x\": 2";
  const LineJournal::Loaded loaded = LineJournal::load(format, f.path());
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].dump(), "{\"x\":1}");
  EXPECT_EQ(loaded.dropped_tail_bytes, 7u);
  // Loading alone never modifies the file; reopening truncates the tail.
  EXPECT_EQ(read_file(f.path()).size(), loaded.valid_bytes + 7);
  (void)LineJournal::reopen(format, f.path(), loaded, 0);
  EXPECT_EQ(read_file(f.path()), "{\"format\":\"m/1\"}\n{\"x\":1}\n");
}

TEST(LineJournalBytes, MissingFileLoadsEmptyAndForeignMarkerIsRejected) {
  TempFile f("foreign");
  const JournalFormat format{.label = "test", .marker = "m/1", .noun = "a test journal",
                             .remedy = "start over"};
  const LineJournal::Loaded missing = LineJournal::load(format, f.path());
  EXPECT_TRUE(missing.header.is_null());
  EXPECT_TRUE(missing.records.empty());
  std::ofstream(f.path(), std::ios::binary) << "{\"format\":\"other/1\"}\n";
  try {
    (void)LineJournal::load(format, f.path());
    FAIL() << "expected a format rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("expected \"m/1\""), std::string::npos) << e.what();
  }
}

/// A fresh directory for one writer test, removed afterwards.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_writers_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Every file name in the directory, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(path_)) {
      out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::string path_;
};

using Names = std::vector<std::string>;

TEST(FileWriters, ReplaceFilePublishesTheBytesAndLeavesNoTempFile) {
  TempDir dir("replace");
  const std::string target = dir.path() + "/entry.json";
  replace_file(target, "old\n");
  replace_file(target, "new bytes\n");
  EXPECT_EQ(read_file(target), "new bytes\n");
  EXPECT_EQ(dir.names(), Names{"entry.json"});
}

TEST(FileWriters, FailedReplaceFileLeavesTheTargetAndNoTempFile) {
  TempDir dir("replace_fail");
  // Into a missing directory: nothing is created, and the path is named.
  const std::string missing = dir.path() + "/absent/entry.json";
  try {
    replace_file(missing, "x");
    FAIL() << "expected a TransientError";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
  }
  EXPECT_TRUE(dir.names().empty());

  // A rename that fails (the target is a non-empty directory) unlinks the
  // temp file and leaves the target as it was.
  const std::string occupied = dir.path() + "/occupied";
  fs::create_directories(occupied);
  std::ofstream(occupied + "/inside") << "kept";
  EXPECT_THROW(replace_file(occupied, "x"), TransientError);
  EXPECT_EQ(dir.names(), Names{"occupied"});
  EXPECT_EQ(read_file(occupied + "/inside"), "kept");

  // A write that fails part way (file-size limit, in a child process so the
  // limit stays there) leaves the previous target byte-identical.
  const std::string target = dir.path() + "/entry.json";
  replace_file(target, "previous entry\n");
  const ::pid_t child = ::fork();
  if (child == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const ::rlimit limit{.rlim_cur = 4096, .rlim_max = RLIM_INFINITY};
    ::setrlimit(RLIMIT_FSIZE, &limit);
    try {
      replace_file(target, std::string(1 << 16, 'x'));
    } catch (const TransientError&) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3) << "the short write was not reported";
  EXPECT_EQ(read_file(target), "previous entry\n");
  EXPECT_EQ(dir.names(), (Names{"entry.json", "occupied"}));
}

TEST(FileWriters, WriteFileWritesInPlace) {
  // A device stays a device: no temp file is renamed over it.
  write_file("/dev/null", "discarded\n");
  EXPECT_TRUE(fs::is_character_file("/dev/null"));

  // A FIFO stays a FIFO, and its reader gets the bytes.
  TempDir dir("fifo");
  const std::string fifo = dir.path() + "/pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string received;
  std::thread reader([&] { received = read_file(fifo); });
  write_file(fifo, "through the pipe\n");
  reader.join();
  EXPECT_EQ(received, "through the pipe\n");
  EXPECT_TRUE(fs::is_fifo(fifo));
  EXPECT_EQ(dir.names(), Names{"pipe"});

  // An existing regular file is truncated and rewritten.
  const std::string file = dir.path() + "/report.json";
  std::ofstream(file) << "a much longer previous report\n";
  write_file(file, "short\n");
  EXPECT_EQ(read_file(file), "short\n");
}

TEST(FileWriters, WriteFileOnAFullDiskThrowsTransientNamingThePath) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    write_file("/dev/full", "lost\n");
    FAIL() << "expected a TransientError";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write /dev/full"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(fs::is_character_file("/dev/full"));
}

TEST(FileWriters, ReadFileOfAMissingFileIsTransient) {
  TempDir dir("read");
  EXPECT_THROW((void)read_file(dir.path() + "/absent"), TransientError);
  EXPECT_THROW((void)Json::parse_file(dir.path() + "/absent"), TransientError);
}

}  // namespace
}  // namespace cohesion::run
