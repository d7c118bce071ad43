// The one append-only line journal under the checkpoint journal and the
// serve job ledger: both typed wrappers must keep writing exactly the
// bytes they always wrote (header line, then one record per line), pinned
// here against literal fixtures.
#include "run/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

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

}  // namespace
}  // namespace cohesion::run
