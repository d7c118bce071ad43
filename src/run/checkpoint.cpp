#include "run/checkpoint.hpp"

#include <stdexcept>

namespace cohesion::run {

namespace {

const JournalFormat kFormat{
    .label = "checkpoint",
    .marker = "cohesion-checkpoint/1",
    .noun = "a cohesion checkpoint file",
    .remedy = "the file is corrupted beyond simple tail truncation; delete it to restart "
              "from scratch",
};

void fnv1a(std::uint64_t& h, std::string_view text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
}

std::string hex16(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = digits[h & 0xF];
  return out;
}

// Failures of the *input* (wrong fingerprint, a line that is not an
// outcome) are permanent: the same invocation fails the same way forever.
// Environment failures surface from LineJournal as TransientError.
[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint " + path + ": " + what);
}

}  // namespace

std::string runs_fingerprint(const std::vector<ExpandedRun>& runs, const EarlyStop& early_stop) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const ExpandedRun& run : runs) {
    fnv1a(h, std::to_string(run.index));
    fnv1a(h, ":");
    fnv1a(h, run.spec.to_json().dump());
    fnv1a(h, ";");
  }
  fnv1a(h, "early_stop=");
  fnv1a(h, early_stop.to_json().dump());
  return hex16(h);
}

CheckpointJournal::CheckpointJournal(std::unique_ptr<LineJournal> journal)
    : journal_(std::move(journal)) {}

CheckpointJournal::~CheckpointJournal() = default;

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every) {
  Json header = Json::object();
  header.set("format", kFormat.marker);
  header.set("fingerprint", fingerprint);
  header.set("total_runs", total_runs);
  return std::unique_ptr<CheckpointJournal>(
      new CheckpointJournal(LineJournal::create(kFormat, path, header, fsync_every)));
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::resume(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every,
                                                             Loaded& loaded) {
  loaded = Loaded{};
  const LineJournal::Loaded file = LineJournal::load(kFormat, path);
  // A missing file, or one with no complete header line (crash before the
  // very first fsync, or an empty placeholder), holds no outcomes: resuming
  // a run that never started is just starting it.
  if (file.header.is_null()) return create(path, fingerprint, total_runs, fsync_every);
  loaded.dropped_tail_bytes = file.dropped_tail_bytes;

  const std::string found = file.header.string_or("fingerprint", "");
  if (found != fingerprint) {
    fail(path, "fingerprint mismatch (file " + found + ", this run " + fingerprint +
                   ") — the checkpoint was written for a different spec, shard "
                   "selection or early-stop rule; rerun with the original "
                   "arguments or delete the file to start over");
  }
  if (file.header.uint_or("total_runs", 0) != total_runs) {
    fail(path, "total_runs mismatch (file " + std::to_string(file.header.uint_or("total_runs", 0)) +
                   ", this run " + std::to_string(total_runs) + ")");
  }
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    try {
      loaded.outcomes.push_back(RunOutcome::from_json(file.records[i]));
    } catch (const std::exception& e) {
      fail(path, "line " + std::to_string(i + 2) + " is not a run outcome (" + e.what() + ")");
    }
    // Indices are *global* grid positions (a shard's journal holds a
    // sparse subset), so membership is validated by the caller against
    // its run list, not against total_runs here.
  }
  return std::unique_ptr<CheckpointJournal>(
      new CheckpointJournal(LineJournal::reopen(kFormat, path, file, fsync_every)));
}

void CheckpointJournal::append(const RunOutcome& outcome) noexcept {
  try {
    const Json record = outcome.to_json();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_.empty()) return;  // journal already dead; keep the batch alive
    journal_->append(record);
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_.empty()) error_ = e.what();
  }
}

std::string CheckpointJournal::error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

}  // namespace cohesion::run
