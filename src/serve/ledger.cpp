#include "serve/ledger.hpp"

#include <stdexcept>

namespace cohesion::serve {

namespace {

const run::JournalFormat kFormat{
    .label = "ledger",
    .marker = kLedgerFormat,
    .noun = "a cohesion serve ledger",
    .remedy = "corruption beyond tail truncation; move the file aside to start a fresh ledger",
};

}  // namespace

JobLedger::JobLedger(std::unique_ptr<run::LineJournal> journal) : journal_(std::move(journal)) {}

JobLedger::~JobLedger() = default;

std::unique_ptr<JobLedger> JobLedger::open(const std::string& path, Loaded& loaded) {
  loaded = Loaded{};
  const run::LineJournal::Loaded file = run::LineJournal::load(kFormat, path);
  if (file.header.is_null()) {
    // Missing, empty, or torn before the first fsync: start fresh.
    Json header = Json::object();
    header.set("format", kLedgerFormat);
    return std::unique_ptr<JobLedger>(
        new JobLedger(run::LineJournal::create(kFormat, path, header, /*fsync_every=*/1)));
  }
  loaded.dropped_tail_bytes = file.dropped_tail_bytes;
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    LedgerEvent event;
    event.event = file.records[i].string_or("event", "");
    event.job = file.records[i].uint_or("job", 0);
    if (event.event.empty()) {
      throw std::runtime_error("ledger " + path + ": line " + std::to_string(i + 2) +
                               " has no \"event\" field");
    }
    event.payload = file.records[i];
    loaded.events.push_back(std::move(event));
  }
  return std::unique_ptr<JobLedger>(
      new JobLedger(run::LineJournal::reopen(kFormat, path, file, /*fsync_every=*/1)));
}

void JobLedger::append(const Json& event) { journal_->append(event); }

}  // namespace cohesion::serve
