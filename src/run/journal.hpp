// Append-only JSON-lines journal: the one durability primitive under the
// checkpoint journal (run/checkpoint) and the serve job ledger
// (serve/ledger). Both are typed wrappers that own their header fields
// and record schema; the framing lives here, once:
//
//   * one '\n'-terminated JSON document per line; line 1 is a header
//     object whose "format" marker names the file kind;
//   * every append is a single write(2) of a complete line on an O_APPEND
//     fd, fsync'd every `fsync_every` appends (0: only on close), so a
//     crash can tear at most the final line;
//   * load() drops a torn tail (bytes after the last '\n'); reopen()
//     truncates the file back to the last complete line before appending
//     resumes. Malformed JSON anywhere before the tail is corruption, not
//     a crash artifact, and is rejected.
//
// Failures of the input (bad marker, malformed line) throw
// std::runtime_error; failures of the environment (open, write, fsync,
// truncate) throw run::TransientError — the exit-code taxonomy's split.
//
// The whole-file boundary lives here too, so every file the system reads
// or writes goes through one write(2) loop and one reader:
//
//   * write_file — a user-named output (--out, --svg, stdout), written in
//     place, so /dev/stdout, FIFOs and symlinks keep working;
//   * replace_file — a file the system creates and owns (cache entries,
//     job spec files), published through a temp file and rename(2);
//   * read_file — a whole input file.
//
// All three throw run::TransientError naming the path and errno.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "run/json.hpp"

namespace cohesion::run {

/// Write `bytes` to `path` in place (created or truncated, never renamed
/// over), or to standard output when `path` is empty. A failed open, short
/// write or failed close throws TransientError naming the path.
void write_file(const std::string& path, std::string_view bytes);

/// Publish `bytes` at `path` atomically: a unique temp file in the same
/// directory, written in full, fsync'd and renamed over `path`, so a reader
/// sees the old file or the whole new one. On failure the temp file is
/// unlinked, `path` is left as it was and TransientError is thrown.
/// Concurrent publishers of one path race benignly (last rename wins).
void replace_file(const std::string& path, std::string_view bytes);

/// The whole content of `path`; a file that cannot be opened throws
/// TransientError (it may not have landed yet).
std::string read_file(const std::string& path);

/// Names one journal kind, for the header check and for error messages.
struct JournalFormat {
  std::string label;   ///< message prefix: "checkpoint", "ledger"
  std::string marker;  ///< header "format" value, e.g. "cohesion-checkpoint/1"
  std::string noun;    ///< "a cohesion checkpoint file"
  std::string remedy;  ///< what to do about a corrupt body
};

class LineJournal {
 public:
  struct Loaded {
    Json header;                    ///< null when the file held no complete line
    std::vector<Json> records;      ///< every complete line after the header
    std::size_t valid_bytes = 0;    ///< bytes up to and including the last '\n'
    std::size_t dropped_tail_bytes = 0;  ///< torn final line, if any
  };

  /// Read `path` (a missing file loads as empty), parse every complete
  /// line and check the header's format marker. Never modifies the file,
  /// so a caller can still reject the header (fingerprint) afterwards.
  static Loaded load(const JournalFormat& format, const std::string& path);

  /// Start a fresh journal at `path` (an existing file is overwritten) with
  /// `header` as line 1, fsync'd.
  static std::unique_ptr<LineJournal> create(const JournalFormat& format,
                                             const std::string& path, const Json& header,
                                             std::size_t fsync_every);

  /// Open a loaded, non-empty journal for appending, truncating any torn
  /// tail `load` reported.
  static std::unique_ptr<LineJournal> reopen(const JournalFormat& format,
                                             const std::string& path, const Loaded& loaded,
                                             std::size_t fsync_every);

  /// Append one record as a single line write; fsyncs on the configured
  /// cadence. Throws run::TransientError on write or fsync failure.
  void append(const Json& record);

  ~LineJournal();
  LineJournal(const LineJournal&) = delete;
  LineJournal& operator=(const LineJournal&) = delete;

 private:
  LineJournal(int fd, std::string path, std::string label, std::size_t fsync_every);

  int fd_ = -1;
  std::string path_;
  std::string label_;
  std::size_t fsync_every_ = 1;
  std::size_t since_sync_ = 0;
};

}  // namespace cohesion::run
