#include "run/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "run/exit_codes.hpp"

namespace cohesion::run {

namespace {

[[noreturn]] void fail(const std::string& label, const std::string& path,
                       const std::string& what) {
  throw std::runtime_error(label + " " + path + ": " + what);
}

[[noreturn]] void fail_io(const std::string& label, const std::string& path,
                          const std::string& what) {
  throw TransientError(label + " " + path + ": " + what);
}

[[noreturn]] void fail_write(const std::string& path, int err) {
  throw TransientError("cannot write " + path + " (" + std::strerror(err) + ")");
}

int open_or_throw(const std::string& label, const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) fail_io(label, path, std::string("cannot open (") + std::strerror(errno) + ")");
  return fd;
}

/// The one loop that writes a whole buffer with write(2), through short
/// writes and EINTR. Returns 0, or the errno of the write that failed.
int write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    off += static_cast<std::size_t>(w);
  }
  return 0;
}

void append_or_throw(int fd, const std::string& label, const std::string& path,
                     std::string_view data) {
  if (const int err = write_all(fd, data)) {
    fail_io(label, path, std::string("write failed (") + std::strerror(err) + ")");
  }
}

}  // namespace

void write_file(const std::string& path, std::string_view bytes) {
  if (path.empty()) {
    std::fflush(stdout);  // whatever the tool printed first stays first
    if (const int err = write_all(STDOUT_FILENO, bytes)) fail_write("stdout", err);
    return;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_write(path, errno);
  int err = write_all(fd, bytes);
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err != 0) fail_write(path, err);
}

void replace_file(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) fail_write(path, errno);
  int err = write_all(fd, bytes);
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && std::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    fail_write(path, err);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TransientError("cannot open " + path + " (" + std::strerror(errno) + ")");
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

LineJournal::LineJournal(int fd, std::string path, std::string label, std::size_t fsync_every)
    : fd_(fd), path_(std::move(path)), label_(std::move(label)), fsync_every_(fsync_every) {}

LineJournal::~LineJournal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

LineJournal::Loaded LineJournal::load(const JournalFormat& format, const std::string& path) {
  Loaded loaded;
  const std::string content = ::access(path.c_str(), F_OK) == 0 ? read_file(path) : "";
  // Complete lines end in '\n'; anything after the last '\n' is a torn
  // final line from a crash mid-append.
  const std::size_t last_nl = content.rfind('\n');
  loaded.valid_bytes = last_nl == std::string::npos ? 0 : last_nl + 1;
  loaded.dropped_tail_bytes = content.size() - loaded.valid_bytes;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < loaded.valid_bytes) {
    const std::size_t nl = content.find('\n', pos);
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    Json doc;
    try {
      doc = Json::parse(line);
    } catch (const std::exception& e) {
      fail(format.label, path,
           "line " + std::to_string(line_no) + " is not valid JSON — " + format.remedy + " (" +
               e.what() + ")");
    }
    if (line_no > 1) {
      loaded.records.push_back(std::move(doc));
      continue;
    }
    if (!doc.is_object() || doc.string_or("format", "") != format.marker) {
      fail(format.label, path,
           "missing/unknown format marker (expected \"" + format.marker + "\") — not " +
               format.noun);
    }
    loaded.header = std::move(doc);
  }
  return loaded;
}

std::unique_ptr<LineJournal> LineJournal::create(const JournalFormat& format,
                                                 const std::string& path, const Json& header,
                                                 std::size_t fsync_every) {
  const int fd = open_or_throw(format.label, path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND);
  try {
    append_or_throw(fd, format.label, path, header.dump() + "\n");
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::fsync(fd);
  return std::unique_ptr<LineJournal>(new LineJournal(fd, path, format.label, fsync_every));
}

std::unique_ptr<LineJournal> LineJournal::reopen(const JournalFormat& format,
                                                 const std::string& path, const Loaded& loaded,
                                                 std::size_t fsync_every) {
  const int fd = open_or_throw(format.label, path, O_WRONLY | O_APPEND);
  if (loaded.dropped_tail_bytes > 0 &&
      ::ftruncate(fd, static_cast<::off_t>(loaded.valid_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    fail_io(format.label, path, std::string("cannot truncate torn tail (") + std::strerror(err) + ")");
  }
  return std::unique_ptr<LineJournal>(new LineJournal(fd, path, format.label, fsync_every));
}

void LineJournal::append(const Json& record) {
  append_or_throw(fd_, label_, path_, record.dump() + "\n");
  if (fsync_every_ > 0 && ++since_sync_ >= fsync_every_) {
    since_sync_ = 0;
    if (::fsync(fd_) != 0) {
      fail_io(label_, path_, std::string("fsync failed (") + std::strerror(errno) + ")");
    }
  }
}

}  // namespace cohesion::run
