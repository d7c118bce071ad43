#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "run/args.hpp"
#include "run/exit_codes.hpp"

namespace cohesion::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw run::TransientNetworkError(what + ": " + std::strerror(errno));
}

void set_timeouts(int fd, double seconds) {
  if (seconds <= 0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Address Address::parse(const std::string& text) {
  Address out;
  if (text.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = text.substr(5);
    if (out.path.empty()) throw std::runtime_error("address \"" + text + "\": empty unix socket path");
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("address \"" + text + "\": unix socket path too long (max " +
                               std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes)");
    }
    return out;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    throw std::runtime_error("address \"" + text + "\": expected unix:PATH or HOST:PORT");
  }
  out.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  if (!run::parse_whole(port_text, out.port) || out.port == 0) {
    throw std::runtime_error("address \"" + text + "\": bad port \"" + port_text + "\"");
  }
  return out;
}

std::string Address::describe() const {
  if (is_unix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

int listen_on(const Address& address) {
  if (address.is_unix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    // A previous daemon's socket file would make bind fail with EADDRINUSE
    // even though nothing listens; the path belongs to whoever binds it.
    (void)::unlink(address.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      ::close(fd);
      throw_errno("bind(" + address.describe() + ")");
    }
    if (::listen(fd, 64) != 0) {
      ::close(fd);
      throw_errno("listen(" + address.describe() + ")");
    }
    return fd;
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(address.host.c_str(), std::to_string(address.port).c_str(),
                               &hints, &res);
  if (rc != 0) {
    throw run::TransientNetworkError("getaddrinfo(" + address.describe() +
                                     "): " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no usable address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) { last_error = std::strerror(errno); continue; }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0) break;
    last_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw run::TransientNetworkError("listen(" + address.describe() + "): " + last_error);
  }
  return fd;
}

int connect_to(const Address& address, double timeout_seconds) {
  int fd = -1;
  if (address.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      ::close(fd);
      throw_errno("connect(" + address.describe() + ")");
    }
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(address.host.c_str(), std::to_string(address.port).c_str(),
                                 &hints, &res);
    if (rc != 0) {
      throw run::TransientNetworkError("getaddrinfo(" + address.describe() +
                                       "): " + ::gai_strerror(rc));
    }
    std::string last_error = "no usable address";
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) { last_error = std::strerror(errno); continue; }
      set_timeouts(fd, timeout_seconds);  // bounds the connect itself too
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last_error = std::strerror(errno);
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
      throw run::TransientNetworkError("connect(" + address.describe() + "): " + last_error);
    }
  }
  set_timeouts(fd, timeout_seconds);
  return fd;
}

int accept_on(int listen_fd, double timeout_seconds) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  set_timeouts(fd, timeout_seconds);
  return fd;
}

LineConnection::LineConnection(int fd) : fd_(fd) {}

LineConnection::~LineConnection() { close_now(); }

LineConnection::LineConnection(LineConnection&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineConnection& LineConnection::operator=(LineConnection&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void LineConnection::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void LineConnection::send(const Json& message) {
  if (fd_ < 0) throw run::TransientNetworkError("send: connection already closed");
  std::string line = message.dump();
  line.push_back('\n');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<Json> LineConnection::receive() {
  if (fd_ < 0) throw run::TransientNetworkError("receive: connection already closed");
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return Json::parse(line);  // throws std::runtime_error on bad JSON
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        throw run::TransientNetworkError("recv: peer closed mid-message (torn line)");
      }
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace cohesion::serve
