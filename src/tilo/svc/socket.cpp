#include "tilo/svc/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "tilo/util/error.hpp"

namespace tilo::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`; -1 when there is no deadline,
/// clamped at 0 once it has passed.
int remaining_ms(const Clock::time_point* deadline) {
  if (!deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// Reads exactly `n` bytes, honouring the optional deadline.
FrameStatus read_exact(int fd, char* buf, std::size_t n, bool at_boundary,
                       const Clock::time_point* deadline) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline) {
      const int wait = remaining_ms(deadline);
      if (wait == 0) return FrameStatus::kTimeout;
      struct pollfd pfd = {fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wait);
      if (pr == 0) return FrameStatus::kTimeout;
      if (pr < 0) {
        if (errno == EINTR) continue;
        return FrameStatus::kError;
      }
    }
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0)
      return at_boundary && got == 0 ? FrameStatus::kClosed
                                     : FrameStatus::kTruncated;
    if (errno == EINTR) continue;
    return FrameStatus::kError;
  }
  return FrameStatus::kFrame;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Address Address::parse(std::string_view text) {
  TILO_REQUIRE(!text.empty(), "svc address is empty");
  Address a;
  if (text.rfind("unix:", 0) == 0) {
    a.kind = Kind::kUnix;
    a.path = std::string(text.substr(5));
    TILO_REQUIRE(!a.path.empty(), "svc address 'unix:' needs a path");
    return a;
  }
  if (text.rfind("tcp:", 0) == 0) {
    a.kind = Kind::kTcp;
    const std::string_view port = text.substr(4);
    long value = 0;
    for (const char c : port) {
      TILO_REQUIRE(c >= '0' && c <= '9' && value <= 65535,
                   "svc address '", std::string(text),
                   "': port must be 0..65535");
      value = value * 10 + (c - '0');
    }
    TILO_REQUIRE(!port.empty() && value <= 65535, "svc address '",
                 std::string(text), "': port must be 0..65535");
    a.port = static_cast<std::uint16_t>(value);
    return a;
  }
  // Bare paths are Unix sockets: "./s.sock", "/tmp/tilo.sock".
  TILO_REQUIRE(text.find('/') != std::string_view::npos, "svc address '",
               std::string(text),
               "' is neither 'unix:PATH', 'tcp:PORT' nor a socket path");
  a.kind = Kind::kUnix;
  a.path = std::string(text);
  return a;
}

std::string Address::str() const {
  return kind == Kind::kUnix ? "unix:" + path
                             : "tcp:" + std::to_string(port);
}

Fd listen_on(Address& addr) {
  if (addr.kind == Address::Kind::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    TILO_REQUIRE(addr.path.size() < sizeof(sa.sun_path),
                 "unix socket path too long: ", addr.path);
    std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    TILO_REQUIRE(fd.valid(), "socket(AF_UNIX): ", std::strerror(errno));
    ::unlink(addr.path.c_str());
    TILO_REQUIRE(::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                        sizeof(sa)) == 0,
                 "bind(", addr.path, "): ", std::strerror(errno));
    TILO_REQUIRE(::listen(fd.get(), 128) == 0, "listen(", addr.path,
                 "): ", std::strerror(errno));
    return fd;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only, always
  sa.sin_port = htons(addr.port);
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  TILO_REQUIRE(fd.valid(), "socket(AF_INET): ", std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  TILO_REQUIRE(::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                      sizeof(sa)) == 0,
               "bind(", addr.str(), "): ", std::strerror(errno));
  TILO_REQUIRE(::listen(fd.get(), 128) == 0, "listen(", addr.str(),
               "): ", std::strerror(errno));
  socklen_t len = sizeof(sa);
  TILO_REQUIRE(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                             &len) == 0,
               "getsockname: ", std::strerror(errno));
  addr.port = ntohs(sa.sin_port);
  return fd;
}

Fd accept_on(int listen_fd) {
  return Fd(::accept(listen_fd, nullptr, nullptr));
}

Fd connect_to(const Address& addr, int timeout_ms) {
  Fd fd;
  int rc = -1;
  if (addr.kind == Address::Kind::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    TILO_REQUIRE(addr.path.size() < sizeof(sa.sun_path),
                 "unix socket path too long: ", addr.path);
    std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    fd.reset(::socket(AF_UNIX, SOCK_STREAM, 0));
    TILO_REQUIRE(fd.valid(), "socket(AF_UNIX): ", std::strerror(errno));
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } else {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(addr.port);
    fd.reset(::socket(AF_INET, SOCK_STREAM, 0));
    TILO_REQUIRE(fd.valid(), "socket(AF_INET): ", std::strerror(errno));
    // Non-blocking connect so the timeout is enforceable.
    const int flags = ::fcntl(fd.get(), F_GETFL, 0);
    ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc < 0 && errno == EINPROGRESS) {
      struct pollfd pfd = {fd.get(), POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      TILO_REQUIRE(pr > 0, "connect(", addr.str(), "): ",
                   pr == 0 ? "timed out" : std::strerror(errno));
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
      TILO_REQUIRE(err == 0, "connect(", addr.str(),
                   "): ", std::strerror(err));
      rc = 0;
    }
    ::fcntl(fd.get(), F_SETFL, flags);
  }
  TILO_REQUIRE(rc == 0, "connect(", addr.str(), "): ",
               std::strerror(errno));
  return fd;
}

std::string_view frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kFrame: return "frame";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kTimeout: return "timeout";
    case FrameStatus::kError: return "error";
  }
  return "?";
}

FrameStatus read_frame(int fd, std::string& payload, std::size_t max_bytes,
                       int deadline_ms) {
  payload.clear();
  Clock::time_point deadline_buf{};
  const Clock::time_point* deadline = nullptr;
  if (deadline_ms >= 0) {
    deadline_buf = Clock::now() + std::chrono::milliseconds(deadline_ms);
    deadline = &deadline_buf;
  }
  unsigned char prefix[4];
  FrameStatus st = read_exact(fd, reinterpret_cast<char*>(prefix), 4,
                              /*at_boundary=*/true, deadline);
  if (st != FrameStatus::kFrame) return st;
  const std::size_t len = (std::size_t{prefix[0]} << 24) |
                          (std::size_t{prefix[1]} << 16) |
                          (std::size_t{prefix[2]} << 8) |
                          std::size_t{prefix[3]};
  if (len > max_bytes) return FrameStatus::kOversized;
  payload.resize(len);
  if (len == 0) return FrameStatus::kFrame;
  st = read_exact(fd, payload.data(), len, /*at_boundary=*/false, deadline);
  if (st != FrameStatus::kFrame) payload.clear();
  return st;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFu) return false;
  const std::size_t len = payload.size();
  std::string buf;
  buf.reserve(4 + len);
  buf.push_back(static_cast<char>((len >> 24) & 0xFF));
  buf.push_back(static_cast<char>((len >> 16) & 0xFF));
  buf.push_back(static_cast<char>((len >> 8) & 0xFF));
  buf.push_back(static_cast<char>(len & 0xFF));
  buf.append(payload);
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t w =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// --------------------------------------------------------------- Listener

bool Listener::Conn::send(std::string_view wire) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return write_frame(fd_.get(), wire);
}

Listener::Listener(std::size_t max_frame_bytes, Handler handler)
    : max_frame_bytes_(max_frame_bytes), handler_(std::move(handler)) {}

Listener::~Listener() { close(); }

void Listener::start(std::string_view address) {
  TILO_REQUIRE(!listen_fd_.valid(), "svc::Listener::start called twice");
  addr_ = Address::parse(address);
  listen_fd_ = listen_on(addr_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::stop_accepting() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!listen_fd_.valid()) return;
  listen_fd_.reset();
  if (addr_.kind == Address::Kind::kUnix) ::unlink(addr_.path.c_str());
}

void Listener::close() {
  stop_accepting();
  std::vector<std::unique_ptr<Reader>> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Reader>& r : readers_)
      if (r->conn) ::shutdown(r->conn->fd(), SHUT_RD);
    readers.swap(readers_);
  }
  for (const std::unique_ptr<Reader>& r : readers) r->thread.join();
}

std::size_t Listener::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(readers_.begin(), readers_.end(),
                    [](const std::unique_ptr<Reader>& r) { return r->conn; }));
}

std::size_t Listener::readers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return readers_.size();
}

void Listener::accept_loop() {
  for (;;) {
    Fd fd = accept_on(listen_fd_.get());
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!fd.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket gone
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>(std::move(fd));
    std::lock_guard<std::mutex> lock(mu_);
    // Reap readers whose connections already ended.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if ((*it)->conn) {
        ++it;
        continue;
      }
      (*it)->thread.join();
      it = readers_.erase(it);
    }
    auto reader = std::make_unique<Reader>();
    reader->conn = conn;
    Reader* raw = reader.get();
    reader->thread = std::thread(
        [this, raw, conn]() mutable { read_loop(raw, std::move(conn)); });
    readers_.push_back(std::move(reader));
  }
}

void Listener::read_loop(Reader* reader, std::shared_ptr<Conn> conn) {
  std::string payload;
  for (;;) {
    const FrameStatus st = read_frame(conn->fd(), payload, max_frame_bytes_);
    if (st != FrameStatus::kFrame && st != FrameStatus::kOversized) break;
    // After an oversized prefix the stream is unframeable: one call, then
    // the connection ends whatever the handler returns.
    if (!handler_(conn, st, payload) || st == FrameStatus::kOversized) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  reader->conn.reset();
}

}  // namespace tilo::svc
