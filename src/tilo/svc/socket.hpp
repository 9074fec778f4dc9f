// POSIX plumbing for the plan-compilation service: service addresses
// (Unix-domain socket path or localhost TCP port), RAII file descriptors,
// the length-prefixed frame codec both ends of the wire speak, and the
// Listener that svc::Server and fleet::Controller both serve through.
//
// A frame is a 4-byte big-endian payload length followed by that many
// payload bytes (the JSON document).  The reader is defensive by
// construction: a length prefix beyond the configured cap is rejected
// without allocating, EOF mid-frame is distinguished from a clean close at
// a frame boundary, and every read can carry a deadline — the failure modes
// a server must survive (truncated frames, oversized prefixes, clients
// vanishing mid-request) are explicit enum values, not surprises.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace tilo::svc {

/// RAII file descriptor (sockets here, but any fd works).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Where a service lives: "unix:/run/tilo.sock" (or any text containing a
/// '/') for a Unix-domain socket, "tcp:7070" for localhost TCP.  The
/// service never listens on non-loopback interfaces.
struct Address {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;         ///< kUnix: the socket path
  std::uint16_t port = 0;   ///< kTcp: the localhost port (0 = ephemeral)

  /// Parses the textual forms above; throws util::Error otherwise.
  static Address parse(std::string_view text);
  std::string str() const;
};

/// Binds and listens; for tcp with port 0 the kernel-chosen port is written
/// back into `addr`.  An existing Unix socket path is unlinked first (the
/// caller owns the path).  Throws util::Error on failure.
Fd listen_on(Address& addr);

/// Accepts one connection; an invalid Fd on transient failure or when the
/// listening socket was closed.
Fd accept_on(int listen_fd);

/// Connects with a timeout; throws util::Error naming the address on
/// failure (connection refused, no such socket, timeout).
Fd connect_to(const Address& addr, int timeout_ms);

// ---------------------------------------------------------------- framing

/// Default cap on one frame's payload; a plan bundle for the paper spaces
/// is a few hundred KiB, so 16 MiB is generous without letting one bogus
/// prefix allocate the machine away.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameStatus {
  kFrame,      ///< a complete payload was read
  kClosed,     ///< clean EOF at a frame boundary
  kTruncated,  ///< EOF mid-frame (peer vanished mid-request)
  kOversized,  ///< length prefix exceeds the cap; nothing else was read
  kTimeout,    ///< the deadline passed before a full frame arrived
  kError,      ///< read error (errno-level failure)
};
std::string_view frame_status_name(FrameStatus status);

/// Reads one frame into `payload`.  `deadline_ms` < 0 waits forever; the
/// deadline covers the whole frame, not each byte.
FrameStatus read_frame(int fd, std::string& payload,
                       std::size_t max_bytes = kDefaultMaxFrameBytes,
                       int deadline_ms = -1);

/// Writes one frame (prefix + payload); false when the peer is gone or the
/// payload exceeds the 32-bit prefix.  Never raises SIGPIPE.
bool write_frame(int fd, std::string_view payload);

// --------------------------------------------------------------- Listener

/// The server side of the wire: one accept thread, one reader thread per
/// connection, and the table that joins them again.  A reader calls the
/// handler once per frame; finished readers are reaped on the next accept,
/// so the thread table tracks live connections, not every one ever seen.
/// Teardown is two steps so a server can finish admitted work in between:
/// stop_accepting() closes the door, close() disconnects and joins.
class Listener {
 public:
  /// One client connection.  send() is serialized by a write mutex, since
  /// a reader and a worker finishing a request may answer concurrently.
  /// The socket closes when the last holder lets go, so a worker can still
  /// answer after the reader has ended.
  class Conn {
   public:
    explicit Conn(Fd fd) : fd_(std::move(fd)) {}
    int fd() const { return fd_.get(); }
    /// Writes one frame; false when the peer is gone.
    bool send(std::string_view wire);

   private:
    Fd fd_;
    std::mutex write_mu_;
  };

  /// Called on the connection's reader thread with kFrame and the payload,
  /// or once with kOversized (empty payload) when a length prefix exceeds
  /// the cap; the connection then closes, as it does on a false return.
  /// Any other status ends the connection without a call.
  using Handler = std::function<bool(const std::shared_ptr<Conn>&,
                                     FrameStatus, const std::string&)>;

  Listener(std::size_t max_frame_bytes, Handler handler);
  ~Listener();  // close()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Parses and binds `address`, then starts the accept thread.  Throws
  /// util::Error when the address is malformed or cannot be bound.
  void start(std::string_view address);

  /// The bound address (tcp:0 becomes the kernel-chosen port).
  const Address& address() const { return addr_; }

  /// Shuts the listening socket, joins the accept thread and unlinks a
  /// Unix socket path.  Live connections keep being served.  Idempotent.
  void stop_accepting();

  /// stop_accepting(), then shuts the read side of every live connection
  /// and joins every reader.  Idempotent.
  void close();

  /// Connections accepted so far.
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections whose reader is still running.
  std::size_t live() const;
  /// Reader threads not yet joined: the live ones plus finished ones
  /// awaiting the next accept.
  std::size_t readers() const;

 private:
  struct Reader {
    std::shared_ptr<Conn> conn;  ///< null once the reader finished
    std::thread thread;
  };

  void accept_loop();
  void read_loop(Reader* reader, std::shared_ptr<Conn> conn);

  const std::size_t max_frame_bytes_;
  const Handler handler_;
  Address addr_;
  Fd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Reader>> readers_;  ///< guarded by mu_
  std::thread accept_thread_;
};

}  // namespace tilo::svc
