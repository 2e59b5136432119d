// One socket path for every TCP link in the system: connectTcp() dials,
// Listener binds and accepts, FramedConn carries raw frames.
//
// The read-only ops/telemetry plane (obs/ops_server) rides the raw
// [length][checksum][body] frames of net/framing.hpp through this header:
// a loopback listener whose accept loop runs on its own thread, a connect
// to a loopback peer, whole-frame sends, and complete frame bodies popped
// off the stream with the decoder state carried across reads. The
// signaling transport (net/tcp_transport) shares the listener and the
// connect. OpsClient/OpsServer are a thin verb/response layer over it.
//
// Read semantics mirror the decoder contract: a corrupt frame is skipped
// like line noise (never surfaced), a hostile length poisons the stream
// (lastRead() == poisoned; hang up), and EOF, a connection error or a
// receive timeout all read as closed.
//
// Shutdown order, everywhere a thread may be blocked on a socket: shut the
// socket down (wakes the blocked call), join the thread, then close the fd.
// Closing first would let the fd number be reused under the blocked thread.
//
// Header-only on purpose: cmc_net links cmc_obs (trace stamping), and
// cmc_obs's OpsServer/OpsClient need these types, so an out-of-line
// definition in either library would cycle.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/framing.hpp"
#include "util/log.hpp"

namespace cmc::net {

// Connect a TCP socket to host:port (dotted IPv4). Returns the connected
// fd, owned by the caller, or -1.
[[nodiscard]] inline int connectTcp(const std::string& host,
                                    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Write every byte to a connected socket; false when the connection is gone.
[[nodiscard]] inline bool sendAll(int fd,
                                  std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// A loopback listening socket with its accept loop on its own thread.
class Listener {
 public:
  using AcceptHandler = std::function<void(int fd)>;

  // Bind and listen on 127.0.0.1:port (0 picks a free port; see port()).
  explicit Listener(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, kBacklog) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    port_ = ntohs(addr.sin_port);
  }

  ~Listener() { stop(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Run the accept loop on its own thread; on_accept owns every accepted
  // fd. Call once; a no-op on a listener that failed to bind or stopped.
  // A throwing on_accept (say, no thread left for the session) costs that
  // one connection, not the listener.
  void start(AcceptHandler on_accept) {
    if (fd_ < 0 || thread_.joinable()) return;
    thread_ = std::thread([fd = fd_, on_accept = std::move(on_accept)]() {
      while (true) {
        const int client = ::accept(fd, nullptr, nullptr);
        if (client < 0) return;  // shut down by stop()
        try {
          on_accept(client);
        } catch (const std::exception& e) {
          log::warn("net", "dropping accepted connection: ", e.what());
        }
      }
    });
  }

  // Stop accepting: shut down (wakes a blocked accept), join, then close.
  // Idempotent; also runs from the destructor.
  void stop() {
    if (fd_ < 0) return;
    ::shutdown(fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
    fd_ = -1;
  }

 private:
  static constexpr int kBacklog = 16;

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

class FramedConn {
 public:
  enum class ReadStatus {
    none,      // no read attempted yet
    frame,     // last read produced a complete frame
    closed,    // peer closed, connection error, or receive timeout
    poisoned,  // hostile length header: stream lost sync, hang up
  };

  // Adopt a connected socket (server side of an accepted link).
  explicit FramedConn(int fd) : fd_(fd) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~FramedConn() { close(); }

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  // Connect to host:port; nullptr on failure. recv_timeout_ms bounds every
  // subsequent read (a response may legitimately never come — the peer
  // discards corrupted request frames as loss — so reads must not hang).
  [[nodiscard]] static std::unique_ptr<FramedConn> connect(
      const std::string& host, std::uint16_t port,
      std::int64_t recv_timeout_ms = 5'000) {
    const int fd = connectTcp(host, port);
    if (fd < 0) return nullptr;
    auto conn = std::unique_ptr<FramedConn>(new FramedConn(fd));
    conn->setRecvTimeoutMs(recv_timeout_ms);
    return conn;
  }

  void setRecvTimeoutMs(std::int64_t ms) {
    if (fd_ < 0 || ms < 0) return;
    timeval timeout{};
    timeout.tv_sec = ms / 1000;
    timeout.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  // Frame `body` and send it. Thread-safe: sends are serialized, so two
  // senders cannot interleave bytes. Returns false when the connection is
  // gone.
  bool sendFrame(std::span<const std::uint8_t> body) {
    return sendBytes(encodeRawFrame(body));
  }

  // Send raw bytes as-is (pre-framed, torn, or garbage — the protocol-abuse
  // tests speak malformed wire through this).
  bool sendBytes(std::span<const std::uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(send_mutex_);
    return fd_ >= 0 && sendAll(fd_, bytes);
  }

  // Next complete frame body, or nullopt — inspect lastRead() to tell a
  // closed stream from a poisoned one. Decoder state (including a
  // partially received frame) carries over between calls.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> readFrame() {
    if (fd_ < 0) {
      last_read_ = ReadStatus::closed;
      return std::nullopt;
    }
    std::uint8_t chunk[4096];
    while (true) {
      if (auto frame = decoder_.next()) {
        last_read_ = ReadStatus::frame;
        return frame;
      }
      if (decoder_.error()) {
        last_read_ = ReadStatus::poisoned;
        return std::nullopt;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        last_read_ = ReadStatus::closed;
        return std::nullopt;
      }
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] ReadStatus lastRead() const noexcept { return last_read_; }

  // Wake a reader blocked in readFrame() from another thread (it observes
  // EOF); the fd itself stays owned until close()/destruction.
  void shutdownNow() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void close() {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  RawFrameDecoder decoder_;
  ReadStatus last_read_ = ReadStatus::none;
  std::mutex send_mutex_;
};

}  // namespace cmc::net
