// TCP realization of a signaling channel (paper Fig. 1: signaling rides a
// reliable transport between boxes in different physical components).
//
// A TcpSignalingPeer owns one connected socket. Sends are synchronous and
// serialized; receives run on a background reader thread that decodes
// frames and hands complete ChannelMessages to the registered callback.
// FIFO and reliability come from TCP itself, satisfying the signaling-
// channel contract of Section III-A.
//
// A peer either dials out (connect(), via net::connectTcp) or adopts a
// socket that a net::Listener (net/framed_rpc.hpp) accepted. close() only
// shuts the socket down, which wakes the reader; the destructor joins the
// reader and then closes the fd. The protocol and goal machinery neither
// know nor care whether their tunnel is an in-process deque
// (ChannelState), a simulated link, or this socket.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "net/framing.hpp"

namespace cmc::net {

class TcpSignalingPeer {
 public:
  using MessageHandler = std::function<void(const ChannelMessage&)>;
  using ClosedHandler = std::function<void()>;

  // Takes ownership of a connected socket fd.
  explicit TcpSignalingPeer(int fd);
  ~TcpSignalingPeer();

  TcpSignalingPeer(const TcpSignalingPeer&) = delete;
  TcpSignalingPeer& operator=(const TcpSignalingPeer&) = delete;

  // Register handlers and start the reader thread. Call once.
  void start(MessageHandler on_message, ClosedHandler on_closed = nullptr);

  // Send a message; thread-safe. Returns false if the connection is gone.
  bool send(const ChannelMessage& message);

  // Shut the connection down; the reader observes EOF and exits. The fd
  // stays owned until destruction.
  void close();
  [[nodiscard]] bool isOpen() const noexcept { return open_.load(); }

  // ------------------------------------------------- fault-injection hooks
  // Swallow the next send entirely (the frame never reaches the wire),
  // modeling loss below TCP — e.g. a dying relay. Test-only.
  void dropNextFrame() { drop_next_.store(true); }
  // Flip a byte in the next frame's body before sending; the peer's
  // checksum rejects it and counts it as corrupt. Test-only.
  void corruptNextFrame() { corrupt_next_.store(true); }

  // Connect to a listening peer. Returns nullptr on failure.
  [[nodiscard]] static std::unique_ptr<TcpSignalingPeer> connect(
      const std::string& host, std::uint16_t port);

 private:
  void readLoop();

  int fd_;
  std::atomic<bool> open_{true};
  std::atomic<bool> drop_next_{false};
  std::atomic<bool> corrupt_next_{false};
  std::mutex send_mutex_;
  MessageHandler on_message_;
  ClosedHandler on_closed_;
  std::thread reader_;
};

}  // namespace cmc::net
