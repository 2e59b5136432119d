#include "net/tcp_transport.hpp"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <variant>

#include "net/framed_rpc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc::net {

namespace {

// Transport counters, per thread: send() runs on the caller's thread and
// readLoop() on the peer's reader thread.
thread_local obs::CounterHandle t_frames_dropped{"net.frames_dropped"};
thread_local obs::CounterHandle t_frames_corrupted{"net.frames_corrupted"};
thread_local obs::CounterHandle t_frames_sent{"net.frames_sent"};
thread_local obs::CounterHandle t_bytes_sent{"net.bytes_sent"};
thread_local obs::CounterHandle t_frames_received{"net.frames_received"};
thread_local obs::CounterHandle t_bytes_received{"net.bytes_received"};
thread_local obs::CounterHandle t_frames_rejected{"net.frames_rejected_checksum"};

}  // namespace

TcpSignalingPeer::TcpSignalingPeer(int fd) : fd_(fd) {
  // Signaling is latency-sensitive and messages are tiny: disable Nagle.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpSignalingPeer::~TcpSignalingPeer() {
  close();
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void TcpSignalingPeer::start(MessageHandler on_message, ClosedHandler on_closed) {
  on_message_ = std::move(on_message);
  on_closed_ = std::move(on_closed);
  reader_ = std::thread([this]() { readLoop(); });
}

bool TcpSignalingPeer::send(const ChannelMessage& message) {
  if (!open_.load()) return false;
  if (drop_next_.exchange(false)) {
    if (obs::Counter* dropped = t_frames_dropped.get()) dropped->add();
    return true;  // the frame was "sent" — and lost below us
  }
  std::vector<std::uint8_t> frame;
  obs::TraceRecorder* rec = obs::recorder();
  if (rec != nullptr && rec->propagationEnabled()) {
    // Stamp the sender's causal context in-band (frame tag 2/3) unless the
    // caller already attached one; the far end's runtime adopts it when it
    // turns the decoded message into a stimulus.
    ChannelMessage stamped = message;
    obs::TraceContext& ctx = std::visit(
        [](auto& m) -> obs::TraceContext& { return m.ctx; }, stamped);
    if (ctx.empty()) ctx = obs::currentContext();
    frame = encodeFrame(stamped);
  } else {
    frame = encodeFrame(message);
  }
  if (corrupt_next_.exchange(false) && frame.size() > 8) {
    frame.back() ^= 0x5a;  // body byte: header checksum now rejects it
    if (obs::Counter* corrupted = t_frames_corrupted.get()) corrupted->add();
  }
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (!sendAll(fd_, frame)) {
    open_.store(false);
    return false;
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    t_frames_sent.in(*m).add();
    t_bytes_sent.in(*m).add(frame.size());
  }
  return true;
}

void TcpSignalingPeer::close() {
  open_.store(false);
  ::shutdown(fd_, SHUT_RDWR);
}

void TcpSignalingPeer::readLoop() {
  FrameDecoder decoder;
  std::uint64_t corrupt_seen = 0;
  std::uint8_t chunk[4096];
  while (open_.load()) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    decoder.feed(chunk, static_cast<std::size_t>(n));
    obs::MetricsRegistry* m = obs::metrics();
    if (m != nullptr) t_bytes_received.in(*m).add(static_cast<std::uint64_t>(n));
    while (auto message = decoder.next()) {
      if (m != nullptr) t_frames_received.in(*m).add();
      if (on_message_) on_message_(*message);
    }
    if (decoder.corruptFrames() > corrupt_seen) {
      if (m != nullptr) {
        t_frames_rejected.in(*m).add(decoder.corruptFrames() - corrupt_seen);
      }
      corrupt_seen = decoder.corruptFrames();
    }
    if (decoder.error()) {
      log::warn("net", "malformed frame; dropping connection");
      break;
    }
  }
  open_.store(false);
  if (on_closed_) on_closed_();
}

std::unique_ptr<TcpSignalingPeer> TcpSignalingPeer::connect(
    const std::string& host, std::uint16_t port) {
  const int fd = connectTcp(host, port);
  if (fd < 0) return nullptr;
  return std::make_unique<TcpSignalingPeer>(fd);
}

}  // namespace cmc::net
