// Read-only ops endpoint over the framed-TCP transport (net/framing.hpp).
//
// Long-running hosts such as a sharded soak need to answer "how is it
// going" while they run. OpsServer is that answer's transport: a tiny
// request/response protocol riding the same [length][checksum][body]
// frames as the signaling plane, modeled on the daemon RPC split of
// Nix-style remote stores (one long-lived loopback connection, verbs in,
// payloads out).
//
// Wire format (inside one raw frame, util/bytes.hpp encoding):
//   request  = str(verb) str(args)
//   response = u8 status (0 ok, 1 error) str(content_type) str(payload)
//
// Robustness contract (tested by tests/ops_test.cpp): a malformed or
// truncated request body, or an unknown verb, produces an error *response*
// — never a crash, never a hang. A frame that fails its checksum is
// discarded like line noise (the client just retries); only a hostile
// length header kills the connection, and the listener keeps accepting.
//
// The server is strictly read-only with respect to the host: handlers are
// registered by the host and decide what to expose; the protocol has no
// mutating verbs. The listener is a net::Listener and each connection is a
// net::FramedConn served on its own session thread, so a slow reader cannot
// stall the sampler or other clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/framed_rpc.hpp"

namespace cmc::obs {

class OpsServer {
 public:
  // Handlers return the response payload; a thrown std::exception turns
  // into an error response carrying e.what().
  using Handler = std::function<std::string(const std::string& args)>;

  // Bind + listen on 127.0.0.1:port (0 picks a free port). Call start()
  // after registering verbs.
  explicit OpsServer(std::uint16_t port = 0);
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  [[nodiscard]] bool ok() const noexcept { return listener_.ok(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  // Register a verb (before start()).
  void handle(std::string verb, std::string content_type, Handler handler);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t errorsServed() const noexcept;

 private:
  struct Session;

  void acceptSession(int fd);
  void serveConnection(net::FramedConn& conn);
  [[nodiscard]] std::vector<std::uint8_t> respond(
      const std::vector<std::uint8_t>& request);

  std::atomic<bool> running_{false};
  mutable std::mutex mutex_;  // sessions_ + verb table + stats
  std::map<std::string, std::pair<std::string, Handler>> verbs_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t errors_ = 0;
  net::Listener listener_;  // last: its accept thread uses the members above
};

// Blocking client for cmc_top, tests, and scripts. One connection, one
// outstanding request at a time. A thin verb/response layer over
// net::FramedConn.
class OpsClient {
 public:
  struct Response {
    bool ok = false;
    std::string content_type;
    std::string body;  // error message when !ok
  };

  ~OpsClient();

  OpsClient(const OpsClient&) = delete;
  OpsClient& operator=(const OpsClient&) = delete;

  [[nodiscard]] static std::unique_ptr<OpsClient> connect(
      const std::string& host, std::uint16_t port);

  // Send one request and block for its response; nullopt when the
  // connection died (or the server skipped a corrupted request frame and
  // this client gave up waiting — see sendRaw for tests that need that).
  [[nodiscard]] std::optional<Response> request(const std::string& verb,
                                                const std::string& args = {});

  // ------------------------------------------------------------ test hooks
  // Write raw bytes to the socket (pre-framed or garbage) and read back one
  // framed response, if any. Lets tests speak malformed protocol.
  bool sendRaw(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::optional<Response> readResponse();

 private:
  explicit OpsClient(std::unique_ptr<net::FramedConn> conn);

  std::unique_ptr<net::FramedConn> conn_;
};

}  // namespace cmc::obs
