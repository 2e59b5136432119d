#include "obs/ops_server.hpp"

#include <exception>
#include <thread>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace cmc::obs {

namespace {

std::vector<std::uint8_t> encodeResponse(bool ok, std::string_view ctype,
                                         std::string_view payload) {
  ByteWriter body;
  body.u8(ok ? 0 : 1);
  body.str(ctype);
  body.str(payload);
  return body.take();
}

}  // namespace

struct OpsServer::Session {
  std::unique_ptr<net::FramedConn> conn;
  std::thread thread;
  std::atomic<bool> done{false};
};

OpsServer::OpsServer(std::uint16_t port) : listener_(port) {}

OpsServer::~OpsServer() { stop(); }

void OpsServer::handle(std::string verb, std::string content_type,
                       Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  verbs_[std::move(verb)] = {std::move(content_type), std::move(handler)};
}

void OpsServer::start() {
  if (!listener_.ok() || running_.exchange(true)) return;
  listener_.start([this](int fd) { acceptSession(fd); });
}

void OpsServer::stop() {
  running_.store(false);
  listener_.stop();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    session->conn->shutdownNow();
    if (session->thread.joinable()) session->thread.join();
  }
}

std::uint64_t OpsServer::errorsServed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

void OpsServer::acceptSession(int fd) {
  auto session = std::make_unique<Session>();
  session->conn = std::make_unique<net::FramedConn>(fd);
  Session* raw = session.get();
  session->thread = std::thread([this, raw]() {
    serveConnection(*raw->conn);
    raw->done.store(true);
  });
  std::lock_guard<std::mutex> lock(mutex_);
  // Reap finished sessions so a polling client that reconnects every
  // interval does not grow the list without bound.
  for (std::size_t i = 0; i < sessions_.size();) {
    if (sessions_[i]->done.load()) {
      if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  sessions_.push_back(std::move(session));
}

void OpsServer::serveConnection(net::FramedConn& conn) {
  while (running_.load()) {
    auto request = conn.readFrame();
    if (!request) {
      if (conn.lastRead() == net::FramedConn::ReadStatus::poisoned) {
        // Hostile length header: the stream has lost sync; there is no way
        // to even frame an error response, so drop the connection. The
        // listener keeps serving other clients.
        log::warn("ops", "malformed frame header; dropping ops connection");
      }
      break;
    }
    if (!conn.sendFrame(respond(*request))) break;
  }
  // The fd itself is closed when the session is reaped (or at stop());
  // shut it down now so the peer sees EOF instead of waiting out a
  // receive timeout.
  conn.shutdownNow();
}

std::vector<std::uint8_t> OpsServer::respond(
    const std::vector<std::uint8_t>& request) {
  ByteReader reader(request.data(), request.size());
  const std::string verb = reader.str();
  const std::string args = reader.str();
  if (!reader.ok() || !reader.atEnd()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return encodeResponse(false, "text/plain", "malformed request body");
  }
  Handler handler;
  std::string ctype;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = verbs_.find(verb);
    if (it == verbs_.end()) {
      ++errors_;
      return encodeResponse(false, "text/plain", "unknown verb: " + verb);
    }
    ctype = it->second.first;
    handler = it->second.second;
  }
  try {
    return encodeResponse(true, ctype, handler(args));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return encodeResponse(false, "text/plain",
                          std::string("handler failed: ") + e.what());
  }
}

OpsClient::OpsClient(std::unique_ptr<net::FramedConn> conn)
    : conn_(std::move(conn)) {}

OpsClient::~OpsClient() = default;

std::unique_ptr<OpsClient> OpsClient::connect(const std::string& host,
                                              std::uint16_t port) {
  // A response may legitimately never come (the server discarded a
  // corrupted request frame as loss); FramedConn's receive timeout bounds
  // the wait instead of hanging.
  auto conn = net::FramedConn::connect(host, port, 5'000);
  if (!conn) return nullptr;
  return std::unique_ptr<OpsClient>(new OpsClient(std::move(conn)));
}

std::optional<OpsClient::Response> OpsClient::request(const std::string& verb,
                                                      const std::string& args) {
  ByteWriter body;
  body.str(verb);
  body.str(args);
  if (!conn_ || !conn_->sendFrame(body.bytes())) return std::nullopt;
  return readResponse();
}

bool OpsClient::sendRaw(std::span<const std::uint8_t> bytes) {
  if (!conn_) return false;
  if (!conn_->sendBytes(bytes)) {
    conn_->close();
    return false;
  }
  return true;
}

std::optional<OpsClient::Response> OpsClient::readResponse() {
  if (!conn_) return std::nullopt;
  auto frame = conn_->readFrame();
  if (!frame) return std::nullopt;  // closed, timed out, or poisoned
  ByteReader reader(frame->data(), frame->size());
  Response response;
  response.ok = reader.u8() == 0;
  response.content_type = reader.str();
  response.body = reader.str();
  if (!reader.ok()) return std::nullopt;
  return response;
}

}  // namespace cmc::obs
