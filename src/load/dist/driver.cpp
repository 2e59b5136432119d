#include "load/dist/driver.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "net/framed_rpc.hpp"
#include "obs/snapshot.hpp"
#include "util/log.hpp"

namespace cmc::load::dist {

namespace {

using Clock = std::chrono::steady_clock;

// Per-iteration receive timeout of every link read loop: short enough that
// an abort or phase flip is observed promptly, long enough to stay off the
// scheduler's back.
constexpr std::int64_t kPollMs = 100;

std::string joinRanks(const std::vector<std::uint32_t>& ranks) {
  std::string out;
  for (std::uint32_t rank : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(rank);
  }
  return out;
}

}  // namespace

struct DistDriver::Impl {
  // Driver-side state of one accepted connection. A link has no identity
  // until its HELLO claims an unclaimed rank; hostile or confused
  // connections are dropped without ever becoming a rank.
  struct Link {
    std::unique_ptr<net::FramedConn> conn;
    std::thread thread;
    std::uint32_t rank = 0;
    bool has_rank = false;
  };

  enum Phase { gather = 0, pushSpec = 1, started = 2, shutdown = 3 };

  DriverConfig config;
  bool ran = false;

  std::mutex mutex;
  std::condition_variable cv;
  Phase phase = gather;
  bool aborted = false;
  std::string fatal_error;
  std::vector<bool> claimed;
  std::size_t acks = 0;
  std::size_t rollups_in = 0;
  std::vector<WorkerReport> reports;            // rank-indexed
  std::vector<Rollup> rollups;                  // rank-indexed
  std::vector<bool> have_rollup;                // rank-indexed
  std::vector<std::vector<std::uint8_t>> spec_frames;  // rank-indexed
  std::vector<std::unique_ptr<Link>> links;
  std::vector<pid_t> children;
  net::Listener listener;  // after what its accept thread uses

  explicit Impl(DriverConfig cfg)
      : config(std::move(cfg)),
        listener(static_cast<std::uint16_t>(config.port)) {
    if (config.workers == 0) config.workers = 1;
    if (config.shards == 0) config.shards = 1;
  }

  // Link threads only ever shut their connection down; its fd closes when
  // the Link is destroyed, after its thread has been joined.
  ~Impl() {
    listener.stop();
    for (auto& link : links) {
      link->conn->shutdownNow();
      if (link->thread.joinable()) link->thread.join();
    }
  }

  // First fatal failure wins; wakes every waiter. Callers hold no lock.
  void abort(std::string why) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!aborted) {
      aborted = true;
      fatal_error = std::move(why);
    }
    cv.notify_all();
  }

  [[nodiscard]] bool allClaimed() const {
    return std::all_of(claimed.begin(), claimed.end(),
                       [](bool c) { return c; });
  }

  void acceptLink(int fd) {
    auto link = std::make_unique<Link>();
    link->conn = std::make_unique<net::FramedConn>(fd);
    link->conn->setRecvTimeoutMs(kPollMs);
    Link* raw = link.get();
    link->thread = std::thread([this, raw]() { serveLink(*raw); });
    std::lock_guard<std::mutex> lock(mutex);
    links.push_back(std::move(link));
  }

  // Reject a pre-rank connection: explain, then hang up. Not fatal to the
  // run — the listener keeps waiting for the real workers.
  void dropLink(Link& link, const std::string& why) {
    link.conn->sendFrame(encodeErrorMsg(why));
    link.conn->shutdownNow();
  }

  // A ranked link failed in a way that poisons the whole run.
  void failLink(Link& link, std::string why) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (link.has_rank) reports[link.rank].error = why;
    }
    abort(std::move(why));
    link.conn->shutdownNow();
  }

  void serveLink(Link& link) {
    // ---------------------------------------------------------- gather
    const auto hello_deadline =
        Clock::now() + std::chrono::milliseconds(config.hello_timeout_ms);
    while (true) {
      auto frame = link.conn->readFrame();
      if (!frame) {
        switch (link.conn->lastRead()) {
          case net::FramedConn::ReadStatus::timeout: {
            std::lock_guard<std::mutex> lock(mutex);
            if (aborted || phase == shutdown) return;
            break;
          }
          default:
            // EOF before HELLO, or a hostile length header poisoned the
            // stream: this connection was never a worker. Drop it; the
            // listener and every real link keep going.
            link.conn->shutdownNow();
            return;
        }
        if (Clock::now() > hello_deadline) return;
        continue;
      }
      if (peekVerb(*frame) != Verb::hello) {
        return dropLink(link, "expected HELLO");
      }
      auto hello = parseHello(*frame);
      if (!hello) return dropLink(link, "malformed HELLO");
      if (hello->version != kVersion) {
        return dropLink(link, "unsupported protocol version " +
                                  std::to_string(hello->version) +
                                  " (driver speaks " +
                                  std::to_string(kVersion) + ")");
      }
      if (hello->rank >= config.workers) {
        return dropLink(link, "rank " + std::to_string(hello->rank) +
                                  " out of range (fleet of " +
                                  std::to_string(config.workers) + ")");
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (claimed[hello->rank]) {
          // Unlocked dropLink below; the claim check itself stays atomic.
        } else {
          claimed[hello->rank] = true;
          reports[hello->rank].connected = true;
          link.rank = hello->rank;
          link.has_rank = true;
        }
      }
      if (!link.has_rank) {
        return dropLink(link,
                        "duplicate HELLO for rank " + std::to_string(hello->rank));
      }
      cv.notify_all();
      break;
    }

    // ------------------------------------------------------------- spec
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this]() { return phase != gather || aborted; });
      if (aborted || phase == shutdown) {
        lock.unlock();
        link.conn->sendFrame(encodeShutdown());
        return;
      }
    }
    if (!link.conn->sendFrame(spec_frames[link.rank])) {
      return failLink(link, "rank " + std::to_string(link.rank) +
                                " died during SPEC push");
    }
    const auto ack_deadline =
        Clock::now() + std::chrono::milliseconds(config.ack_timeout_ms);
    while (true) {
      auto frame = link.conn->readFrame();
      if (!frame) {
        if (link.conn->lastRead() == net::FramedConn::ReadStatus::timeout) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (aborted) {
              link.conn->sendFrame(encodeShutdown());
              return;
            }
          }
          if (Clock::now() > ack_deadline) {
            return failLink(link, "rank " + std::to_string(link.rank) +
                                      " never acknowledged SPEC");
          }
          continue;
        }
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " died awaiting SPEC_ACK");
      }
      if (auto verb = peekVerb(*frame); verb == Verb::error) {
        auto message = parseErrorMsg(*frame);
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " reported: " +
                                  (message ? *message : "unparseable error"));
      } else if (verb != Verb::specAck) {
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " broke protocol (expected SPEC_ACK)");
      }
      auto ack = parseSpecAck(*frame);
      if (!ack || ack->rank != link.rank) {
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " sent malformed SPEC_ACK");
      }
      // The worker hashed the blob bytes it received; both sides serialize
      // identically, so any divergence means the fleet would not be running
      // one workload. Abort rather than merge apples and oranges.
      if (ack->spec_hash != spec_hash_) {
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " acknowledged a different spec hash");
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        reports[link.rank].acked = true;
        ++acks;
      }
      cv.notify_all();
      break;
    }

    // ------------------------------------------------------------ start
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this]() { return phase >= started || aborted; });
      if (aborted || phase == shutdown) {
        lock.unlock();
        link.conn->sendFrame(encodeShutdown());
        return;
      }
    }
    if (!link.conn->sendFrame(encodeStart())) {
      return failLink(link, "rank " + std::to_string(link.rank) +
                                " died during START push");
    }

    // ---------------------------------------------------------- collect
    const auto rollup_deadline =
        Clock::now() + std::chrono::milliseconds(config.rollup_timeout_ms);
    while (true) {
      auto frame = link.conn->readFrame();
      if (!frame) {
        if (link.conn->lastRead() == net::FramedConn::ReadStatus::timeout) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (aborted) {
              link.conn->sendFrame(encodeShutdown());
              return;
            }
          }
          if (Clock::now() > rollup_deadline) {
            return failLink(link, "rank " + std::to_string(link.rank) +
                                      " ROLLUP timed out");
          }
          continue;
        }
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " died after START (no ROLLUP)");
      }
      const auto verb = peekVerb(*frame);
      if (verb == Verb::progress) {
        auto progress = parseProgress(*frame);
        if (!progress || progress->rank != link.rank) {
          return failLink(link, "rank " + std::to_string(link.rank) +
                                    " sent malformed PROGRESS");
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++reports[link.rank].progress_frames;
        }
        if (config.on_progress) config.on_progress(*progress);
        continue;
      }
      if (verb == Verb::error) {
        auto message = parseErrorMsg(*frame);
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " reported: " +
                                  (message ? *message : "unparseable error"));
      }
      if (verb != Verb::rollup) {
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " broke protocol (expected ROLLUP)");
      }
      auto rollup = parseRollup(*frame);
      if (!rollup || rollup->rank != link.rank ||
          rollup->spec_hash != spec_hash_) {
        return failLink(link, "rank " + std::to_string(link.rank) +
                                  " sent malformed ROLLUP");
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        reports[link.rank].rolled_up = true;
        reports[link.rank].calls = rollup->outcomes.size();
        reports[link.rank].wall_seconds = rollup->wall_seconds;
        rollups[link.rank] = std::move(*rollup);
        have_rollup[link.rank] = true;
        ++rollups_in;
      }
      cv.notify_all();
      break;
    }

    // --------------------------------------------------------- shutdown
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this]() { return phase == shutdown; });
    }
    link.conn->sendFrame(encodeShutdown());
    link.conn->shutdownNow();
  }

  void spawnChildren() {
    for (std::size_t rank = 0; rank < config.workers; ++rank) {
      const std::string port_arg = std::to_string(listener.port());
      const std::string rank_arg = std::to_string(rank);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::execl(config.worker_binary.c_str(), config.worker_binary.c_str(),
                "--port", port_arg.c_str(), "--rank", rank_arg.c_str(),
                static_cast<char*>(nullptr));
        _exit(127);  // exec failed; the driver sees a missing HELLO
      }
      if (pid > 0) children.push_back(pid);
    }
  }

  void reapChildren() {
    for (pid_t pid : children) {
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 150 && !reaped; ++i) {  // ~3s of grace
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
      }
    }
    children.clear();
  }

  DistResult run(const WorkloadSpec& workload) {
    DistResult result;
    result.workers.resize(config.workers);
    for (std::size_t rank = 0; rank < config.workers; ++rank) {
      result.workers[rank].rank = static_cast<std::uint32_t>(rank);
    }
    if (!listener.ok()) {
      result.error = "driver listener failed to bind";
      return result;
    }
    if (ran) {
      result.error = "DistDriver::run may only be called once";
      return result;
    }
    ran = true;

    claimed.assign(config.workers, false);
    reports = result.workers;
    rollups.resize(config.workers);
    have_rollup.assign(config.workers, false);
    spec_frames.clear();
    for (std::size_t rank = 0; rank < config.workers; ++rank) {
      SpecAssignment spec;
      spec.workload = workload;
      spec.rank = static_cast<std::uint32_t>(rank);
      spec.worker_count = static_cast<std::uint32_t>(config.workers);
      spec.shards = static_cast<std::uint32_t>(config.shards);
      spec.setup_grace_us = config.setup_grace_us;
      spec.teardown_grace_us = config.teardown_grace_us;
      spec.setup_deadline_us = config.setup_deadline_us;
      spec.progress_ms = config.progress_ms;
      spec_frames.push_back(encodeSpec(spec));
    }
    spec_hash_ = workloadHash(workload);

    const auto wall_start = Clock::now();
    listener.start([this](int fd) { acceptLink(fd); });
    if (!config.worker_binary.empty()) spawnChildren();

    // gather → spec
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_until(lock,
                    wall_start +
                        std::chrono::milliseconds(config.hello_timeout_ms),
                    [this]() { return aborted || allClaimed(); });
      if (!aborted && !allClaimed()) {
        std::vector<std::uint32_t> missing;
        for (std::size_t rank = 0; rank < claimed.size(); ++rank) {
          if (!claimed[rank]) {
            missing.push_back(static_cast<std::uint32_t>(rank));
            reports[rank].error = "never sent HELLO";
          }
        }
        aborted = true;
        fatal_error = "worker rank(s) " + joinRanks(missing) +
                      " never sent HELLO within " +
                      std::to_string(config.hello_timeout_ms) + "ms";
      }
      if (!aborted) {
        phase = pushSpec;
      }
      cv.notify_all();
    }

    // spec → start (link threads enforce the per-rank ack deadline; the
    // slack here only catches a link thread dying without attribution)
    if (!isAborted()) {
      std::unique_lock<std::mutex> lock(mutex);
      const auto deadline =
          Clock::now() +
          std::chrono::milliseconds(config.ack_timeout_ms + 10'000);
      cv.wait_until(lock, deadline, [this]() {
        return aborted || acks == config.workers;
      });
      if (!aborted && acks != config.workers) {
        aborted = true;
        fatal_error = "SPEC_ACK phase stalled";
      }
      if (!aborted) {
        phase = started;
      }
      cv.notify_all();
    }

    // start → all rollups in
    if (!isAborted()) {
      std::unique_lock<std::mutex> lock(mutex);
      const auto deadline =
          Clock::now() +
          std::chrono::milliseconds(config.rollup_timeout_ms + 10'000);
      cv.wait_until(lock, deadline, [this]() {
        return aborted || rollups_in == config.workers;
      });
      if (!aborted && rollups_in != config.workers) {
        aborted = true;
        fatal_error = "ROLLUP phase stalled";
      }
      cv.notify_all();
    }

    // shutdown: always reached, success or abort — links send SHUTDOWN on
    // their way out, so real workers exit instead of timing out.
    {
      std::lock_guard<std::mutex> lock(mutex);
      phase = shutdown;
      cv.notify_all();
    }

    // Stop accepting, then join every link (each ends on its own once the
    // phase is shutdown) before its fd closes.
    listener.stop();
    for (auto& link : links) {
      if (link->thread.joinable()) link->thread.join();
    }
    links.clear();
    reapChildren();
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    // ------------------------------------------------------------- merge
    // Rank order, success or not: on failure the partial artifacts plus
    // per-rank attribution are the post-mortem.
    obs::MetricsSnapshot merged;
    for (std::size_t rank = 0; rank < config.workers; ++rank) {
      if (!have_rollup[rank]) continue;
      merged.mergeFrom(rollups[rank].rollup);
      result.signals_delivered += rollups[rank].signals_delivered;
      for (const DistOutcome& outcome : rollups[rank].outcomes) {
        result.outcomes.push_back(outcome);
      }
    }
    std::sort(result.outcomes.begin(), result.outcomes.end(),
              [](const DistOutcome& a, const DistOutcome& b) {
                return a.id < b.id;
              });
    result.rollup_json = merged.json();
    result.outcome_digest = digestOutcomes(result.outcomes);
    for (const DistOutcome& outcome : result.outcomes) {
      if (outcome.converged) ++result.converged;
      if (outcome.clean_teardown) ++result.clean_teardowns;
    }
    if (const auto* h = merged.histogram("probe.call_setup_us")) {
      result.setup_p50_us = h->quantile(0.50);
      result.setup_p99_us = h->quantile(0.99);
    }
    result.workers = reports;

    std::string error;
    {
      std::lock_guard<std::mutex> lock(mutex);
      error = fatal_error;
    }
    if (error.empty()) {
      // Coverage audit: ids must be exactly 0..calls-1 — a worker slicing
      // wrong (or a duplicated outcome) can never masquerade as success.
      if (result.outcomes.size() != workload.calls) {
        error = "merged outcomes cover " +
                std::to_string(result.outcomes.size()) + " of " +
                std::to_string(workload.calls) + " calls";
      } else {
        for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
          if (result.outcomes[i].id != i) {
            error = "merged outcomes misnumbered at index " +
                    std::to_string(i);
            break;
          }
        }
      }
    }
    result.error = error;
    result.ok = error.empty();
    return result;
  }

  [[nodiscard]] bool isAborted() {
    std::lock_guard<std::mutex> lock(mutex);
    return aborted;
  }

  std::uint64_t spec_hash_ = 0;
};

DistDriver::DistDriver(DriverConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

DistDriver::~DistDriver() = default;

bool DistDriver::ok() const noexcept { return impl_->listener.ok() || impl_->ran; }

std::uint16_t DistDriver::port() const noexcept { return impl_->listener.port(); }

DistResult DistDriver::run(const WorkloadSpec& workload) {
  return impl_->run(workload);
}

std::string findWorkerBinary() {
  if (const char* env = std::getenv("CMC_LOAD_WORKER")) {
    std::error_code ec;
    if (std::filesystem::exists(env, ec)) return env;
  }
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return {};
  const auto dir = self.parent_path();
  const std::filesystem::path candidates[] = {
      dir / "cmc_load_worker",
      dir.parent_path() / "examples" / "cmc_load_worker",
  };
  for (const auto& candidate : candidates) {
    if (std::filesystem::exists(candidate, ec)) return candidate.string();
  }
  return {};
}

}  // namespace cmc::load::dist
