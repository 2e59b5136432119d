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
#include <optional>
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
    std::uint32_t rank = 0;  // valid once the link's HELLO claimed it
  };

  // One row of the rank table. A rank is claimed when its report says
  // connected; it is through the SPEC phase when acked, and through the
  // collect phase once its rollup has landed.
  struct Rank {
    WorkerReport report;
    std::optional<Rollup> rollup;
    std::vector<std::uint8_t> spec_frame;
  };

  enum Phase { gather = 0, pushSpec = 1, started = 2, shutdown = 3 };

  DriverConfig config;
  bool ran = false;
  std::uint64_t spec_hash = 0;

  std::mutex mutex;
  std::condition_variable cv;
  Phase phase = gather;
  bool aborted = false;
  std::string fatal_error;
  std::vector<Rank> ranks;  // rank-indexed
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

  [[nodiscard]] bool isAborted() {
    std::lock_guard<std::mutex> lock(mutex);
    return aborted;
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
  // run — the listener keeps waiting for the real workers. Returns false,
  // the link never having claimed a rank.
  bool dropLink(Link& link, const std::string& why) {
    link.conn->sendFrame(encodeErrorMsg(why));
    link.conn->shutdownNow();
    return false;
  }

  // A ranked link failed in a way that poisons the whole run. `what` is
  // prefixed with the rank, in both the rank's report and the run's error.
  void failLink(Link& link, const std::string& what) {
    std::string why = "rank " + std::to_string(link.rank) + " " + what;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ranks[link.rank].report.error = why;
    }
    abort(std::move(why));
    link.conn->shutdownNow();
  }

  // Block until the run reaches `target`. True when the link goes on; false
  // when the run aborted or shut down first, and then the worker has been
  // sent SHUTDOWN so it exits instead of timing out.
  bool awaitPhase(Link& link, Phase target) {
    bool go_on = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&]() { return phase >= target || aborted; });
      go_on = !aborted && phase != shutdown;
    }
    if (!go_on) link.conn->sendFrame(encodeShutdown());
    return go_on;
  }

  // Push a driver frame to a ranked link; a dead link fails the run.
  bool push(Link& link, const std::vector<std::uint8_t>& frame,
            const char* verb) {
    if (link.conn->sendFrame(frame)) return true;
    failLink(link, std::string("died during ") + verb + " push");
    return false;
  }

  // The one read step of a ranked link: its next frame, or nullopt once the
  // link is done. The abort of another link sends this worker SHUTDOWN;
  // EOF, a poisoned stream, an ERROR frame or the `deadline` fail the run
  // with this rank's attribution.
  std::optional<std::vector<std::uint8_t>> nextFrame(
      Link& link, Clock::time_point deadline, const char* awaiting) {
    while (true) {
      auto frame = link.conn->readFrame();
      if (frame && peekVerb(*frame) == Verb::error) {
        auto message = parseErrorMsg(*frame);
        failLink(link, "reported: " +
                           (message ? *message : "unparseable error"));
        return std::nullopt;
      }
      if (frame) return frame;
      if (link.conn->lastRead() != net::FramedConn::ReadStatus::timeout) {
        failLink(link, std::string("died awaiting ") + awaiting);
        return std::nullopt;
      }
      if (isAborted()) {
        link.conn->sendFrame(encodeShutdown());
        return std::nullopt;
      }
      if (Clock::now() > deadline) {
        failLink(link, std::string("timed out awaiting ") + awaiting);
        return std::nullopt;
      }
    }
  }

  // gather: read until a HELLO claims an unclaimed rank. False when the
  // link never became a rank: it was dropped, it timed out, or the run
  // ended first.
  bool claimRank(Link& link) {
    const auto hello_deadline =
        Clock::now() + std::chrono::milliseconds(config.hello_timeout_ms);
    while (true) {
      auto frame = link.conn->readFrame();
      if (!frame) {
        if (link.conn->lastRead() != net::FramedConn::ReadStatus::timeout) {
          // EOF before HELLO, or a hostile length header poisoned the
          // stream: this connection was never a worker. Drop it; the
          // listener and every real link keep going.
          link.conn->shutdownNow();
          return false;
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (aborted || phase == shutdown) return false;
        }
        if (Clock::now() > hello_deadline) return false;
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
      bool claimed = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        WorkerReport& report = ranks[hello->rank].report;
        if (!report.connected) {
          report.connected = claimed = true;
          link.rank = hello->rank;
        }
      }
      if (!claimed) {
        return dropLink(link,
                        "duplicate HELLO for rank " + std::to_string(hello->rank));
      }
      cv.notify_all();
      return true;
    }
  }

  void serveLink(Link& link) {
    if (!claimRank(link)) return;

    // ------------------------------------------------------------- spec
    if (!awaitPhase(link, pushSpec) ||
        !push(link, ranks[link.rank].spec_frame, "SPEC")) {
      return;
    }
    auto frame = nextFrame(
        link,
        Clock::now() + std::chrono::milliseconds(config.ack_timeout_ms),
        "SPEC_ACK");
    if (!frame) return;
    if (peekVerb(*frame) != Verb::specAck) {
      return failLink(link, "broke protocol (expected SPEC_ACK)");
    }
    auto ack = parseSpecAck(*frame);
    if (!ack || ack->rank != link.rank) {
      return failLink(link, "sent malformed SPEC_ACK");
    }
    // The worker hashed the blob bytes it received; both sides serialize
    // identically, so any divergence means the fleet would not be running
    // one workload. Abort rather than merge apples and oranges.
    if (ack->spec_hash != spec_hash) {
      return failLink(link, "acknowledged a different spec hash");
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ranks[link.rank].report.acked = true;
    }
    cv.notify_all();

    // ---------------------------------------------------- start, collect
    if (!awaitPhase(link, started) || !push(link, encodeStart(), "START")) {
      return;
    }
    const auto rollup_deadline =
        Clock::now() + std::chrono::milliseconds(config.rollup_timeout_ms);
    std::optional<Rollup> rollup;
    while (!rollup) {
      frame = nextFrame(link, rollup_deadline, "ROLLUP");
      if (!frame) return;
      const auto verb = peekVerb(*frame);
      if (verb == Verb::progress) {
        auto progress = parseProgress(*frame);
        if (!progress || progress->rank != link.rank) {
          return failLink(link, "sent malformed PROGRESS");
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++ranks[link.rank].report.progress_frames;
        }
        if (config.on_progress) config.on_progress(*progress);
        continue;
      }
      if (verb != Verb::rollup) {
        return failLink(link, "broke protocol (expected ROLLUP)");
      }
      rollup = parseRollup(*frame);
      if (!rollup || rollup->rank != link.rank ||
          rollup->spec_hash != spec_hash) {
        return failLink(link, "sent malformed ROLLUP");
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      Rank& row = ranks[link.rank];
      row.report.rolled_up = true;
      row.report.calls = rollup->outcomes.size();
      row.report.wall_seconds = rollup->wall_seconds;
      row.rollup = std::move(rollup);
    }
    cv.notify_all();

    // --------------------------------------------------------- shutdown
    awaitPhase(link, shutdown);  // false by then: it sends SHUTDOWN
    link.conn->shutdownNow();
  }

  // One phase-advance step of run(): wait, bounded by `timeout_ms`, until
  // every rank is `through` the current phase, then move the link threads
  // on to `next`. A rank still missing at the deadline is attributed and
  // aborts the run. False once the run has aborted.
  bool advance(Phase next, const char* verb, std::int64_t timeout_ms,
               bool (*through)(const Rank&)) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto all_through = [&]() {
      return std::all_of(ranks.begin(), ranks.end(), through);
    };
    cv.wait_until(lock, Clock::now() + std::chrono::milliseconds(timeout_ms),
                  [&]() { return aborted || all_through(); });
    if (!aborted && !all_through()) {
      std::vector<std::uint32_t> missing;
      for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
        if (through(ranks[rank])) continue;
        missing.push_back(static_cast<std::uint32_t>(rank));
        ranks[rank].report.error = std::string("never sent ") + verb;
      }
      aborted = true;
      fatal_error = "worker rank(s) " + joinRanks(missing) + " never sent " +
                    verb + " within " + std::to_string(timeout_ms) + "ms";
    }
    if (!aborted) phase = next;
    cv.notify_all();
    return !aborted;
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

    ranks.resize(config.workers);
    for (std::size_t rank = 0; rank < config.workers; ++rank) {
      SpecAssignment spec;
      spec.workload = workload;
      spec.rank = static_cast<std::uint32_t>(rank);
      spec.worker_count = static_cast<std::uint32_t>(config.workers);
      spec.shards = static_cast<std::uint32_t>(config.shards);
      spec.progress_ms = config.progress_ms;
      ranks[rank].report = result.workers[rank];
      ranks[rank].spec_frame = encodeSpec(spec);
    }
    spec_hash = workloadHash(workload);

    const auto wall_start = Clock::now();
    listener.start([this](int fd) { acceptLink(fd); });
    if (!config.worker_binary.empty()) spawnChildren();

    // gather → spec → start → all rollups in. Link threads enforce each
    // rank's own ack and rollup deadlines; the slack on those two steps
    // only catches a link thread ending without attribution.
    constexpr std::int64_t kSlackMs = 10'000;
    if (advance(pushSpec, "HELLO", config.hello_timeout_ms,
                [](const Rank& r) { return r.report.connected; }) &&
        advance(started, "SPEC_ACK", config.ack_timeout_ms + kSlackMs,
                [](const Rank& r) { return r.report.acked; })) {
      advance(shutdown, "ROLLUP", config.rollup_timeout_ms + kSlackMs,
              [](const Rank& r) { return r.rollup.has_value(); });
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
    for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
      const Rank& row = ranks[rank];
      result.workers[rank] = row.report;
      if (!row.rollup) continue;
      merged.mergeFrom(row.rollup->rollup);
      result.signals_delivered += row.rollup->signals_delivered;
      for (const DistOutcome& outcome : row.rollup->outcomes) {
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
