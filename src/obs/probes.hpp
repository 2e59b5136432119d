// Convergence probes: virtual-time latency from a goal change to path
// quiescence.
//
// The paper's latency law (§VIII-C) says: after the last flowlink of a
// signaling path initializes, media setup toward the farther endpoint takes
// p*n + (p+1)*c. A probe captures exactly that interval empirically: arm it
// at the moment of the goal change with a predicate describing the target
// quiescent condition (bothFlowing along the path, media audible, both
// closed, ...), and the first time the predicate holds the probe records
// `now - armed_at` into the registry histogram "probe.<bucket>_us" (when a
// metrics registry is installed) and disarms.
//
// A converged probe keeps its latency in its own slot until a host takes
// it by Id (takeLatencyUs), which frees the slot for reuse; latencyUs(name)
// reads a result without taking it. Nothing on the check, converge or take
// path looks anything up by string: each bucket's histogram name is built
// once, when the bucket is first armed.
//
// When the predicate is evaluated depends on the probe's watch set, the ids
// of the boxes whose state it reads. The hosting Simulator calls
// checkBox(box) after each completed stimulus of `box` (and when a channel
// end materializes on it), which evaluates only the probes watching that
// box. A probe armed with an empty watch set is unwatched: it may read any
// box, so every checkBox evaluates it. Each call is its own signaling path,
// so a call's probe watches that call's boxes and a stimulus costs one
// predicate, however many calls are in flight. A watch set must name every
// box the predicate reads, or a flip caused by an unwatched box is recorded
// late.
//
// Watchdog deadlines sit in a min-heap: a probe that misses its deadline
// fails at the first check of any kind at or after it, whichever box was
// stimulated. Within one check, probes are evaluated in arm order.
//
// Idle cost: the Simulator skips the call when nothing is armed, and a
// check that finds no due probe allocates nothing. Probes are owned by a
// single simulation thread; they are not thread-safe by design. All
// timestamps — arm instants and watchdog deadlines — are in the hosting
// loop's virtual time, and the deadline path resolves the flight recorder
// through obs::flightRecorder(), which honors the calling thread's
// override: in a sharded runtime a deadline miss therefore dumps the shard
// that armed the probe, never a sibling shard's recorder.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/small_vec.hpp"

namespace cmc::obs {

class ConvergenceProbes {
 public:
  using Predicate = std::function<bool()>;
  using FailureHandler =
      std::function<void(const std::string& name, std::int64_t now_us)>;
  // Box ids (BoxId::value()) whose stimuli can change a predicate; empty
  // means "any box". A call path has at most three boxes, kept inline.
  using Watch = SmallVec<std::uint64_t, 3>;

  // Handle to one probe. Stale handles (the probe failed, was disarmed, or
  // its result was taken) are safe: operations on them do nothing. A
  // converged probe's handle still takes its result.
  struct Id {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;  // arm order, never reused; 0 = no probe
  };

  // Arm a probe. `bucket` names the registry histogram the latency lands
  // in, "probe.<bucket>_us" (several probes — e.g. runs with different
  // seeds — may share one bucket);
  // `name` identifies this single measurement. A positive `deadline_us`
  // turns the probe into a watchdog: if it has not converged by that
  // virtual instant, the next check marks it failed, disarms it, and
  // triggers the installed flight recorder (obs/flight_recorder.hpp).
  Id arm(std::string name, std::string_view bucket, std::int64_t now_us,
         Predicate quiescent, std::int64_t deadline_us = 0, Watch watch = {});

  // Both checks evaluate their probes in arm order: satisfied ones record
  // and disarm, expired ones fail (post-mortem dump + onFailure). Each also
  // evaluates the probes whose deadline has passed. They return the number
  // of probes that converged in this call.
  //
  // Evaluate the probes watching `box` and the unwatched ones (after a
  // stimulus of `box`, or a channel end materializing on it).
  std::size_t checkBox(std::uint64_t box, std::int64_t now_us);
  // Evaluate the probe `id` alone (a host's final verdict before disarm).
  std::size_t check(Id id, std::int64_t now_us);

  // Drop an armed probe without recording a result either way; O(watch).
  // Returns true if it was armed. A converged probe is not armed, so its
  // result stays to be taken. Call-churn hosts check, disarm, then take a
  // call's setup probe: once the call's boxes close, its quiescence
  // predicate can never hold.
  bool disarm(Id id);

  // Called for every probe that blows its deadline, after the flight-
  // recorder dump; hosts use it to abort or log. The handler may itself
  // check, arm or disarm probes.
  void setOnFailure(FailureHandler handler) { on_failure_ = std::move(handler); }

  [[nodiscard]] bool empty() const noexcept { return armed_ == 0; }
  [[nodiscard]] std::size_t armedCount() const noexcept { return armed_; }
  [[nodiscard]] std::size_t convergedCount() const noexcept { return converged_; }
  [[nodiscard]] std::size_t failedCount() const noexcept {
    return failed_.size();
  }
  [[nodiscard]] const std::vector<std::string>& failed() const noexcept {
    return failed_;
  }
  // Predicate calls so far: the work the watch sets save.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  // Latency of a named measurement, once converged and until taken (the
  // latest to converge, if several share the name). It scans the slots:
  // for tests and benches, not for a per-call path.
  [[nodiscard]] std::optional<std::int64_t> latencyUs(std::string_view name) const;
  // Probe `id`'s latency, removing the result and freeing its slot; nothing
  // for a probe still armed, failed, disarmed or already taken. Hosts that
  // read each latency once keep the slot table bounded by the probes armed
  // or not yet read.
  std::optional<std::int64_t> takeLatencyUs(Id id);

 private:
  // One watched box, threaded into that box's list of watchers.
  struct Link {
    std::uint64_t box;
    std::uint32_t next;  // slot + 1 of the box's next watcher; 0 = end
  };
  // A slot is free (seq 0), armed, or converged: a converged slot keeps
  // its name and latency, and nothing else, until the result is taken.
  struct Probe {
    std::string name;
    std::int64_t start_us = 0;
    std::int64_t deadline_us = 0;  // 0 = no watchdog
    std::int64_t latency_us = 0;   // set at convergence
    Predicate quiescent;
    SmallVec<Link, 3> watch;         // empty = unwatched
    std::uint64_t seq = 0;           // 0 = free slot
    std::uint64_t converged_at = 0;  // convergence order; 0 = not converged
    std::uint32_t bucket = 0;        // index in buckets_
    std::uint32_t unwatched_at = 0;  // index in unwatched_ (empty watch)
  };
  // A bucket and its histogram, named once. A deque, so the handle's view
  // of `metric` never moves.
  struct Bucket {
    explicit Bucket(std::string_view bucket)
        : name(bucket), metric("probe." + name + "_us"), histogram(metric) {}
    Bucket(const Bucket&) = delete;
    Bucket& operator=(const Bucket&) = delete;
    std::string name;
    std::string metric;
    HistogramHandle histogram;
  };
  struct Deadline {
    std::int64_t at_us;
    std::uint64_t seq;
    std::uint32_t slot;
    // Heap order: the front is the earliest deadline, ties in arm order.
    static bool later(const Deadline& a, const Deadline& b) noexcept {
      return a.at_us != b.at_us ? a.at_us > b.at_us : a.seq > b.seq;
    }
  };
  // A queued evaluation; stale once the slot's seq moves on.
  struct Due {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool holds(std::uint32_t slot, std::uint64_t seq) const noexcept {
    return slot < probes_.size() && seq != 0 && probes_[slot].seq == seq;
  }
  [[nodiscard]] bool live(std::uint32_t slot, std::uint64_t seq) const noexcept {
    return holds(slot, seq) && probes_[slot].converged_at == 0;
  }
  void queue(std::uint32_t slot) { due_.push_back({probes_[slot].seq, slot}); }
  [[nodiscard]] Link& linkOf(std::uint32_t slot, std::uint64_t box) noexcept;
  // Queue the probes past their deadline, then evaluate everything queued.
  std::size_t evaluateDue(std::int64_t now_us);
  std::uint32_t bucketOf(std::string_view bucket);
  void converge(std::uint32_t slot, std::int64_t now_us);
  void fail(std::uint32_t slot, std::int64_t now_us);
  // Unlink an armed probe from its watch lists and the armed count.
  void unlink(std::uint32_t slot);
  // Clear a slot and put it on the free list.
  void release(std::uint32_t slot);

  std::vector<Probe> probes_;  // slot table; free slots are reused
  std::deque<Bucket> buckets_;  // few: scanned at arm
  std::vector<std::uint32_t> free_;
  // Box id -> slot + 1 of its first watcher (0 = none). Box ids are the
  // Simulator's dense BoxId values, so this is four bytes per box.
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint32_t> unwatched_;
  std::vector<Deadline> deadlines_;  // min-heap on (at_us, seq); lazy
  // Work list, reused by every check; a re-entrant check (from a failure
  // handler) finds it empty and queues into a buffer of its own.
  std::vector<Due> due_;
  std::size_t armed_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t evaluations_ = 0;
  std::vector<std::string> failed_;
  FailureHandler on_failure_;
  std::size_t converged_ = 0;
};

}  // namespace cmc::obs
