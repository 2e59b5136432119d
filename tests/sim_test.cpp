// Tests for the discrete-event simulator, timing model, and Box runtime.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "endpoints/user_device.hpp"
#include "media/network.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

TEST(EventLoopTest, OrdersByTime) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30_ms, [&] { order.push_back(3); });
  loop.schedule(10_ms, [&] { order.push_back(1); });
  loop.schedule(20_ms, [&] { order.push_back(2); });
  EXPECT_TRUE(loop.runUntilIdle());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().millis(), 30.0);
}

TEST(EventLoopTest, EqualTimesFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(10_ms, [&order, i] { order.push_back(i); });
  }
  loop.runUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(1_ms, [&] {
    ++fired;
    loop.schedule(1_ms, [&] { ++fired; });
  });
  loop.runUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now().millis(), 2.0);
}

TEST(EventLoopTest, HorizonStopsLoop) {
  EventLoop loop;
  std::function<void()> rearm = [&] { loop.schedule(10_ms, rearm); };
  rearm();
  EXPECT_FALSE(loop.runUntilIdle(100_ms));
}

TEST(EventLoopTest, HorizonIsRelativeToNow) {
  // Regression: the horizon used to be computed from the epoch, so once
  // virtual time passed it, every later call returned false immediately
  // without running a single event. Each call must grant `horizon` more
  // virtual time from the current now().
  EventLoop loop;
  int fired = 0;
  std::function<void()> rearm = [&] {
    ++fired;
    loop.schedule(10_ms, rearm);
  };
  loop.schedule(10_ms, rearm);
  EXPECT_FALSE(loop.runUntilIdle(100_ms));
  const int fired_first = fired;
  const double now_first = loop.now().millis();
  EXPECT_EQ(now_first, 100.0);
  EXPECT_FALSE(loop.runUntilIdle(100_ms));
  EXPECT_GT(fired, fired_first) << "second call ran no events";
  EXPECT_EQ(loop.now().millis(), now_first + 100.0);
}

TEST(EventLoopTest, RunUntilLeavesLaterEvents) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10_ms, [&] { ++fired; });
  loop.schedule(50_ms, [&] { ++fired; });
  loop.runUntil(SimTime{} + 20_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.now().millis(), 20.0);
}

TEST(EventLoopTest, HandlerSchedulingPastAChunkKeepsItsCaptures) {
  // A handler runs in its own node, and the node is released only after it
  // returns. Scheduling more events than one node chunk holds, from inside
  // the handler, adds chunks but moves no node: the handler's captures are
  // still intact afterwards (under asan, a moved or reused node would be a
  // use-after-free).
  EventLoop loop;
  constexpr std::uint32_t kScheduled = 3 * EventLoop::kChunkNodes + 7;
  std::array<std::uint64_t, 16> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = 0x9e37 * (i + 1);
  const std::string label(64, 'q');  // past the small-string buffer
  std::uint32_t ran = 0;
  bool intact = false;
  loop.schedule(1_ms, [&loop, &ran, &intact, pattern, label,
                       expected = pattern]() {
    for (std::uint32_t i = 0; i < kScheduled; ++i) {
      loop.schedule(SimDuration{i % 5}, [&ran] { ++ran; });
    }
    intact = pattern == expected && label == std::string(64, 'q');
  });
  EXPECT_TRUE(loop.runUntilIdle());
  EXPECT_TRUE(intact);
  EXPECT_EQ(ran, kScheduled);
  EXPECT_EQ(loop.executed(), kScheduled + 1);
}

TEST(EventLoopTest, OversizedCaptureRunsFromTheHeapAndIsFreed) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  std::array<char, EventLoop::kHandlerCapacity + 64> big{};
  big.back() = 'z';
  const auto handler = [token, big]() { *token = big.back(); };
  static_assert(sizeof(handler) > EventLoop::kHandlerCapacity);
  loop.schedule(1_ms, handler);
  EXPECT_EQ(token.use_count(), 3);  // here, `handler` and the queued copy
  EXPECT_TRUE(loop.runUntilIdle());
  EXPECT_EQ(*token, 'z');
  EXPECT_EQ(token.use_count(), 2);  // the queued copy is gone
}

TEST(EventLoopTest, PopOrderMatchesAReferenceQueue) {
  // 24,000 events over 512 instants (≈47 per instant), and every third
  // event schedules a follow-up from inside its handler, 0-4 us later (0:
  // the same instant, behind everything already queued for it). The loop
  // must pop in exactly the (when, seq) order of a reference queue fed the
  // same schedule.
  constexpr std::uint32_t kInitial = 24'000;
  const auto followUp = [](std::uint32_t id) -> std::optional<SimDuration> {
    if (id % 3 != 0) return std::nullopt;
    return SimDuration{(id * 7919u) % 5};
  };
  std::mt19937_64 rng(0x5eed);
  std::vector<SimDuration> initial(kInitial);
  for (SimDuration& at : initial) at = SimDuration{rng() % 512};

  // Reference: a multimap keyed by (when, seq).
  std::vector<std::uint32_t> expected;
  {
    std::multimap<std::pair<SimTime, std::uint64_t>, std::uint32_t> queue;
    std::uint64_t seq = 0;
    std::uint32_t next_id = 0;
    for (const SimDuration at : initial) {
      queue.emplace(std::make_pair(SimTime{} + at, seq++), next_id++);
    }
    while (!queue.empty()) {
      const auto [key, id] = *queue.begin();
      queue.erase(queue.begin());
      expected.push_back(id);
      if (const auto delay = followUp(id)) {
        queue.emplace(std::make_pair(key.first + *delay, seq++), next_id++);
      }
    }
  }

  EventLoop loop;
  std::vector<std::uint32_t> order;
  std::uint32_t next_id = 0;
  struct Event {
    EventLoop* loop;
    std::vector<std::uint32_t>* order;
    std::uint32_t* next_id;
    std::optional<SimDuration> (*follow)(std::uint32_t);
    std::uint32_t id;
    void operator()() const {
      order->push_back(id);
      if (const auto delay = follow(id)) {
        loop->schedule(*delay, Event{loop, order, next_id, follow, (*next_id)++});
      }
    }
  };
  for (const SimDuration at : initial) {
    loop.schedule(at, Event{&loop, &order, &next_id, +followUp, next_id++});
  }
  EXPECT_EQ(loop.pending(), kInitial);
  EXPECT_TRUE(loop.runUntilIdle());
  EXPECT_GE(loop.peakPending(), kInitial);
  ASSERT_EQ(order.size(), expected.size());
  EXPECT_EQ(order, expected);
}

TEST(TimingModelTest, PaperDefaults) {
  auto t = TimingModel::paperDefaults();
  EXPECT_EQ(t.network, 34_ms);
  EXPECT_EQ(t.processing, 20_ms);
}

TEST(TimingModelTest, JitterBounded) {
  TimingModel t;
  t.network_jitter = 0.5;
  Rng rng{3};
  for (int i = 0; i < 200; ++i) {
    auto n = t.sampleNetwork(rng);
    EXPECT_GE(n, 17_ms);
    EXPECT_LE(n, 51_ms);
  }
}

TEST(TimingModelTest, FullJitterNeverSamplesNonPositiveDelay) {
  // Regression: at network_jitter = 1.0 the factor can reach 0 (or round
  // below it), producing a zero-length delivery that the event loop would
  // run in the same instant as the send. The sample must clamp to >= 1 µs.
  TimingModel t;
  t.network_jitter = 1.0;
  Rng rng{11};
  SimDuration smallest = t.network;
  for (int i = 0; i < 20000; ++i) {
    const auto n = t.sampleNetwork(rng);
    EXPECT_GT(n.count(), 0) << "sampled a non-positive network delay";
    EXPECT_LE(n, 2 * t.network);
    smallest = std::min(smallest, n);
  }
  // The distribution genuinely reaches the clamp region (sub-millisecond),
  // so the assertion above is not vacuous.
  EXPECT_LT(smallest, 1_ms);
}

// ------------------------------------------------------------- simulator

class TwoPhones : public ::testing::Test {
 protected:
  TwoPhones()
      : sim_(TimingModel::paperDefaults(), 42),
        media_(sim_.mediaNetwork()),
        a_(sim_.addBox<UserDeviceBox>("A", media_, sim_.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000))),
        b_(sim_.addBox<UserDeviceBox>("B", media_, sim_.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000))) {}

  Simulator sim_;
  MediaNetwork& media_;
  UserDeviceBox& a_;
  UserDeviceBox& b_;
};

TEST_F(TwoPhones, DirectCallEstablishesTwoWayMedia) {
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("B");
  });
  sim_.runFor(2_s);
  EXPECT_TRUE(a_.inCall());
  EXPECT_TRUE(b_.inCall());
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
}

TEST_F(TwoPhones, HangUpStopsMedia) {
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("B");
  });
  sim_.runFor(2_s);
  ASSERT_TRUE(a_.inCall());
  sim_.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).hangUp(); });
  sim_.runFor(1_s);
  EXPECT_FALSE(a_.inCall());
  EXPECT_FALSE(a_.media().sendingNow());
  const auto received_at_cutoff = b_.media().packetsReceived();
  sim_.runFor(1_s);
  // B's device learned of the teardown too; at most a couple of packets
  // were in flight at cutoff.
  EXPECT_LE(b_.media().packetsReceived(), received_at_cutoff + 3);
}

TEST_F(TwoPhones, MuteOutIsOneWay) {
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("B");
  });
  sim_.runFor(2_s);
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).setMute(false, /*muteOut=*/true);
  });
  sim_.runFor(1_s);
  a_.media().resetStats();
  b_.media().resetStats();
  sim_.runFor(1_s);
  EXPECT_EQ(b_.media().packetsReceived(), 0u);  // A is muted
  EXPECT_GT(a_.media().packetsReceived(), 10u);  // B still talks
}

TEST_F(TwoPhones, ManualAcceptRingsFirst) {
  auto& c = sim_.addBox<UserDeviceBox>("C", media_, sim_.loop(),
                                       MediaAddress::parse("10.0.0.3", 5000),
                                       UserDeviceBox::AcceptPolicy::manual);
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("C");
  });
  sim_.runFor(1_s);
  EXPECT_TRUE(c.ringing());
  EXPECT_FALSE(c.inCall());
  sim_.inject("C", [](Box& box) {
    static_cast<UserDeviceBox&>(box).acceptCall();
  });
  sim_.runFor(1_s);
  EXPECT_TRUE(c.inCall());
  EXPECT_TRUE(a_.inCall());
}

TEST_F(TwoPhones, DeclineLeavesCallerRetrying) {
  auto& c = sim_.addBox<UserDeviceBox>("C", media_, sim_.loop(),
                                       MediaAddress::parse("10.0.0.3", 5000),
                                       UserDeviceBox::AcceptPolicy::manual);
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("C");
  });
  sim_.runFor(1_s);
  sim_.inject("C", [](Box& box) {
    static_cast<UserDeviceBox&>(box).declineCall();
  });
  sim_.runFor(500_ms);
  EXPECT_FALSE(c.inCall());
  EXPECT_FALSE(a_.inCall());
  EXPECT_FALSE(a_.media().sendingNow());
}

TEST_F(TwoPhones, SignalCountsAreTracked) {
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("B");
  });
  sim_.runFor(2_s);
  // open, oack, select, select at minimum.
  EXPECT_GE(sim_.signalsDelivered(), 4u);
}

TEST_F(TwoPhones, SetupLatencyMatchesTimingModel) {
  // Direct call: A's open computed (c), travels (n), B processes and
  // answers (c), oack travels (n), A processes (c). B can transmit right
  // after its oack+select: that is c + n + c after injection... measured
  // from the injection stimulus completing. We check A hears B strictly
  // before 10x that bound and media started after the signaling minimum.
  sim_.inject("A", [](Box& box) {
    static_cast<UserDeviceBox&>(box).placeCall("B");
  });
  sim_.runFor(108_ms);  // c (inject) + c (open compute ... bundled) + n + c
  // B has just answered; B's media starts at its first tick after enable.
  EXPECT_TRUE(b_.media().sendingNow());
  EXPECT_FALSE(a_.media().sendingNow() &&
               a_.media().packetsReceived() > 0);  // nothing heard yet
}

}  // namespace
}  // namespace cmc
