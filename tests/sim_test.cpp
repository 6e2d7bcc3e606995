// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"
#include "src/sim/latency.h"
#include "src/sim/periodic.h"

namespace ofc::sim {
namespace {

static_assert(!std::is_copy_constructible_v<InlineFunction<void(Status)>>);
static_assert(!std::is_copy_assignable_v<InlineFunction<void(Status)>>);
static_assert(sizeof(InlineFunction<void()>) == 64);

TEST(InlineFunctionTest, PassesArgumentsAndReturnsValues) {
  // By-value arguments arrive moved, reference arguments unchanged.
  InlineFunction<int(Result<int>, const std::string&)> add =
      [](Result<int> value, const std::string& text) {
        return value.ok() ? *value + static_cast<int>(text.size()) : -1;
      };
  EXPECT_EQ(add(Result<int>(4), "abc"), 7);
  EXPECT_EQ(add(NotFoundError("no value"), "abc"), -1);

  const std::string held = "held by the caller";
  const std::string* seen = nullptr;
  InlineFunction<void(const std::string&)> look = [&seen](const std::string& text) {
    seen = &text;
  };
  look(held);
  EXPECT_EQ(seen, &held);

  InlineFunction<bool(int)> even = [](int n) { return n % 2 == 0; };
  EXPECT_TRUE(even(4));
  EXPECT_FALSE(even(3));

  // A void signature discards the callable's result, [[nodiscard]] or not.
  int calls = 0;
  InlineFunction<void()> status = [&calls] {
    ++calls;
    return NotFoundError("discarded");
  };
  status();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunctionTest, HoldsMoveOnlyCapturesAndRunsRepeatedly) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int(int)> add = [owned = std::move(owned)](int n) { return *owned + n; };
  EXPECT_EQ(add(1), 42);
  EXPECT_EQ(add(2), 43);
}

// A callable past the 56-byte inline buffer that counts its live copies.
struct Oversized {
  static inline int live = 0;
  std::array<unsigned char, 80> payload{};
  Oversized() { ++live; }
  Oversized(const Oversized& other) : payload(other.payload) { ++live; }
  Oversized(Oversized&& other) noexcept : payload(other.payload) { ++live; }
  ~Oversized() { --live; }
  int operator()(int n) const { return n + payload[0]; }
};

TEST(InlineFunctionTest, OversizedCallableLivesOnTheHeapAndDiesOnce) {
  {
    InlineFunction<int(int)> first = Oversized{};
    EXPECT_EQ(Oversized::live, 1);
    // Moving a heap-backed function moves the owning pointer only.
    InlineFunction<int(int)> second = std::move(first);
    EXPECT_EQ(Oversized::live, 1);
    EXPECT_EQ(second(5), 5);
    second = InlineFunction<int(int)>();
    EXPECT_EQ(Oversized::live, 0);
    InlineFunction<int(int)> third = Oversized{};
    EXPECT_EQ(Oversized::live, 1);
  }
  EXPECT_EQ(Oversized::live, 0);
}

TEST(InlineFunctionTest, MovedFromFunctionIsEmptyAndReusable) {
  int calls = 0;
  InlineFunction<void()> first = [&calls] { ++calls; };
  EXPECT_TRUE(first);
  InlineFunction<void()> second = std::move(first);
  EXPECT_FALSE(first);  // NOLINT(bugprone-use-after-move): the moved-from state is the subject.
  EXPECT_TRUE(second);
  second();
  first = [&calls] { calls += 10; };
  first();
  EXPECT_EQ(calls, 11);
  EXPECT_FALSE(InlineFunction<void()>());
}

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAfter(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAfter(Millis(20), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(30));
}

TEST(EventLoopTest, EqualTimestampsRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAfter(Millis(10), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.ScheduleAfter(Millis(5), [&] {
    times.push_back(loop.now());
    loop.ScheduleAfter(Millis(5), [&] { times.push_back(loop.now()); });
  });
  loop.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(5));
  EXPECT_EQ(times[1], Millis(10));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int ran = 0;
  const auto id = loop.ScheduleAfter(Millis(5), [&] { ++ran; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // Second cancel is a no-op.
  loop.Run();
  EXPECT_EQ(ran, 0);
}

TEST(EventLoopTest, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAfter(Seconds(10), [&] { ++ran; });
  loop.RunUntil(Seconds(5));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.now(), Seconds(5));
  loop.RunUntil(Seconds(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), Seconds(20));
}

TEST(EventLoopTest, StepRunsExactlyOneEvent) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAfter(Millis(1), [&] { ++ran; });
  loop.ScheduleAfter(Millis(2), [&] { ++ran; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(loop.Step());
}

TEST(EventLoopTest, PendingEventsTracksCancelBookkeeping) {
  EventLoop loop;
  int ran = 0;
  const auto a = loop.ScheduleAfter(Millis(1), [&] { ++ran; });
  const auto b = loop.ScheduleAfter(Millis(2), [&] { ++ran; });
  loop.ScheduleAfter(Millis(3), [&] { ++ran; });
  EXPECT_EQ(loop.pending_events(), 3u);

  // A cancelled event keeps its queue slot but must not count as pending, and
  // a double cancel must not double-decrement the bookkeeping.
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_FALSE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_events(), 2u);

  EXPECT_TRUE(loop.Step());  // Runs a.
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_TRUE(loop.Step());  // Skips b's dead slot, runs the third event.
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_FALSE(loop.Step());

  EXPECT_FALSE(loop.Cancel(a));  // Already ran.
  loop.Run();                    // Dead slots must not resurrect anything.
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, StepSkipsCancelledEvents) {
  EventLoop loop;
  int ran = 0;
  const auto id = loop.ScheduleAfter(Millis(1), [&] { ++ran; });
  loop.ScheduleAfter(Millis(2), [&] { ++ran; });
  loop.Cancel(id);
  EXPECT_TRUE(loop.Step());  // Skips the cancelled one, runs the live one.
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(loop.Step());
}

TEST(PeriodicTaskTest, FiresEveryIntervalUntilStopped) {
  EventLoop loop;
  int ticks = 0;
  PeriodicTask task(&loop, Millis(10), [&](SimTime) { ++ticks; });
  task.Start();
  loop.RunFor(Millis(35));
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(task.running());
  task.Stop();
  EXPECT_FALSE(task.running());
  // A stopped task leaves no pending events: the loop is quiescent.
  loop.Run();
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTaskTest, ScopedDestructionBeforeNextTickCancelsPendingEvent) {
  // Regression: a PeriodicTask destroyed while its next tick is still pending
  // must cancel that event. The re-arming callback captures [this], so a
  // missed cancellation would have the loop call into a destroyed task —
  // under ASan this test would report heap-use-after-free.
  EventLoop loop;
  int ticks = 0;
  {
    PeriodicTask task(&loop, Millis(10), [&](SimTime) { ++ticks; });
    task.Start();
    loop.RunFor(Millis(25));  // Two ticks fired; the third is pending.
    EXPECT_EQ(ticks, 2);
    EXPECT_TRUE(task.running());
  }
  // The destructor cancelled the pending tick: draining the loop runs nothing
  // further and the tick count is frozen.
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.Run();
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTaskTest, DestructionOfNeverStartedTaskIsInert) {
  EventLoop loop;
  {
    PeriodicTask task(&loop, Millis(10), [](SimTime) {});
    EXPECT_FALSE(task.running());
  }
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(LatencyModelTest, BaseOnly) {
  LatencyModel m{Millis(10), 0.0, 0.0};
  EXPECT_EQ(m.Cost(MiB(100)), Millis(10));
}

TEST(LatencyModelTest, BandwidthProportional) {
  LatencyModel m{0, 1e6, 0.0};  // 1 MB/s
  EXPECT_EQ(m.Cost(1000000), Seconds(1));
  EXPECT_EQ(m.Cost(500000), Millis(500));
}

TEST(LatencyModelTest, JitterBoundsHold) {
  LatencyModel m{Millis(10), 0.0, 0.2};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const SimDuration c = m.Cost(0, &rng);
    EXPECT_GE(c, Millis(8) - 1);
    EXPECT_LE(c, Millis(12) + 1);
  }
}

TEST(LatencyModelTest, ProfilesOrderedByHierarchy) {
  // Local RAM < remote RAM < Redis-style IMOC < Swift < S3 for a 64 KiB object.
  Bytes size = KiB(64);
  const auto local = LatencyProfiles::RamcloudLocal().Cost(size);
  const auto remote = LatencyProfiles::RamcloudRemote().Cost(size);
  const auto redis = LatencyProfiles::RedisRequest().Cost(size);
  const auto swift = LatencyProfiles::SwiftRequest().Cost(size);
  const auto s3 = LatencyProfiles::S3Request().Cost(size);
  EXPECT_LT(local, remote);
  EXPECT_LT(remote, redis);
  EXPECT_LT(redis, swift);
  EXPECT_LT(swift, s3);
}

}  // namespace
}  // namespace ofc::sim
