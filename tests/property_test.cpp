// Property-based tests: invariants that must hold across randomized sweeps —
// cluster accounting under arbitrary operation sequences, interval-labeling
// algebra, latency-model monotonicity, ML coverage guarantees per function,
// and event-loop ordering under random schedules, checked against a reference
// queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/intervals.h"
#include "src/core/ml_service.h"
#include "src/core/proxy.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/ml/j48.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/latency.h"
#include "src/store/object_store.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"

namespace ofc {
namespace {

// ---- Event loop: ordering holds for any random schedule -------------------------

class EventLoopPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLoopPropertyTest, CallbacksFireInNondecreasingTimeOrder) {
  sim::EventLoop loop;
  Rng rng(GetParam());
  std::vector<SimTime> fired;
  for (int i = 0; i < 200; ++i) {
    loop.ScheduleAfter(rng.UniformInt(0, 10000), [&] { fired.push_back(loop.now()); });
  }
  loop.Run();
  ASSERT_EQ(fired.size(), 200u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST_P(EventLoopPropertyTest, CancelledEventsNeverFire) {
  sim::EventLoop loop;
  Rng rng(GetParam());
  int fired = 0;
  std::vector<sim::EventLoop::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.ScheduleAfter(rng.UniformInt(0, 1000), [&] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    cancelled += loop.Cancel(ids[i]) ? 1 : 0;
  }
  loop.Run();
  EXPECT_EQ(fired + cancelled, 100);
}

// The loop's observable behaviour, modelled on an ordered set of (when, seq)
// with a live flag per event. A cancelled event stays queued until it is popped
// or until cancelled events outnumber live ones (the loop's compaction
// trigger), because a RunUntil that the dispatch budget stops still sees it.
// The budget counts live dispatches only.
class ReferenceLoop {
 public:
  using EventId = std::uint64_t;

  SimTime now() const { return now_; }
  EventId ScheduleAfter(SimDuration delay, sim::InlineCallback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }
  EventId ScheduleAt(SimTime when, sim::InlineCallback cb) {
    queue_.emplace(when, events_.size());
    events_.push_back(Event{std::move(cb), true});
    return events_.size();
  }
  bool Cancel(EventId id) {
    Event& event = events_[id - 1];
    if (!event.live) {
      return false;
    }
    event.live = false;
    event.cb = sim::InlineCallback();
    ++cancelled_;
    if (cancelled_ >= 64 && cancelled_ * 2 >= queue_.size()) {
      std::erase_if(queue_, [&](const auto& entry) { return !events_[entry.second].live; });
      cancelled_ = 0;
    }
    return true;
  }
  void Run() {
    while (!queue_.empty() && !dispatch_budget_exhausted()) {
      PopFirst();
    }
  }
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && queue_.begin()->first <= deadline) {
      if (dispatch_budget_exhausted()) {
        return;
      }
      PopFirst();
    }
    now_ = std::max(now_, deadline);
  }
  bool Step() {
    while (!queue_.empty() && !dispatch_budget_exhausted()) {
      if (PopFirst()) {
        return true;
      }
    }
    return false;
  }
  std::size_t pending_events() const { return queue_.size() - cancelled_; }
  std::uint64_t total_scheduled() const { return events_.size(); }
  std::uint64_t total_dispatched() const { return dispatched_; }
  void set_dispatch_budget(std::uint64_t budget) {
    stop_at_ = budget == 0 ? 0 : dispatched_ + budget;
  }

 private:
  struct Event {
    sim::InlineCallback cb;
    bool live;  // Queued and not cancelled.
  };

  bool dispatch_budget_exhausted() const { return stop_at_ != 0 && dispatched_ >= stop_at_; }

  // Pops the first entry and runs it if it is live; returns whether it was.
  bool PopFirst() {
    const auto [when, seq] = *queue_.begin();
    queue_.erase(queue_.begin());
    Event& event = events_[seq];
    if (!event.live) {
      --cancelled_;
      return false;
    }
    event.live = false;
    sim::InlineCallback cb = std::move(event.cb);
    now_ = when;
    ++dispatched_;
    cb();
    return true;
  }

  SimTime now_ = 0;
  std::set<std::pair<SimTime, std::uint64_t>> queue_;
  std::vector<Event> events_;
  std::size_t cancelled_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t stop_at_ = 0;
};

// Plays one random script on a loop and records all it can observe of it:
// each dispatch (named by the order its event was scheduled in, not by its
// EventId, which slot reuse makes arbitrary), each Cancel and Step result, and
// now() and the counters after every operation. Callbacks schedule and cancel
// too, delays span 0 µs to 2^40 µs so that every radix bucket fills, and
// bursts of cancels make the loop compact.
template <typename Loop>
class LoopScript {
 public:
  explicit LoopScript(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::string> Play(int operations) {
    for (int op = 0; op < operations; ++op) {
      const std::int64_t kind = rng_.UniformInt(0, 99);
      if (kind < 30) {
        for (std::int64_t n = rng_.UniformInt(1, 4); n > 0; --n) {
          Schedule();
        }
        Record("schedule");
      } else if (kind < 45) {
        CancelAny();
        Record("cancel");
      } else if (kind < 60) {
        const bool stepped = loop_.Step();
        Record(stepped ? "step ran" : "step idle");
      } else if (kind < 75) {
        // Mostly ahead of now(), sometimes behind it.
        const SimTime deadline = loop_.now() + Delay() - rng_.UniformInt(0, 2);
        loop_.RunUntil(deadline);
        Record("run-until " + std::to_string(deadline));
      } else if (kind < 83) {
        const std::uint64_t budget =
            rng_.Bernoulli(0.3) ? 0 : static_cast<std::uint64_t>(rng_.UniformInt(1, 40));
        loop_.set_dispatch_budget(budget);
        Record("budget " + std::to_string(budget));
      } else if (kind < 88) {
        loop_.Run();
        Record("run");
      } else if (kind < 94) {
        CancelStorm();
      } else {
        DrainPastACancelledLastEntry();
      }
    }
    loop_.set_dispatch_budget(0);
    loop_.Run();
    Record("final run");
    return std::move(transcript_);
  }

 private:
  SimDuration Delay() {
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        return 0;
      case 1:
        return rng_.UniformInt(1, 3);
      case 2:
        return rng_.UniformInt(0, 1000);
      case 3:
        return rng_.UniformInt(0, 1'000'000);
      case 4:
        return rng_.UniformInt(0, 600'000'000);
      default:
        return rng_.UniformInt(0, std::int64_t{1} << 40);
    }
  }

  std::size_t Schedule(SimDuration delay) {
    const std::size_t token = ids_.size();
    auto cb = [this, token] { OnEvent(token); };
    ids_.push_back(rng_.Bernoulli(0.5) ? loop_.ScheduleAfter(delay, std::move(cb))
                                       : loop_.ScheduleAt(loop_.now() + delay, std::move(cb)));
    return token;
  }
  std::size_t Schedule() { return Schedule(Delay()); }

  // Cancels a pending, already-run or already-cancelled event, favouring
  // recent ones, which are more often still pending.
  void CancelAny() {
    if (ids_.empty()) {
      return;
    }
    const std::size_t recent = std::min<std::size_t>(ids_.size(), 16);
    Cancel(rng_.Bernoulli(0.7) ? ids_.size() - 1 - rng_.Index(recent) : rng_.Index(ids_.size()));
  }

  void Cancel(std::size_t token) {
    const bool cancelled = loop_.Cancel(ids_[token]);
    transcript_.push_back("cancel " + std::to_string(token) + (cancelled ? " ok" : " missed"));
  }

  // Schedules a burst and cancels most of it, so that cancelled entries come
  // to outnumber live ones and the loop compacts its queue.
  void CancelStorm() {
    const std::size_t first = ids_.size();
    for (std::int64_t n = rng_.UniformInt(64, 160); n > 0; --n) {
      Schedule();
    }
    for (std::size_t token = first; token < ids_.size(); ++token) {
      if (rng_.Bernoulli(0.8)) {
        Cancel(token);
      }
    }
    Record("cancel storm");
  }

  void OnEvent(std::size_t token) {
    transcript_.push_back("event " + std::to_string(token) + " at " + std::to_string(loop_.now()));
    const double children = rng_.NextDouble();
    if (children < 0.45) {
      Schedule();
    } else if (children < 0.55) {
      Schedule();
      Schedule();
    }
    if (rng_.Bernoulli(0.2)) {
      CancelAny();
    }
  }

  // Runs the queue dry with a cancelled event as its last entry, which leaves
  // the queue's last extracted time above now(), then schedules again.
  void DrainPastACancelledLastEntry() {
    loop_.set_dispatch_budget(0);
    loop_.Run();
    Schedule(rng_.UniformInt(0, 1000));
    Cancel(Schedule(rng_.UniformInt(1, std::int64_t{1} << 40)));
    loop_.Run();
    Record("drain past a cancelled entry");
    Schedule(rng_.UniformInt(0, 3));
    Record("schedule after the drain");
  }

  void Record(const std::string& op) {
    transcript_.push_back(op + ": now=" + std::to_string(loop_.now()) +
                          " pending=" + std::to_string(loop_.pending_events()) +
                          " scheduled=" + std::to_string(loop_.total_scheduled()) +
                          " dispatched=" + std::to_string(loop_.total_dispatched()));
  }

  Loop loop_;
  Rng rng_;
  std::vector<typename Loop::EventId> ids_;  // By token: scheduling order.
  std::vector<std::string> transcript_;
};

TEST_P(EventLoopPropertyTest, MatchesAReferenceQueue) {
  for (std::uint64_t script = 0; script < 40; ++script) {
    const std::uint64_t seed = GetParam() * 1000 + script;
    const std::vector<std::string> expected = LoopScript<ReferenceLoop>(seed).Play(1500);
    const std::vector<std::string> actual = LoopScript<sim::EventLoop>(seed).Play(1500);
    const auto [e, a] = std::mismatch(expected.begin(), expected.end(), actual.begin(), actual.end());
    ASSERT_TRUE(e == expected.end() && a == actual.end())
        << "seed " << seed << ", transcript line " << (e - expected.begin()) << ": expected \""
        << (e == expected.end() ? "<end>" : *e) << "\", got \""
        << (a == actual.end() ? "<end>" : *a) << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopPropertyTest, ::testing::Values(1, 7, 42, 1337));

// ---- Latency models: monotone in size, non-negative ------------------------------

class LatencyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyPropertyTest, CostIsMonotoneInSize) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    sim::LatencyModel model{rng.UniformInt(0, Millis(50)),
                            rng.Uniform(1e6, 1e10), 0.0};
    const Bytes a = rng.UniformInt(0, MiB(64));
    const Bytes b = a + rng.UniformInt(0, MiB(64));
    EXPECT_LE(model.Cost(a), model.Cost(b));
    EXPECT_GE(model.Cost(0), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyPropertyTest, ::testing::Values(3, 99));

// ---- Memory intervals: labeling algebra -------------------------------------------

class IntervalPropertyTest : public ::testing::TestWithParam<Bytes> {};

TEST_P(IntervalPropertyTest, UpperBoundCoversLabelledMemory) {
  const core::MemoryIntervals intervals(GetParam(), GiB(2));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Bytes memory = rng.UniformInt(0, GiB(2) - 1);
    const int label = intervals.Label(memory);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, intervals.num_classes());
    // The interval's upper bound always covers the memory that produced it.
    EXPECT_GE(intervals.UpperBound(label), memory + 1 - intervals.interval_size());
    EXPECT_GT(intervals.UpperBound(label), memory - intervals.interval_size());
    // The conservative allocation covers it outright (§5.3.1).
    EXPECT_GE(intervals.ConservativeAllocation(label) + intervals.interval_size(),
              memory);
    // Labels are monotone in memory.
    EXPECT_LE(intervals.Label(memory / 2), label);
  }
}

INSTANTIATE_TEST_SUITE_P(IntervalSizes, IntervalPropertyTest,
                         ::testing::Values(MiB(8), MiB(16), MiB(32)));

// ---- RAMCloud cluster: accounting invariants under random op sequences ------------

class ClusterPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterPropertyTest, AccountingStaysConsistent) {
  constexpr int kNodes = 5;
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = MiB(64);
  options.replication_factor = 2;
  rc::Cluster cluster(&loop, kNodes, options, Rng(11));
  Rng rng(GetParam());
  // Model of the cache's contents: every object the cluster still holds, by
  // size. Losses (crash, quarantine, all-copies-corrupt reads, rejected
  // updates) are reconciled against what the cluster reports.
  std::map<std::string, Bytes> live;
  // Drops from the model every key the cluster no longer holds.
  const auto reconcile_losses = [&] {
    std::size_t lost = 0;
    for (auto it = live.begin(); it != live.end();) {
      if (cluster.Contains(it->first)) {
        ++it;
      } else {
        it = live.erase(it);
        ++lost;
      }
    }
    return lost;
  };
  const auto pick_node = [&] { return static_cast<int>(rng.UniformInt(0, kNodes - 1)); };

  for (int step = 0; step < 3000; ++step) {
    const std::int64_t op = rng.UniformInt(0, 99);
    const std::string key = "k" + std::to_string(rng.UniformInt(0, 30));
    if (op < 30) {
      const Bytes size = rng.UniformInt(KiB(1), MiB(4));
      Status status = InternalError("unset");
      cluster.Write(pick_node(), key, size, 1, rc::ObjectClass::kInput, rng.Bernoulli(0.3),
                    [&](Status s) { status = s; });
      loop.Run();
      if (status.ok()) {
        live[key] = size;
      } else {
        // A rejected update has already released the old copy.
        ASSERT_FALSE(cluster.Contains(key)) << "step " << step;
        live.erase(key);
      }
    } else if (op < 42) {
      if (cluster.Remove(key).ok()) {
        live.erase(key);
      }
    } else if (op < 52) {
      (void)cluster.MigrateMaster(key);
    } else if (op < 70) {
      Status status = InternalError("unset");
      cluster.Read(pick_node(), key, [&](Result<rc::ReadHit> hit) { status = hit.status(); });
      loop.Run();
      if (status.code() == StatusCode::kDataLoss) {
        // Every copy was corrupt: the object is dropped everywhere.
        ASSERT_FALSE(cluster.Contains(key)) << "step " << step;
        live.erase(key);
      }
    } else if (op < 73) {
      const rc::RecoveryResult recovery = cluster.CrashNode(pick_node());
      ASSERT_EQ(recovery.objects_lost, reconcile_losses()) << "step " << step;
    } else if (op < 79) {
      cluster.RestartNode(pick_node());
    } else if (op < 89) {
      const rc::RecoveryResult recovery = cluster.QuarantineNode(pick_node());
      ASSERT_EQ(recovery.objects_lost, reconcile_losses()) << "step " << step;
    } else if (op < 95) {
      (void)cluster.CorruptReplica(pick_node(), static_cast<int>(rng.UniformInt(1, 3)));
    } else {
      (void)cluster.CorruptSegment(pick_node(), static_cast<int>(rng.UniformInt(1, 3)));
    }

    // Invariant 1: the cluster holds exactly the model's objects, and total
    // memory used equals the sum of their sizes.
    Bytes expected = 0;
    for (const auto& [k, size] : live) {
      expected += size;
    }
    ASSERT_EQ(cluster.TotalUsed(), expected) << "step " << step;
    ASSERT_EQ(cluster.NumObjects(), live.size()) << "step " << step;
    // Invariant 2: every node's memory is exactly the bytes of the objects it
    // masters, and its disk exactly the bytes of the backup copies it holds.
    std::vector<Bytes> mastered(kNodes, 0);
    std::vector<Bytes> held(kNodes, 0);
    const int want_backups = std::min(options.replication_factor,
                                      std::max(cluster.AliveNodes() - 1, 0));
    for (int n = 0; n < kNodes; ++n) {
      for (const rc::CachedObject& obj : cluster.ObjectsOn(n)) {
        const auto modeled = live.find(obj.key);
        ASSERT_TRUE(modeled != live.end()) << obj.key << " step " << step;
        ASSERT_EQ(modeled->second, obj.size) << obj.key << " step " << step;
        mastered[static_cast<std::size_t>(n)] += obj.size;
        // Invariant 3: master and backups are alive, the backups are
        // distinct and exclude the master, and replication is exactly
        // min(rf, alive - 1).
        ASSERT_TRUE(cluster.Alive(n)) << obj.key << " step " << step;
        ASSERT_EQ(static_cast<int>(obj.backups.size()), want_backups)
            << obj.key << " step " << step;
        std::vector<int> backups;
        for (const rc::Replica& backup : obj.backups) {
          backups.push_back(backup.node);
        }
        std::sort(backups.begin(), backups.end());
        ASSERT_EQ(std::adjacent_find(backups.begin(), backups.end()), backups.end())
            << obj.key << " step " << step;
        for (const rc::Replica& backup : obj.backups) {
          ASSERT_NE(backup.node, obj.master) << obj.key;
          ASSERT_TRUE(cluster.Alive(backup.node)) << obj.key << " step " << step;
          held[static_cast<std::size_t>(backup.node)] += obj.size;
        }
      }
    }
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(cluster.Used(n), mastered[static_cast<std::size_t>(n)])
          << "node " << n << " step " << step;
      ASSERT_LE(cluster.Used(n), cluster.Capacity(n));
      ASSERT_EQ(cluster.node_stats(n).disk_used, held[static_cast<std::size_t>(n)])
          << "node " << n << " step " << step;
    }
  }
}

TEST_P(ClusterPropertyTest, CrashRecoveryNeverLosesReplicatedObjects) {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.default_capacity = MiB(256);
  options.replication_factor = 2;
  rc::Cluster cluster(&loop, 5, options, Rng(13));
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    cluster.Write(static_cast<int>(rng.UniformInt(0, 4)), "obj" + std::to_string(i),
                  rng.UniformInt(KiB(4), MiB(2)), 1, rc::ObjectClass::kInput, false,
                  [](Status) {});
  }
  loop.Run();
  const std::size_t before = cluster.NumObjects();
  const int victim = static_cast<int>(rng.UniformInt(0, 4));
  const auto recovery = cluster.CrashNode(victim);
  EXPECT_EQ(recovery.objects_lost, 0u);
  EXPECT_EQ(cluster.NumObjects(), before);
  // All objects remain readable after the crash.
  int readable = 0;
  for (int i = 0; i < 60; ++i) {
    cluster.Read((victim + 1) % 5, "obj" + std::to_string(i),
                 [&](Result<rc::ReadHit> obj) { readable += obj.ok(); });
  }
  loop.Run();
  EXPECT_EQ(readable, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---- Workload demand: positivity and monotonicity across all functions -----------

class DemandPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DemandPropertyTest, DemandIsPositiveAndMonotoneInContent) {
  const workloads::FunctionSpec* spec = workloads::FindFunction(GetParam());
  ASSERT_NE(spec, nullptr);
  workloads::MediaGenerator generator(Rng(31));
  Rng rng(37);
  for (int i = 0; i < 50; ++i) {
    const auto media = generator.Generate(spec->kind);
    const auto args = workloads::SampleArgs(*spec, rng);
    const auto demand = workloads::ComputeDemand(*spec, media, args, nullptr);
    ASSERT_GT(demand.memory, 0);
    ASSERT_GT(demand.compute, 0);
    ASSERT_GT(demand.output_size, 0);
    // Doubling the content volume cannot reduce any demand (noise-free).
    workloads::MediaDescriptor bigger = media;
    switch (media.kind) {
      case workloads::InputKind::kImage:
        bigger.width *= 2;
        break;
      case workloads::InputKind::kAudio:
      case workloads::InputKind::kVideo:
        bigger.duration_s *= 2;
        break;
      case workloads::InputKind::kText:
        bigger.byte_size *= 2;
        break;
    }
    bigger.byte_size = std::max(bigger.byte_size, media.byte_size);
    const auto bigger_demand = workloads::ComputeDemand(*spec, bigger, args, nullptr);
    EXPECT_GE(bigger_demand.memory, demand.memory) << spec->name;
    EXPECT_GE(bigger_demand.compute, demand.compute) << spec->name;
  }
}

TEST_P(DemandPropertyTest, ConservativePredictionCoversDemand) {
  // End-to-end ML property: after enough training, the §5.3.1 conservative
  // allocation covers the true demand for >= 85 % of fresh inputs.
  const workloads::FunctionSpec* spec = workloads::FindFunction(GetParam());
  core::ModelConfig config;
  core::ModelRegistry registry(config);
  core::ModelTrainer trainer(&registry, store::StoreProfile::Swift());
  core::Predictor predictor(&registry);
  Rng rng(41);
  trainer.Pretrain(*spec, 1200, rng);
  if (!registry.Find(spec->name)->mature()) {
    GTEST_SKIP() << spec->name << " did not mature in 1200 invocations";
  }
  workloads::MediaGenerator generator(Rng(43));
  int covered = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto media = generator.Generate(spec->kind);
    const auto args = workloads::SampleArgs(*spec, rng);
    const auto prediction = predictor.Predict(*spec, media, args, GiB(2));
    const auto demand = workloads::ComputeDemand(*spec, media, args, &rng);
    covered += prediction.memory >= demand.memory;
  }
  EXPECT_GE(covered, 85) << spec->name;
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, DemandPropertyTest,
                         ::testing::Values("wand_blur", "wand_resize", "wand_sepia",
                                           "wand_rotate", "wand_denoise", "wand_edge",
                                           "wand_grayscale", "sharp_resize", "face_blur",
                                           "audio_compress", "speech_to_text",
                                           "video_grayscale", "text_summarize"));

// ---- Shadow objects: persistence requires a completed persistor run ---------------
//
// The §6.2 write-back state machine: a transparent write creates a shadow
// (rsds_version < latest_version) and the object may only become persisted
// (rsds_version == latest_version) through a completed persistor push. Under
// randomly injected persistor failures (dropped dispatch windows), shadows may
// linger arbitrarily long — but they must never resolve without a persistor
// run, versions must never run backwards, and once the drop windows close every
// shadow must converge.
class ShadowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShadowPropertyTest, ShadowsResolveOnlyThroughPersistorRuns) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
                          sim::LatencyProfiles::SwiftControl());
  rc::ClusterOptions cluster_options;
  cluster_options.default_capacity = GiB(1);
  cluster_options.replication_factor = 1;
  rc::Cluster cluster(&loop, 2, cluster_options, Rng(2));
  core::ProxyOptions proxy_options;
  proxy_options.persistor_retry_backoff = Millis(100);
  core::Proxy proxy(&loop, &cluster, &rsds, proxy_options);

  // Persistor faults only: random drop windows over the write burst.
  Rng rng(GetParam());
  fault::ChaosPlanOptions plan_options;
  plan_options.start = 0;
  plan_options.horizon = Seconds(10);
  plan_options.num_events = 4;
  plan_options.min_duration = Millis(500);
  plan_options.max_duration = Seconds(3);
  plan_options.include_worker_crashes = false;
  plan_options.include_node_crashes = false;
  plan_options.include_store_faults = false;
  fault::FaultPlan plan = fault::RandomFaultPlan(plan_options, &rng);
  fault::FaultInjector injector(
      &loop, fault::FaultInjectorTargets{nullptr, nullptr, nullptr, &proxy});
  ASSERT_TRUE(injector.Schedule(plan).ok());

  const int kWrites = 20;
  std::vector<std::string> keys;
  int acked = 0;
  for (int i = 0; i < kWrites; ++i) {
    const std::string key = "o" + std::to_string(i);
    keys.push_back(key);
    const Bytes size = rng.UniformInt(KiB(16), MiB(1));
    loop.ScheduleAt(rng.UniformInt(0, Seconds(10)), [&proxy, &acked, key, size] {
      faas::InvocationContext ctx;
      ctx.worker = 0;
      ctx.function = "f";
      ctx.should_cache = true;
      workloads::MediaDescriptor media;
      media.kind = workloads::InputKind::kImage;
      media.byte_size = size;
      proxy.Write(ctx, key, size, media, [&acked](Status s) { acked += s.ok(); });
    });
  }

  // Drive the whole run step by step, auditing the state machine throughout.
  std::map<std::string, std::uint64_t> finalizes_at_shadow;
  std::map<std::string, std::uint64_t> last_rsds_version;
  int transitions = 0;
  while (loop.Step()) {
    for (const std::string& key : keys) {
      const auto meta = rsds.Stat(key);
      if (!meta.ok()) {
        continue;
      }
      // Versions never run backwards, and the RSDS copy never leads.
      ASSERT_LE(meta->rsds_version, meta->latest_version) << key;
      ASSERT_GE(meta->rsds_version, last_rsds_version[key]) << key;
      last_rsds_version[key] = meta->rsds_version;
      if (meta->IsShadow()) {
        if (!finalizes_at_shadow.contains(key)) {
          finalizes_at_shadow[key] = rsds.metrics().CounterTotal("ofc.store.payload_finalizes");
        }
      } else if (auto it = finalizes_at_shadow.find(key);
                 it != finalizes_at_shadow.end()) {
        // Shadow -> persisted: only a completed persistor push explains it.
        ASSERT_GT(rsds.metrics().CounterTotal("ofc.store.payload_finalizes"), it->second)
            << key << " resolved without a persistor run";
        finalizes_at_shadow.erase(it);
        ++transitions;
      }
    }
  }

  // Every write was acknowledged, went through the shadow state, and converged
  // once the fault windows closed — nothing abandoned, nothing left dirty.
  EXPECT_EQ(acked, kWrites);
  EXPECT_EQ(transitions, kWrites);
  EXPECT_EQ(proxy.metrics().CounterValue("ofc.proxy.persistor_abandons"), 0u);
  for (const std::string& key : keys) {
    const auto meta = rsds.Stat(key);
    ASSERT_TRUE(meta.ok()) << key;
    EXPECT_FALSE(meta->IsShadow()) << key;
  }
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    for (const rc::CachedObject& obj : cluster.ObjectsOn(node)) {
      EXPECT_FALSE(obj.dirty) << obj.key;
    }
  }
  // The schedule actually exercised the fault path in at least one seed; keep
  // the assertion per-seed weak (a window may land before any dispatch) but
  // require the injector to have fired the whole plan.
  EXPECT_EQ(injector.metrics().CounterValue("ofc.fault.injected"), plan.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowPropertyTest, ::testing::Values(61, 62, 63, 64));

// ---- J48 determinism: same data -> same tree ---------------------------------------

class J48PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(J48PropertyTest, TrainingIsDeterministic) {
  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_sepia");
  const core::MemoryIntervals intervals;
  ml::Dataset data(
      ml::Schema(workloads::FeatureAttributes(*spec), intervals.ClassAttribute()));
  workloads::MediaGenerator generator{Rng(GetParam())};  // Braces: vexing parse.
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 250; ++i) {
    const auto media = generator.Generate(spec->kind);
    const auto args = workloads::SampleArgs(*spec, rng);
    const auto demand = workloads::ComputeDemand(*spec, media, args, &rng);
    ASSERT_TRUE(data.Add({workloads::ExtractFeatures(*spec, media, args),
                          intervals.Label(demand.memory), 1.0})
                    .ok());
  }
  ml::J48 a;
  ml::J48 b;
  ASSERT_TRUE(a.Train(data).ok());
  ASSERT_TRUE(b.Train(data).ok());
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  for (const ml::Instance& inst : data.instances()) {
    ASSERT_EQ(a.Predict(inst.features), b.Predict(inst.features));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, J48PropertyTest, ::testing::Values(51, 52));

}  // namespace
}  // namespace ofc
