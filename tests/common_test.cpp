// Unit tests for src/common: Status/Result, units, RNG, stats, RecyclingPool,
// KeyTable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/key_table.h"
#include "src/common/recycling_pool.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace ofc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such object");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such object");
}

TEST(StatusTest, AllErrorConstructorsSetDistinctCodes) {
  std::set<StatusCode> codes = {
      NotFoundError("").code(),           AlreadyExistsError("").code(),
      InvalidArgumentError("").code(),    FailedPreconditionError("").code(),
      ResourceExhaustedError("").code(),  UnavailableError("").code(),
      AbortedError("").code(),            DeadlineExceededError("").code(),
      InternalError("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(UnitsTest, ByteHelpers) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(1), 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
}

TEST(UnitsTest, TimeHelpers) {
  EXPECT_EQ(Millis(1), 1000);
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Minutes(2), 120 * 1000000LL);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(MiB(10)), "10 MiB");
  EXPECT_EQ(FormatDuration(Micros(250)), "250 us");
  EXPECT_EQ(FormatDuration(Millis(12)), "12 ms");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Gaussian(10.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 10.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Exponential(60.0));
  }
  EXPECT_NEAR(stat.mean(), 60.0, 2.0);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream must not simply replay the parent.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    equal += parent.NextU64() == child.NextU64();
  }
  EXPECT_LT(equal, 2);
}

TEST(RunningStatTest, Basics) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.99), 99.01, 0.01);
}

TEST(SamplesTest, PercentilesRefreshAfterLaterAdds) {
  // Regression: Add() must invalidate the sorted-percentile cache. Querying a
  // percentile (which builds the cache) and then adding more samples used to
  // keep serving the stale sorted copy.
  Samples s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);  // Builds the sorted cache.
  s.Add(30.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Median(), 20.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(s.Min(), 10.0);
}

TEST(SamplesTest, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
}

// Checks every order statistic of `s` against a fresh full sort of values().
void ExpectMatchesFullSort(const Samples& s) {
  std::vector<double> sorted = s.values();
  std::sort(sorted.begin(), sorted.end());
  const auto percentile = [&](double q) {
    if (sorted.empty()) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  };
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(s.Percentile(q), percentile(q)) << "q=" << q << " n=" << sorted.size();
  }
  EXPECT_EQ(s.Median(), percentile(0.5));
  EXPECT_EQ(s.Min(), sorted.empty() ? 0.0 : sorted.front());
  EXPECT_EQ(s.Max(), sorted.empty() ? 0.0 : sorted.back());
}

// Few distinct values, so runs of duplicates straddle burst boundaries; a rare
// outlier moves the maximum.
void AddBurst(Samples* s, Rng* rng, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    s->Add(rng->Bernoulli(0.01) ? rng->Uniform(100.0, 1000.0)
                                : static_cast<double>(rng->UniformInt(0, 24)) * 0.25);
  }
}

TEST(SamplesTest, IncrementalSortMatchesFullSort) {
  Rng rng(20);
  Samples s;
  ExpectMatchesFullSort(s);
  const std::size_t bursts[] = {1, 0, 3, 250, 1, 17, 4096, 2, 0, 999, 5, 1, 6000, 64};
  std::vector<Samples> copies;
  for (std::size_t i = 0; i < std::size(bursts); ++i) {
    AddBurst(&s, &rng, bursts[i]);
    if (i == 5) {
      copies.push_back(s);  // Carries values added since the last query.
    }
    SCOPED_TRACE("burst " + std::to_string(i));
    ExpectMatchesFullSort(s);
    ExpectMatchesFullSort(s);  // A repeated query sees the same view.
    if (i == 8) {
      copies.push_back(s);  // Taken right after a query.
    }
    for (Samples& copy : copies) {
      AddBurst(&copy, &rng, bursts[std::size(bursts) - 1 - i]);
      ExpectMatchesFullSort(copy);
    }
  }
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_NE(copies[0].count(), s.count());

  s = Samples();
  EXPECT_EQ(s.count(), 0u);
  ExpectMatchesFullSort(s);
  AddBurst(&s, &rng, 300);
  EXPECT_EQ(s.count(), 300u);
  ExpectMatchesFullSort(s);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);   // clamps to bucket 0
  h.Add(0.5);
  h.Add(9.9);
  h.Add(25.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(1), 4.0);
  EXPECT_FALSE(h.ToString("test").empty());
}

TEST(SlidingTimeWindowTest, ExpiresOldSamples) {
  SlidingTimeWindow w(Seconds(60));
  w.Add(Seconds(0), 100.0);
  w.Add(Seconds(30), 50.0);
  EXPECT_DOUBLE_EQ(w.MeanAt(Seconds(30)), 75.0);
  // At t=90s the t=0 sample is outside the 60 s window.
  EXPECT_DOUBLE_EQ(w.MeanAt(Seconds(90)), 50.0);
  EXPECT_EQ(w.CountAt(Seconds(200)), 0u);
}

TEST(SlidingTimeWindowTest, MaxTracksWindow) {
  SlidingTimeWindow w(Seconds(10));
  w.Add(Seconds(1), 5.0);
  w.Add(Seconds(2), 9.0);
  w.Add(Seconds(3), 3.0);
  EXPECT_DOUBLE_EQ(w.MaxAt(Seconds(3)), 9.0);
  EXPECT_DOUBLE_EQ(w.MaxAt(Seconds(13)), 3.0);
}

TEST(RecyclingPoolTest, NextMakeReusesAReleasedRecord) {
  RecyclingPool<std::string> pool;
  std::shared_ptr<std::string> first = pool.Make("first");
  const std::string* address = first.get();
  first.reset();
  // Had the pool freed the block to the heap, this same-sized allocation
  // would most likely take it back.
  RecyclingPool<std::string> other;
  const std::shared_ptr<std::string> elsewhere = other.Make("elsewhere");
  const std::shared_ptr<std::string> second = pool.Make("second");
  EXPECT_EQ(second.get(), address);
  EXPECT_EQ(*second, "second");
}

// The platform's requests can outlive it: an event-loop callback may drop the
// last one during teardown. Both records below are freed only after the pool
// is gone, one from its free list and one on release; ASan checks neither is
// used after free or leaked.
TEST(RecyclingPoolTest, RecordOutlivingItsPoolReleasesSafely) {
  std::shared_ptr<std::string> survivor;
  {
    RecyclingPool<std::string> pool;
    survivor = pool.Make("outlives the pool");
    pool.Make("released into the free list");
  }
  EXPECT_EQ(*survivor, "outlives the pool");
  survivor.reset();
}

struct KeyedItem {
  std::string key;
  int value = 0;
  std::vector<int> payload;
};

// Homes every key in one of the last four slots, whatever the table's
// capacity, so every probe run wraps past the end of the slot array and every
// erase shifts records back across it.
struct TailHash {
  std::size_t operator()(std::string_view key) const {
    return ~std::size_t{0} - std::hash<std::string_view>{}(key) % 4;
  }
};

// Drives a KeyTable and a std::map through the same random inserts, finds and
// erases, checking at every step that they agree and that a new key reuses the
// record erased last, capacity kept. Returns everything the table showed:
// each operation's outcome, filtered key-order walks, and cursor slices, which
// start halfway through so that later inserts and erases maintain the table's
// key-ordered index. `most_live`, if given, receives the largest size the
// table reached.
template <typename Hash>
std::vector<std::string> RunAgainstMap(int num_keys, int steps,
                                       std::size_t* most_live = nullptr) {
  KeyTable<KeyedItem, Hash> table;
  const KeyTable<KeyedItem, Hash>& view = table;
  std::map<std::string, int> model;
  std::vector<std::pair<KeyedItem*, std::size_t>> erased;  // Record, payload capacity.
  std::vector<std::string> shown;
  Rng rng(11);
  const auto random_key = [&] { return "k" + std::to_string(rng.UniformInt(0, num_keys - 1)); };
  for (int step = 0; step < steps; ++step) {
    const std::string key = random_key();
    const std::int64_t op = rng.UniformInt(0, 9);
    if (op < 5) {
      const auto [item, inserted] = table.Insert(key);
      EXPECT_EQ(inserted, !model.contains(key)) << key;
      EXPECT_EQ(item->key, key);
      if (inserted && !erased.empty()) {
        EXPECT_EQ(item, erased.back().first) << key;
        EXPECT_EQ(item->payload.capacity(), erased.back().second) << key;
        erased.pop_back();
      }
      if (inserted) {
        item->payload.assign(static_cast<std::size_t>(key.size()), step);
      }
      item->value = step;
      model[key] = step;
      shown.push_back("insert " + key + (inserted ? " new" : " old"));
    } else if (op < 8) {
      KeyedItem* item = table.Find(key);
      EXPECT_EQ(item != nullptr, model.contains(key)) << key;
      if (item != nullptr) {
        erased.emplace_back(item, item->payload.capacity());
        table.Erase(item);
        model.erase(key);
      }
      shown.push_back("erase " + key + (item != nullptr ? " hit" : " miss"));
    } else {
      const KeyedItem* item = view.Find(key);
      const auto modeled = model.find(key);
      EXPECT_EQ(item != nullptr, modeled != model.end()) << key;
      if (item != nullptr && modeled != model.end()) {
        EXPECT_EQ(item->value, modeled->second) << key;
      }
      shown.push_back("find " + key + " " + std::to_string(item ? item->value : -1));
    }
    EXPECT_EQ(table.size(), model.size());
    if (most_live != nullptr) {
      *most_live = std::max(*most_live, table.size());
    }
    if (step % 101 == 0) {
      std::string walk = "walk";
      std::string expected = "walk";
      for (const KeyedItem* item :
           view.InKeyOrder([](const KeyedItem& candidate) { return candidate.value % 2 == 0; })) {
        walk += " " + item->key;
      }
      for (const auto& [k, value] : model) {
        if (value % 2 == 0) {
          expected += " " + k;
        }
      }
      EXPECT_EQ(walk, expected) << "step " << step;
      shown.push_back(walk);
    }
    if (step >= steps / 2 && step % 7 == 0) {
      const std::string after = step % 5 == 0 ? "" : random_key();
      const std::size_t limit = static_cast<std::size_t>(rng.UniformInt(0, 40));
      std::vector<std::string> expected;
      for (auto it = model.upper_bound(after); it != model.end() && expected.size() < limit;
           ++it) {
        expected.push_back(it->first);
      }
      const std::vector<std::string> slice = view.KeysAfter(after, limit);
      EXPECT_EQ(slice, expected) << "after '" << after << "' step " << step;
      std::string joined = "after " + after + ":";
      for (const std::string& k : slice) {
        joined += " " + k;
      }
      shown.push_back(joined);
    }
  }
  // Every record left is erased through the table, and all of them come back
  // for the next inserts.
  for (KeyedItem* item : table.InKeyOrder([](const KeyedItem&) { return true; })) {
    table.Erase(item);
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(view.Find("k0"), nullptr);
  EXPECT_TRUE(view.KeysAfter("", 10).empty());
  return shown;
}

TEST(KeyTableTest, MatchesAnOrderedMapWhateverTheHashSalt) {
  // 3,000 keys, about 1,900 live at a time: the slot array doubles from 16
  // to 4,096.
  SetHashSalt(0);
  const std::vector<std::string> unsalted = RunAgainstMap<DetHash<std::string_view>>(3000, 30000);
  SetHashSalt(0x9e3779b97f4a7c15ull);
  const std::vector<std::string> salted = RunAgainstMap<DetHash<std::string_view>>(3000, 30000);
  SetHashSalt(0);
  EXPECT_EQ(unsalted, salted);
}

TEST(KeyTableTest, MatchesAnOrderedMapOnceItsSlotArrayIsMapped) {
  // 12,000 keys, about 7,500 live at a time: the slot array doubles from
  // operator new's arrays into a mapped one of 8,192 slots (128 KiB) and,
  // past 6,144 records, into one of 16,384, whose rehash releases the old
  // array's pages 64 KiB at a time.
  std::size_t most_live = 0;
  RunAgainstMap<DetHash<std::string_view>>(12000, 40000, &most_live);
  EXPECT_GT(most_live, 6144u);
}

TEST(KeyTableTest, MatchesAnOrderedMapWhenEveryProbeRunWraps) {
  const std::vector<std::string> wrapped = RunAgainstMap<TailHash>(200, 6000);
  // The same operations on well-spread keys show the same things.
  EXPECT_EQ(wrapped, RunAgainstMap<DetHash<std::string_view>>(200, 6000));
}

}  // namespace
}  // namespace ofc
