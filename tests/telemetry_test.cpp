// Tests for the second-generation observability layer: timeline windowing
// math, SLO burn-rate alerting, the flight recorder ring, and exporter
// escaping under hostile metric/label names.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/export_util.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"

namespace ofc::obs {
namespace {

// ---- TimelineRecorder --------------------------------------------------------

TEST(TimelineTest, CounterDeltasAndRates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t.count");
  TimelineRecorder timeline(&registry);

  c->Add(10);
  timeline.Scrape(Seconds(10));
  c->Add(5);
  timeline.Scrape(Seconds(20));

  ASSERT_EQ(timeline.windows().size(), 2u);
  const TimelineWindow& w0 = timeline.windows()[0];
  ASSERT_EQ(w0.counters.size(), 1u);
  EXPECT_EQ(w0.counters[0].value, 10u);
  EXPECT_EQ(w0.counters[0].delta, 10u);
  EXPECT_DOUBLE_EQ(w0.counters[0].rate_per_s, 1.0);
  const TimelineWindow& w1 = timeline.windows()[1];
  EXPECT_EQ(w1.counters[0].value, 15u);
  EXPECT_EQ(w1.counters[0].delta, 5u);
  EXPECT_DOUBLE_EQ(w1.counters[0].rate_per_s, 0.5);
  EXPECT_EQ(timeline.CounterDelta(0, "t.count"), 10u);
  EXPECT_EQ(timeline.CounterDelta(1, "t.count"), 5u);
}

TEST(TimelineTest, CounterResetIsTreatedAsRestartNotUnderflow) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t.count");
  TimelineRecorder timeline(&registry);

  c->Add(10);
  timeline.Scrape(Seconds(10));
  c->Reset();
  c->Add(3);
  timeline.Scrape(Seconds(20));

  // The shrink is read as a restart: the post-reset value is the delta, never
  // a wrapped-around huge number.
  EXPECT_EQ(timeline.windows()[1].counters[0].delta, 3u);
}

TEST(TimelineTest, ZeroLengthWindowHasZeroRate) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t.count");
  TimelineRecorder timeline(&registry);
  c->Add(7);
  timeline.Scrape(Seconds(5));
  c->Add(7);
  timeline.Scrape(Seconds(5));  // Same instant: delta present, rate 0.
  EXPECT_EQ(timeline.windows()[1].counters[0].delta, 7u);
  EXPECT_DOUBLE_EQ(timeline.windows()[1].counters[0].rate_per_s, 0.0);
}

TEST(TimelineTest, IntervalPercentilesAreWindowLocalWhileRunPercentilesAccumulate) {
  MetricsRegistry registry;
  Series* s = registry.GetSeries("t.lat_ms");
  TimelineRecorder timeline(&registry);

  for (int i = 0; i < 100; ++i) {
    s->Observe(10.0);
  }
  timeline.Scrape(Seconds(10));
  for (int i = 0; i < 100; ++i) {
    s->Observe(1000.0);
  }
  timeline.Scrape(Seconds(20));

  const TimelineSeries& s0 = timeline.windows()[0].series[0];
  const TimelineSeries& s1 = timeline.windows()[1].series[0];
  EXPECT_EQ(s0.delta, 100u);
  EXPECT_DOUBLE_EQ(s0.interval_p50, 10.0);
  EXPECT_DOUBLE_EQ(s0.interval_mean, 10.0);
  // Second window only saw the slow observations...
  EXPECT_EQ(s1.delta, 100u);
  EXPECT_DOUBLE_EQ(s1.interval_p50, 1000.0);
  EXPECT_DOUBLE_EQ(s1.interval_mean, 1000.0);
  // ...while the whole-run view mixes both populations.
  EXPECT_EQ(s1.count, 200u);
  EXPECT_GT(s1.run_p99, s1.run_p50);
  EXPECT_LE(s1.run_p50, 1000.0);
  EXPECT_GE(s1.run_p50, 10.0);
}

TEST(TimelineTest, QuietWindowReportsZeroDeltaAndSilentPercentiles) {
  MetricsRegistry registry;
  Series* s = registry.GetSeries("t.lat_ms");
  TimelineRecorder timeline(&registry);
  s->Observe(42.0);
  timeline.Scrape(Seconds(10));
  timeline.Scrape(Seconds(20));  // No new observations.
  const TimelineSeries& quiet = timeline.windows()[1].series[0];
  EXPECT_EQ(quiet.delta, 0u);
  EXPECT_DOUBLE_EQ(quiet.interval_p50, 0.0);
  EXPECT_DOUBLE_EQ(quiet.interval_p99, 0.0);
  EXPECT_EQ(quiet.count, 1u);  // Cumulative view still carries the total.
}

// Percentile of `values` by a full sort, with Samples::Percentile's formula.
double BruteForcePercentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

TEST(TimelineTest, PercentilesMatchBruteForceAcrossTheSampleCap) {
  // Pins today's behaviour past a series' stored-sample cap: interval
  // percentiles go quiet, the interval mean stays exact, and the run
  // percentiles freeze at the first 65,536 observations.
  constexpr std::size_t kCap = std::size_t{1} << 16;
  MetricsRegistry registry;
  Series* s = registry.GetSeries("t.lat_ms");
  TimelineRecorder timeline(&registry);
  Rng rng(20);
  std::vector<double> stored;
  std::size_t total = 0;
  std::size_t windows_past_cap = 0;
  const TimelineSeries* prev = nullptr;
  for (int w = 0; w < 30; ++w) {
    const auto burst = static_cast<std::size_t>(
        rng.Bernoulli(0.2) ? rng.UniformInt(0, 3) : rng.UniformInt(1500, 7000));
    const std::size_t stored_before = stored.size();
    const bool past_cap = total >= kCap;
    double burst_sum = 0.0;
    for (std::size_t i = 0; i < burst; ++i) {
      // Quarter-unit values keep every sum exact; the shift after the cap
      // would move any percentile that saw it.
      double v = std::round(rng.Exponential(40.0) * 4.0) / 4.0;
      if (total >= kCap) {
        v += 1000.0;
      }
      s->Observe(v);
      burst_sum += v;
      if (stored.size() < kCap) {
        stored.push_back(v);
      }
      ++total;
    }
    timeline.Scrape(Seconds(10 * (w + 1)));
    const TimelineSeries& out = timeline.windows().back().series[0];
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(out.count, total);
    EXPECT_EQ(out.delta, burst);
    EXPECT_EQ(out.interval_mean, burst > 0 ? burst_sum / static_cast<double>(burst) : 0.0);
    const std::vector<double> slice(stored.begin() + static_cast<std::ptrdiff_t>(stored_before),
                                    stored.end());
    EXPECT_EQ(out.interval_p50, BruteForcePercentile(slice, 0.50));
    EXPECT_EQ(out.interval_p95, BruteForcePercentile(slice, 0.95));
    EXPECT_EQ(out.interval_p99, BruteForcePercentile(slice, 0.99));
    EXPECT_EQ(out.run_p50, BruteForcePercentile(stored, 0.50));
    EXPECT_EQ(out.run_p99, BruteForcePercentile(stored, 0.99));
    if (past_cap) {
      ++windows_past_cap;
      EXPECT_EQ(out.interval_p50, 0.0);
      EXPECT_EQ(out.interval_p95, 0.0);
      EXPECT_EQ(out.interval_p99, 0.0);
      EXPECT_EQ(out.run_p50, prev->run_p50);
      EXPECT_EQ(out.run_p99, prev->run_p99);
    }
    prev = &out;
  }
  EXPECT_GT(total, 90'000u);
  EXPECT_GE(windows_past_cap, 5u);
}

TEST(TimelineTest, RingEvictsOldestWindowsAtCapacity) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t.count");
  TimelineOptions options;
  options.max_windows = 4;
  TimelineRecorder timeline(&registry, options);
  for (int i = 1; i <= 10; ++i) {
    c->Add(1);
    timeline.Scrape(Seconds(i));
  }
  EXPECT_EQ(timeline.windows().size(), 4u);
  EXPECT_EQ(timeline.total_windows(), 10u);
  EXPECT_EQ(timeline.evicted(), 6u);
  // Retained windows keep their monotonic scrape indices.
  EXPECT_EQ(timeline.windows().front().index, 6u);
  EXPECT_EQ(timeline.windows().back().index, 9u);
  // An evicted window's delta is gone; a retained one still answers.
  EXPECT_EQ(timeline.CounterDelta(0, "t.count"), 0u);
  EXPECT_EQ(timeline.CounterDelta(9, "t.count"), 1u);
}

TEST(TimelineTest, JsonIsByteIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    MetricsRegistry registry;
    Counter* c = registry.GetCounter("t.count", "fn");
    Series* s = registry.GetSeries("t.lat_ms");
    TimelineRecorder timeline(&registry);
    for (int i = 1; i <= 5; ++i) {
      c->Add(static_cast<std::uint64_t>(i));
      s->Observe(10.0 * i);
      timeline.Scrape(Seconds(i * 10));
    }
    return timeline.ToJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"windows\""), std::string::npos);
  EXPECT_NE(a.find("\"rate_per_s\""), std::string::npos);
}

// ---- SLO spec parsing --------------------------------------------------------

TEST(SloParseTest, ParsesLatencyAndRateSpecsWithOptions) {
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "warm=lat:ofc.platform.total_ms:p99:250:fast=30:slow=300:fastburn=10:slowburn=4;"
      "# a comment line\n"
      "rate:ofc.overload.shed/ofc.platform.invocations:0.005",
      &specs, &error))
      << error;
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "warm");
  EXPECT_EQ(specs[0].type, SloSpec::Type::kLatency);
  EXPECT_EQ(specs[0].series, "ofc.platform.total_ms");
  EXPECT_DOUBLE_EQ(specs[0].quantile, 0.99);
  EXPECT_DOUBLE_EQ(specs[0].target_ms, 250.0);
  EXPECT_NEAR(specs[0].budget, 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(specs[0].fast_window_s, 30.0);
  EXPECT_DOUBLE_EQ(specs[0].slow_window_s, 300.0);
  EXPECT_DOUBLE_EQ(specs[0].fast_burn_threshold, 10.0);
  EXPECT_DOUBLE_EQ(specs[0].slow_burn_threshold, 4.0);
  // Unnamed specs get positional names; defaults stay in place.
  EXPECT_EQ(specs[1].name, "slo2");
  EXPECT_EQ(specs[1].type, SloSpec::Type::kRate);
  EXPECT_EQ(specs[1].numerator, "ofc.overload.shed");
  EXPECT_EQ(specs[1].denominator, "ofc.platform.invocations");
  EXPECT_DOUBLE_EQ(specs[1].budget, 0.005);
  EXPECT_DOUBLE_EQ(specs[1].fast_window_s, 60.0);
  EXPECT_DOUBLE_EQ(specs[1].slow_window_s, 600.0);
}

TEST(SloParseTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "latency:foo:p99:100",               // unknown type keyword
      "lat:foo:99:100",                    // percentile missing the 'p'
      "lat:foo:p0:100",                    // percentile out of range
      "lat:foo:p99",                       // missing target
      "rate:foo:0.01",                     // missing '/'
      "rate:foo/bar:2",                    // budget out of (0, 1]
      "lat:foo:p99:100:fast=600:slow=60",  // fast window exceeds slow
      "lat:foo:p99:100:bogus=1",           // unknown option
      "=lat:foo:p99:100",                  // empty name
  };
  for (const char* spec : bad) {
    std::vector<SloSpec> specs;
    std::string error;
    EXPECT_FALSE(ParseSloSpecs(spec, &specs, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---- SloMonitor --------------------------------------------------------------

SloSpec LatencySpec() {
  std::vector<SloSpec> specs;
  std::string error;
  EXPECT_TRUE(ParseSloSpecs("warm=lat:t.lat_ms:p99:100", &specs, &error)) << error;
  return specs[0];
}

TEST(SloMonitorTest, LatencyAlertFiresOnBothWindowsAndClearsOnRecovery) {
  MetricsRegistry registry;
  Series* lat = registry.GetSeries("t.lat_ms");
  SloMonitor monitor(&registry, /*trace=*/nullptr, {LatencySpec()});

  monitor.Evaluate(0);
  // One minute of 100% over-target traffic: burn = 1.0 / 0.01 = 100 on both
  // windows, past fastburn=14 and slowburn=6.
  for (int i = 0; i < 100; ++i) {
    lat->Observe(200.0);
  }
  monitor.Evaluate(Seconds(60));
  ASSERT_EQ(monitor.alerts_fired(), 1u);
  EXPECT_EQ(monitor.alerts()[0].slo, "warm");
  EXPECT_EQ(monitor.alerts()[0].fired_at, Seconds(60));
  EXPECT_EQ(monitor.alerts()[0].resolved_at, 0);
  EXPECT_NEAR(monitor.alerts()[0].fast_burn, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ofc.slo.firing", "warm"), 1.0);
  EXPECT_EQ(registry.CounterValue("ofc.slo.alerts", "warm"), 1u);

  // A healthy minute empties the fast window; the alert clears even though the
  // slow window still remembers the bad minute.
  for (int i = 0; i < 200; ++i) {
    lat->Observe(10.0);
  }
  monitor.Evaluate(Seconds(120));
  ASSERT_EQ(monitor.alerts_fired(), 1u);  // Cleared, not re-fired.
  EXPECT_EQ(monitor.alerts()[0].resolved_at, Seconds(120));
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ofc.slo.firing", "warm"), 0.0);
  EXPECT_NEAR(monitor.worst_burn(), 100.0, 1e-9);
}

TEST(SloMonitorTest, BlipBelowThresholdDoesNotFire) {
  MetricsRegistry registry;
  Series* lat = registry.GetSeries("t.lat_ms");
  SloMonitor monitor(&registry, nullptr, {LatencySpec()});
  monitor.Evaluate(0);
  // 5% over target: burn 5 clears slowburn=6? No — 5 < 6, and 5 < fastburn=14.
  for (int i = 0; i < 95; ++i) {
    lat->Observe(10.0);
  }
  for (int i = 0; i < 5; ++i) {
    lat->Observe(200.0);
  }
  monitor.Evaluate(Seconds(60));
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  EXPECT_NEAR(monitor.worst_burn(), 5.0, 1e-9);
}

TEST(SloMonitorTest, RateSloCountsCounterDeltasPerInterval) {
  MetricsRegistry registry;
  Counter* bad = registry.GetCounter("t.bad");
  Counter* total = registry.GetCounter("t.total");
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs("shed=rate:t.bad/t.total:0.01", &specs, &error)) << error;
  SloMonitor monitor(&registry, nullptr, specs);

  monitor.Evaluate(0);
  bad->Add(50);
  total->Add(100);
  monitor.Evaluate(Seconds(60));
  ASSERT_EQ(monitor.alerts_fired(), 1u);
  EXPECT_NEAR(monitor.alerts()[0].fast_burn, 50.0, 1e-9);  // (50/100)/0.01
}

TEST(SloMonitorTest, MetricCellsExistBeforeAnyAlertFires) {
  MetricsRegistry registry;
  SloMonitor monitor(&registry, nullptr, {LatencySpec()});
  // Eager creation keeps snapshot layout independent of alert activity.
  const std::string snapshot = registry.SnapshotJson();
  EXPECT_NE(snapshot.find("ofc.slo.alerts"), std::string::npos);
  EXPECT_NE(snapshot.find("ofc.slo.burn_fast"), std::string::npos);
  EXPECT_NE(snapshot.find("ofc.slo.burn_slow"), std::string::npos);
  EXPECT_NE(snapshot.find("ofc.slo.firing"), std::string::npos);
}

TEST(SloMonitorTest, HealthJsonCarriesAlertsAndEscapesHostileNames) {
  MetricsRegistry registry;
  Series* lat = registry.GetSeries("t.lat_ms");
  SloSpec spec = LatencySpec();
  spec.name = "we\"ird\nname";
  SloMonitor monitor(&registry, nullptr, {spec});
  monitor.Evaluate(0);
  for (int i = 0; i < 100; ++i) {
    lat->Observe(200.0);
  }
  monitor.Evaluate(Seconds(60));
  const std::string health = monitor.HealthJson(Seconds(60));
  EXPECT_NE(health.find("\"alerts_fired\": 1"), std::string::npos);
  EXPECT_NE(health.find("\"worst_burn\""), std::string::npos);
  EXPECT_NE(health.find("\"breaker\""), std::string::npos);
  EXPECT_NE(health.find("we\\\"ird\\nname"), std::string::npos);
  EXPECT_EQ(health.find("we\"ird\nname"), std::string::npos);  // No raw bytes.
}

// ---- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  FlightRecorder flight;  // Default: disabled.
  flight.Record(Seconds(1), FlightEventKind::kSubmit, 1);
  EXPECT_EQ(flight.size(), 0u);
  EXPECT_EQ(flight.total_recorded(), 0u);
}

TEST(FlightRecorderTest, RingEvictsOldestBeyondCapacity) {
  FlightRecorder flight({/*enabled=*/true, /*capacity=*/4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight.Record(static_cast<SimTime>(i), FlightEventKind::kSubmit, i + 1);
  }
  EXPECT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.total_recorded(), 10u);
  EXPECT_EQ(flight.evicted(), 6u);
  EXPECT_EQ(flight.ChainFor(7).size(), 1u);   // Retained.
  EXPECT_TRUE(flight.ChainFor(1).empty());    // Evicted.
}

TEST(FlightRecorderTest, ChainForFollowsInvocationAndParentLinks) {
  FlightRecorder flight({/*enabled=*/true, /*capacity=*/64});
  flight.Record(Seconds(1), FlightEventKind::kSubmit, 7, 0, 2, "fn");
  flight.Record(Seconds(1), FlightEventKind::kCacheMiss, 7, 0, 2, "key-a");
  // Persistor job: control-plane record linked back via parent_id.
  flight.Record(Seconds(2), FlightEventKind::kPersistorDispatch, 0, 7, -1, "key-a");
  flight.Record(Seconds(3), FlightEventKind::kComplete, 7, 0, 2, "fn");
  flight.Record(Seconds(3), FlightEventKind::kSubmit, 8);  // Unrelated.

  const auto chain = flight.ChainFor(7);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0]->kind, FlightEventKind::kSubmit);
  EXPECT_EQ(chain[2]->kind, FlightEventKind::kPersistorDispatch);
  EXPECT_EQ(chain[2]->parent_id, 7u);
  EXPECT_EQ(chain[3]->kind, FlightEventKind::kComplete);
}

TEST(FlightRecorderTest, JsonDumpEscapesHostilePayloadsAndCarriesReason) {
  FlightRecorder flight({/*enabled=*/true, /*capacity=*/8});
  flight.Record(Seconds(1), FlightEventKind::kFail, 3, 0, 0, "fn\"quote", "line\nbreak");
  const std::string dump = flight.ToJson("invariant \"X\" violated");
  EXPECT_NE(dump.find("\"reason\": \"invariant \\\"X\\\" violated\""), std::string::npos);
  EXPECT_NE(dump.find("fn\\\"quote"), std::string::npos);
  EXPECT_NE(dump.find("line\\nbreak"), std::string::npos);
  EXPECT_EQ(dump.find("line\nbreak"), std::string::npos);
  EXPECT_NE(dump.find("\"total_recorded\": 1"), std::string::npos);
}

// ---- Exporter escaping (hostile metric/label names) --------------------------

TEST(ExportUtilTest, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ExportUtilTest, JsonNumberNeverEmitsNanOrInf) {
  EXPECT_EQ(JsonNumber(2.0), "2");
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
  EXPECT_NE(JsonNumber(2.5).find('.'), std::string::npos);
}

TEST(ExportUtilTest, CsvFieldQuotesOnlyWhenNecessary) {
  EXPECT_EQ(CsvField("plain"), "plain");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvField("a\nb"), "\"a\nb\"");
}

TEST(ExportUtilTest, RegistryExportersSurviveHostileNamesAndLabels) {
  MetricsRegistry registry;
  registry.GetCounter("evil\"metric", "lab,el\nx")->Add(3);
  registry.GetSeries("s\\eries", "q\"l")->Observe(1.0);

  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("evil\\\"metric"), std::string::npos);
  EXPECT_NE(json.find("lab,el\\nx"), std::string::npos);
  EXPECT_NE(json.find("s\\\\eries"), std::string::npos);
  EXPECT_EQ(json.find("evil\"metric"), std::string::npos);  // No raw quote.

  const std::string csv = registry.SnapshotCsv();
  EXPECT_NE(csv.find("\"evil\"\"metric\""), std::string::npos);
  EXPECT_NE(csv.find("\"lab,el\nx\""), std::string::npos);
}

}  // namespace
}  // namespace ofc::obs
