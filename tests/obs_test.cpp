// Unit tests for the observability layer: metrics registry, exporters, and
// per-invocation lifecycle tracing.
//
// The exporter tests validate output with a minimal recursive-descent JSON
// parser (no third-party dependency): it accepts exactly the RFC 8259 grammar
// minus number exponents/escapes we never emit, which is enough to catch
// malformed quoting, trailing commas and unbalanced brackets.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::obs {
namespace {

// ---- Minimal JSON well-formedness checker -----------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    for (++pos_; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\\') {
        ++pos_;  // Skip the escaped character.
      } else if (text_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;  // Unterminated.
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Members('}', /*keyed=*/true);
      case '[':
        return Members(']', /*keyed=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Members(char close, bool keyed) {
    ++pos_;  // Consume the opening bracket.
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (keyed) {
        if (!String()) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return false;
        }
        ++pos_;
      }
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) { return JsonChecker(text).Valid(); }

// ---- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesSeriesBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ofc.test.events");
  ++*c;
  c->Add(4);
  EXPECT_EQ(registry.CounterValue("ofc.test.events"), 5u);
  EXPECT_EQ(registry.GetCounter("ofc.test.events"), c);  // Stable get-or-create.

  Gauge* g = registry.GetGauge("ofc.test.level");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ofc.test.level"), 3.0);

  Series* s = registry.GetSeries("ofc.test.latency_ms");
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s->Observe(v);
  }
  const Series* found = registry.FindSeries("ofc.test.latency_ms");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 4u);
  EXPECT_DOUBLE_EQ(found->sum(), 10.0);
}

TEST(MetricsRegistryTest, LabeledCellsAreIndependentAndTotalled) {
  MetricsRegistry registry;
  registry.GetCounter("ofc.test.hits", "blur")->Add(3);
  registry.GetCounter("ofc.test.hits", "sepia")->Add(4);
  EXPECT_EQ(registry.CounterValue("ofc.test.hits", "blur"), 3u);
  EXPECT_EQ(registry.CounterValue("ofc.test.hits", "sepia"), 4u);
  EXPECT_EQ(registry.CounterValue("ofc.test.hits", "missing"), 0u);
  EXPECT_EQ(registry.CounterTotal("ofc.test.hits"), 7u);
}

TEST(MetricsRegistryTest, ReadsCreateNoCells) {
  MetricsRegistry registry;
  registry.GetCounter("ofc.test.hits", "blur")->Add(3);
  registry.GetGauge("ofc.test.level", "0")->Set(1.5);
  registry.GetSeries("ofc.test.latency_ms", "blur")->Observe(2.0);
  const std::string json = registry.SnapshotJson(Millis(5));
  const std::string csv = registry.SnapshotCsv(Millis(5));

  // An absent family (named through a variable: simlint rejects literal reads
  // of names that nothing registers).
  const std::string absent = "ofc.test.absent";
  EXPECT_EQ(registry.CounterValue(absent), 0u);
  EXPECT_EQ(registry.CounterValue(absent, "blur"), 0u);
  EXPECT_EQ(registry.CounterTotal(absent), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(absent), 0.0);
  EXPECT_EQ(registry.FindSeries(absent), nullptr);
  // Absent labels of present families, including the unlabeled cell.
  EXPECT_EQ(registry.CounterValue("ofc.test.hits"), 0u);
  EXPECT_EQ(registry.CounterValue("ofc.test.hits", "sepia"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ofc.test.level", "1"), 0.0);
  EXPECT_EQ(registry.FindSeries("ofc.test.latency_ms"), nullptr);
  EXPECT_EQ(registry.FindSeries("ofc.test.latency_ms", "sepia"), nullptr);

  EXPECT_EQ(registry.SnapshotJson(Millis(5)), json);
  EXPECT_EQ(registry.SnapshotCsv(Millis(5)), csv);
}

TEST(MetricsRegistryTest, ResetZeroesEveryCell) {
  MetricsRegistry registry;
  registry.GetCounter("ofc.test.c")->Add(9);
  registry.GetGauge("ofc.test.g")->Set(9);
  registry.GetSeries("ofc.test.s")->Observe(9);
  registry.Reset();
  EXPECT_EQ(registry.CounterValue("ofc.test.c"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("ofc.test.g"), 0.0);
  EXPECT_EQ(registry.FindSeries("ofc.test.s")->count(), 0u);
}

TEST(MetricsRegistryTest, SnapshotJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("ofc.test.hits", "with \"quotes\" and \\slashes\\")->Add(1);
  registry.GetGauge("ofc.test.level")->Set(1.5);
  registry.GetSeries("ofc.test.latency_ms")->Observe(12.0);
  const std::string json = registry.SnapshotJson(/*now=*/Millis(1500));
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"sim_time_us\": 1500000"), std::string::npos);
  EXPECT_NE(json.find("ofc.test.latency_ms"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotCsvHasHeaderAndOneRowPerCell) {
  MetricsRegistry registry;
  registry.GetCounter("ofc.test.hits", "a")->Add(1);
  registry.GetCounter("ofc.test.hits", "b")->Add(2);
  registry.GetSeries("ofc.test.ms")->Observe(5.0);
  const std::string csv = registry.SnapshotCsv();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t nl = csv.find('\n', start);
    lines.push_back(csv.substr(start, nl - start));
    if (nl == std::string::npos) {
      break;
    }
    start = nl + 1;
  }
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0], "name,type,label,value,count,mean,min,max,p50,p95,p99");
  int hit_rows = 0;
  for (const std::string& line : lines) {
    if (line.find("ofc.test.hits") == 0) {
      ++hit_rows;
    }
  }
  EXPECT_EQ(hit_rows, 2);
}

// ---- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder trace;  // Off by default.
  trace.Span("s", "cat", Millis(1), Millis(2), kPidInvocations, 1);
  trace.Instant("i", "cat", Millis(1), kPidInvocations, 1);
  EXPECT_EQ(trace.num_events(), 0u);
  EXPECT_FALSE(trace.Sampled(0));
}

TEST(TraceRecorderTest, SamplingIsDeterministicInTheId) {
  TraceOptions options;
  options.enabled = true;
  options.sample_period = 4;
  TraceRecorder trace(options);
  EXPECT_TRUE(trace.Sampled(0));
  EXPECT_FALSE(trace.Sampled(1));
  EXPECT_TRUE(trace.Sampled(8));
}

TEST(TraceRecorderTest, MaxEventsCapCountsDrops) {
  TraceOptions options;
  options.enabled = true;
  options.max_events = 2;
  TraceRecorder trace(options);
  for (int i = 0; i < 5; ++i) {
    trace.Instant("i", "cat", Millis(i), kPidInvocations, 1);
  }
  EXPECT_EQ(trace.num_events(), 2u);
  EXPECT_EQ(trace.num_dropped(), 3u);
}

TEST(TraceRecorderTest, ToJsonIsWellFormedAndTsMonotone) {
  TraceOptions options;
  options.enabled = true;
  TraceRecorder trace(options);
  trace.SetProcessName(kPidInvocations, "invocations");
  // Insert out of order; the exporter must sort by ts.
  trace.Span("b", "cat", Millis(30), Millis(5), kPidInvocations, 2, {{"k", "v"}});
  trace.Span("a", "cat", Millis(10), Millis(50), kPidInvocations, 1);
  trace.Instant("mark", "cat", Millis(20), kPidInvocations, 1);
  const std::string json = trace.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;

  // Extract the ts values of the non-metadata events in file order.
  std::vector<long> ts;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\": ", pos)) != std::string::npos) {
    pos += 6;
    ts.push_back(std::strtol(json.c_str() + pos, nullptr, 10));
  }
  ASSERT_EQ(ts.size(), 3u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]);
  }
}

// ---- End-to-end: a traced platform run ---------------------------------------

workloads::FunctionSpec TinySpec() {
  workloads::FunctionSpec spec;
  spec.name = "tiny";
  spec.kind = workloads::InputKind::kImage;
  spec.base_mem_mb = 100;
  spec.mem_copies = 5.0;
  spec.mem_noise = 0.0;
  spec.compute_us_per_mb = 50;
  return spec;
}

TEST(TracedPlatformTest, TwoInvocationsProduceLifecycleSpans) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyModel{Millis(5), 200e6, 0.0}, Rng(1), "rsds");
  faas::DirectDataService data(&rsds);
  MetricsRegistry metrics;
  TraceOptions trace_options;
  trace_options.enabled = true;
  TraceRecorder trace(trace_options);

  faas::PlatformOptions options;
  options.metrics = &metrics;
  options.trace = &trace;
  faas::Platform platform(&loop, options, &data, /*hooks=*/nullptr, Rng(2));
  faas::FunctionConfig config;
  config.spec = TinySpec();
  config.booked_memory = MiB(512);
  ASSERT_TRUE(platform.RegisterFunction(config).ok());

  rsds.Seed("in/obj", KiB(64), {});
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.width = 800;
  media.height = 800;
  media.byte_size = KiB(64);

  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    bool done = false;
    platform.Invoke("tiny", {faas::InputObject{"in/obj", media}}, {},
                    [&](const faas::InvocationRecord& r) {
                      EXPECT_FALSE(r.failed);
                      done = true;
                      ++completed;
                    });
    while (!done && loop.Step()) {
    }
  }
  ASSERT_EQ(completed, 2);

  const std::string json = trace.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // One cold start then one warm start, and both invocations hit every ETL
  // phase plus the whole-invocation span.
  auto occurrences = [&json](const std::string& needle) {
    int n = 0;
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"cold-start\""), 1);
  EXPECT_EQ(occurrences("\"warm-start\""), 1);
  EXPECT_EQ(occurrences("\"extract\""), 2);
  EXPECT_EQ(occurrences("\"transform\""), 2);
  EXPECT_EQ(occurrences("\"load\""), 2);
  EXPECT_EQ(occurrences("\"cat\": \"invocation\""), 2);  // Whole-invocation spans.

  // The registry saw the same run the trace did.
  EXPECT_EQ(metrics.CounterValue("ofc.platform.invocations"), 2u);
  EXPECT_EQ(metrics.CounterValue("ofc.platform.cold_starts"), 1u);
  EXPECT_EQ(metrics.CounterValue("ofc.platform.invocations_by_function", "tiny"), 2u);
}

TEST(TracedPlatformTest, SamplingSkipsUnsampledInvocations) {
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyModel{Millis(5), 200e6, 0.0}, Rng(1), "rsds");
  faas::DirectDataService data(&rsds);
  TraceOptions trace_options;
  trace_options.enabled = true;
  trace_options.sample_period = 1000;  // Only invocation ids divisible by 1000.
  TraceRecorder trace(trace_options);
  FlightRecorderOptions flight_options;
  flight_options.enabled = true;
  FlightRecorder flight(flight_options);

  faas::PlatformOptions options;
  options.trace = &trace;
  options.flight = &flight;
  faas::Platform platform(&loop, options, &data, /*hooks=*/nullptr, Rng(2));
  faas::FunctionConfig config;
  config.spec = TinySpec();
  config.booked_memory = MiB(512);
  ASSERT_TRUE(platform.RegisterFunction(config).ok());

  rsds.Seed("in/obj", KiB(64), {});
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.width = 800;
  media.height = 800;
  media.byte_size = KiB(64);
  bool done = false;
  std::uint64_t id = 0;
  platform.Invoke("tiny", {faas::InputObject{"in/obj", media}}, {},
                  [&](const faas::InvocationRecord& r) {
                    id = r.id;
                    done = true;
                  });
  while (!done && loop.Step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_NE(id % trace_options.sample_period, 0u);
  // Only metadata events (process names) — the invocation itself was unsampled.
  const std::string json = trace.ToJson();
  EXPECT_EQ(json.find("\"extract\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
  // The flight ring does not sample: the same invocation leaves its full chain.
  std::vector<FlightEventKind> chain;
  for (const FlightEvent* ev : flight.ChainFor(id)) {
    chain.push_back(ev->kind);
  }
  EXPECT_EQ(chain, (std::vector<FlightEventKind>{
                       FlightEventKind::kSubmit, FlightEventKind::kColdStart,
                       FlightEventKind::kExtract, FlightEventKind::kTransform,
                       FlightEventKind::kLoad, FlightEventKind::kComplete}));
}

}  // namespace
}  // namespace ofc::obs
