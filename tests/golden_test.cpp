// Golden-file regression tests for every exporter artifact: the end-of-run
// metrics snapshot (JSON and CSV), the windowed timeline, the SLO health
// summary, the flight-recorder dump, and the Chrome trace.
//
// A fixed scenario (seed 42, three tenants, five simulated minutes) runs
// in-process and each artifact is compared byte-for-byte against
// tests/testdata/goldens/. The simulator's determinism guarantee is what
// makes this sound: the selfcheck harness proves these artifacts are
// byte-identical across replays, so any diff here is a real format or
// behavior change — either a regression, or an intentional change that must
// be re-blessed with tools/update_goldens.py (set OFC_UPDATE_GOLDENS=1 to
// rewrite the files in place).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/faasload/runner.h"
#include "src/obs/slo.h"

namespace ofc {
namespace {

namespace fs = std::filesystem;

bool UpdateMode() {
  const char* env = std::getenv("OFC_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The fixed scenario. Anything touched here invalidates the goldens, which is
// the point: the blessed files pin scenario + exporter behavior together.
std::unique_ptr<faasload::Runner> RunGoldenScenario() {
  faasload::EnvironmentOptions options;
  options.seed = 42;
  options.flight_capacity = 128;
  options.trace_sample = 1;
  options.scrape_interval = Seconds(30);
  std::string error;
  EXPECT_TRUE(obs::ParseSloSpecs(
      "warm=lat:ofc.platform.total_ms:p99:250\n"
      "shed=rate:ofc.overload.shed/ofc.platform.invocations:0.01",
      &options.slos, &error))
      << error;
  auto run = std::make_unique<faasload::Runner>(faasload::Mode::kOfc, options,
                                                faasload::TenantProfile::kNormal, /*seed=*/43);
  for (const char* function : {"wand_blur", "wand_sepia", "wand_edge"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 20.0;
    EXPECT_TRUE(run->load().AddTenant(spec).ok());
  }
  EXPECT_TRUE(run->Arm().ok());
  run->load().PretrainModels(100);
  EXPECT_TRUE(run->Run(Minutes(5)).ok());
  return run;
}

// Shared across tests: the scenario runs once, each artifact gets its own
// test so a diff names the exporter that moved.
faasload::Runner& Golden() {
  static const std::unique_ptr<faasload::Runner> run = RunGoldenScenario();
  return *run;
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const fs::path path = fs::path(OFC_TESTDATA_DIR) / "goldens" / name;
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run tools/update_goldens.py to bless it";
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) {
    return;
  }
  // Point at the first differing line so the failure is debuggable without
  // dumping two multi-kilobyte artifacts.
  const std::string& want = expected.str();
  std::size_t pos = 0;
  int line = 1;
  while (pos < want.size() && pos < actual.size() && want[pos] == actual[pos]) {
    if (want[pos] == '\n') {
      ++line;
    }
    ++pos;
  }
  const auto context = [](const std::string& s, std::size_t at) {
    const std::size_t begin = s.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
    const std::size_t end = s.find('\n', at);
    return s.substr(start, (end == std::string::npos ? s.size() : end) - start);
  };
  FAIL() << name << " diverged from its golden at line " << line << " (byte " << pos
         << ")\n  golden: " << context(want, pos) << "\n  actual: " << context(actual, pos)
         << "\nIf the change is intentional, re-bless with tools/update_goldens.py";
}

TEST(GoldenTest, MetricsJson) {
  CompareOrUpdate("metrics.json", Golden().artifacts().metrics_json);
}

TEST(GoldenTest, MetricsCsv) {
  CompareOrUpdate("metrics.csv",
                  Golden().env().metrics().SnapshotCsv(Golden().artifacts().final_time));
}

TEST(GoldenTest, TimelineJson) {
  CompareOrUpdate("timeline.json", Golden().artifacts().timeline_json);
}

TEST(GoldenTest, HealthJson) { CompareOrUpdate("health.json", Golden().artifacts().health_json); }

TEST(GoldenTest, FlightJson) {
  CompareOrUpdate("flight.json",
                  Golden().env().flight().ToJson("golden scenario end-of-run dump"));
}

TEST(GoldenTest, TraceJson) { CompareOrUpdate("trace.json", Golden().artifacts().trace_json); }

}  // namespace
}  // namespace ofc
