#include "tools/simlint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ofc::simlint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(SIMLINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> LintFixture(const std::string& name) {
  return LintSource(name, ReadFixture(name));
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

bool AllRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::all_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(SimlintTest, FlagsWallClock) {
  const auto findings = LintFixture("violation_wallclock.cc");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_TRUE(AllRule(findings, "wall-clock"));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", 5));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", 6));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", 7));
}

TEST(SimlintTest, FlagsAmbientRng) {
  const auto findings = LintFixture("violation_rng.cc");
  EXPECT_TRUE(AllRule(findings, "ambient-rng"));
  EXPECT_TRUE(HasFinding(findings, "ambient-rng", 7));   // srand + time(nullptr)
  EXPECT_TRUE(HasFinding(findings, "ambient-rng", 8));   // random_device
  EXPECT_TRUE(HasFinding(findings, "ambient-rng", 9));   // mt19937
  EXPECT_TRUE(HasFinding(findings, "ambient-rng", 10));  // rand()
}

TEST(SimlintTest, RngImplementationIsExempt) {
  // The same content under the sanctioned Rng path produces no findings.
  const auto findings = LintSource("src/common/rng.cc", ReadFixture("violation_rng.cc"));
  EXPECT_TRUE(findings.empty());
}

TEST(SimlintTest, FlagsUnorderedIterationOnlyWhenSinkReached) {
  const auto findings = LintFixture("violation_unordered_iter.cc");
  EXPECT_EQ(findings.size(), 2u) << (findings.empty() ? "" : FormatFinding(findings[0]));
  EXPECT_TRUE(AllRule(findings, "unordered-iter"));
  EXPECT_TRUE(HasFinding(findings, "unordered-iter", 20));  // range-for → ScheduleAt
  EXPECT_TRUE(HasFinding(findings, "unordered-iter", 23));  // begin() → Observe
  // The accumulate-only loop and the copy-then-sort idiom stay clean.
}

TEST(SimlintTest, UnorderedLoopThatEmitsIsFlagged) {
  // Components reach the trace and the flight ring through one Emit() call on
  // an emitter whose name says nothing about either sink.
  const std::string src =
      "#include <unordered_map>\n"
      "struct Agent {\n"
      "  std::unordered_map<std::string, int> owners_;\n"
      "  Emitter emit_;\n"
      "  void Report() {\n"
      "    for (const auto& [key, node] : owners_) {\n"
      "      emit_.Emit({.kind = Kind::kMigration, .worker = node});\n"
      "    }\n"
      "  }\n"
      "};\n";
  const auto findings = LintSource("src/core/agent.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(SimlintTest, FindEndMembershipCheckIsClean) {
  const std::string src =
      "#include <string>\n"
      "#include <unordered_map>\n"
      "struct S {\n"
      "  bool Has(const std::string& k) {\n"
      "    return m_.find(k) != m_.end() && metrics_ != nullptr;\n"
      "  }\n"
      "  std::unordered_map<std::string, int> m_;\n"
      "  int* metrics_ = nullptr;\n"
      "};\n";
  EXPECT_TRUE(LintSource("src/core/s.h", src).empty());
}

TEST(SimlintTest, FlagsDanglingCaptures) {
  const auto findings = LintSource("src/core/violation_dangling_capture.cc",
                                   ReadFixture("violation_dangling_capture.cc"));
  EXPECT_EQ(findings.size(), 4u) << (findings.empty() ? "" : FormatFinding(findings[0]));
  EXPECT_TRUE(AllRule(findings, "dangling-capture"));
  EXPECT_TRUE(HasFinding(findings, "dangling-capture", 17));  // [&]
  EXPECT_TRUE(HasFinding(findings, "dangling-capture", 18));  // [&local]
  EXPECT_TRUE(HasFinding(findings, "dangling-capture", 19));  // [&v = local]
  EXPECT_TRUE(HasFinding(findings, "dangling-capture", 20));  // PeriodicTask cb
  // [p = &local] (address-of, by value) and [local] stay clean.
}

TEST(SimlintTest, DanglingCaptureRuleOnlyAppliesUnderSrc) {
  // Tests drive loops synchronously within the frame; by-ref captures there
  // are routine.
  const std::string content = ReadFixture("violation_dangling_capture.cc");
  EXPECT_TRUE(LintSource("tests/sim_test.cpp", content).empty());
}

TEST(SimlintTest, FlagsStdFunctionInDataPathHeaders) {
  const std::string fixture = ReadFixture("violation_std_function_completion.h");
  for (const char* label : {"src/store/seeded.h", "src/ramcloud/seeded.h", "src/core/proxy.h",
                            "src/core/cache_agent.h"}) {
    const auto findings = LintSource(label, fixture);
    ASSERT_EQ(findings.size(), 1u) << label;
    EXPECT_TRUE(HasFinding(findings, "std-function-completion", 12)) << label;
  }
}

TEST(SimlintTest, StdFunctionRuleCoversOnlyDataPathHeaders) {
  const std::string fixture = ReadFixture("violation_std_function_completion.h");
  // Sources, other modules' headers and the rest of core/ may use it.
  for (const char* label : {"src/store/seeded.cc", "src/faas/platform.h", "src/core/ofc_system.h",
                            "tests/seeded.h"}) {
    EXPECT_TRUE(LintSource(label, fixture).empty()) << label;
  }
  // A justified suppression on the line above waives it, as for every rule.
  const std::string suppressed =
      "#include <functional>\n"
      "struct Service {\n"
      "  // simlint: allow(std-function-completion) -- an interface owned elsewhere\n"
      "  void Read(std::function<void(int)> done);\n"
      "};\n";
  EXPECT_TRUE(LintSource("src/core/proxy.h", suppressed).empty());
}

TEST(SimlintTest, FlagsDcheckSideEffects) {
  const auto findings = LintFixture("violation_dcheck_side_effect.cc");
  EXPECT_EQ(findings.size(), 3u) << (findings.empty() ? "" : FormatFinding(findings[0]));
  EXPECT_TRUE(AllRule(findings, "dcheck-side-effect"));
  EXPECT_TRUE(HasFinding(findings, "dcheck-side-effect", 10));  // .pop_front()
  EXPECT_TRUE(HasFinding(findings, "dcheck-side-effect", 11));  // counter++
  EXPECT_TRUE(HasFinding(findings, "dcheck-side-effect", 12));  // counter = 1
  // The pure read and the IIFE mutating its own locals stay clean.
}

TEST(SimlintTest, HoistedMutationOutsideDcheckIsClean) {
  const std::string src =
      "void PeriodicTask::Stop() {\n"
      "  const bool cancelled = loop_->Cancel(event_);\n"
      "  SIM_ASSERT(cancelled) << \"lost tick\";\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/sim/periodic.cc", src).empty());
}

TEST(SimlintTest, FlagsMetricNameViolations) {
  const auto findings = LintSource("src/core/violation_metric_name.cc",
                                   ReadFixture("violation_metric_name.cc"));
  EXPECT_EQ(findings.size(), 4u) << (findings.empty() ? "" : FormatFinding(findings[0]));
  EXPECT_TRUE(AllRule(findings, "metric-name-audit"));
  EXPECT_TRUE(HasFinding(findings, "metric-name-audit", 12));  // missing ofc.
  EXPECT_TRUE(HasFinding(findings, "metric-name-audit", 13));  // not lower_snake
  EXPECT_TRUE(HasFinding(findings, "metric-name-audit", 14));  // two segments
  EXPECT_TRUE(HasFinding(findings, "metric-name-audit", 15));  // non-literal
}

TEST(SimlintTest, AnalyzeSourceExportsIncludesMetricsAndMembers) {
  const std::string src =
      "#include \"src/obs/metrics.h\"\n"
      "#include <unordered_map>\n"
      "struct Agent {\n"
      "  explicit Agent(Registry* r) : hits_(r->GetCounter(\"ofc.agent.hits\")) {}\n"
      "  int* hits_;\n"
      "  std::unordered_map<int, int> table_;\n"
      "};\n";
  const FileAnalysis fa = AnalyzeSource("src/core/agent.h", src);
  ASSERT_EQ(fa.includes.size(), 1u);
  EXPECT_EQ(fa.includes[0].path, "src/obs/metrics.h");
  ASSERT_EQ(fa.metrics.size(), 1u);
  EXPECT_EQ(fa.metrics[0].name, "ofc.agent.hits");
  EXPECT_EQ(fa.metrics[0].kind, "counter");
  ASSERT_EQ(fa.unordered_members.size(), 1u);
  EXPECT_EQ(fa.unordered_members[0], "table_");
}

TEST(SimlintTest, FlagsFloatSimTime) {
  const auto findings = LintFixture("violation_float_time.cc");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_TRUE(AllRule(findings, "float-sim-time"));
  EXPECT_TRUE(HasFinding(findings, "float-sim-time", 3));
  EXPECT_TRUE(HasFinding(findings, "float-sim-time", 4));
  EXPECT_TRUE(HasFinding(findings, "float-sim-time", 5));
}

TEST(SimlintTest, FlagsNakedNewAndDelete) {
  const auto findings = LintFixture("violation_naked_new.cc");
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_TRUE(AllRule(findings, "naked-new"));
  EXPECT_TRUE(HasFinding(findings, "naked-new", 7));
  EXPECT_TRUE(HasFinding(findings, "naked-new", 8));
  EXPECT_TRUE(HasFinding(findings, "naked-new", 10));
  EXPECT_TRUE(HasFinding(findings, "naked-new", 11));
}

TEST(SimlintTest, UnjustifiedSuppressionIsAFindingAndNotHonored) {
  const auto findings = LintFixture("violation_unjustified_suppression.cc");
  // The bare allow() is flagged, and the wall-clock finding still surfaces.
  EXPECT_TRUE(HasFinding(findings, "suppression", 6));
  EXPECT_TRUE(HasFinding(findings, "wall-clock", 6));
}

TEST(SimlintTest, JustifiedSuppressionsSilenceFindings) {
  const auto findings = LintFixture("suppressed_ok.cc");
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings.front());
}

TEST(SimlintTest, CleanFixtureHasNoFindings) {
  const auto findings = LintFixture("clean.cc");
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings.front());
}

TEST(SimlintTest, SuppressionOnlyCoversNamedRules) {
  const std::string src =
      "#include <chrono>\n"
      "// simlint: allow(ambient-rng) -- wrong rule named\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto findings = LintSource("x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SimlintTest, WildcardSuppressionCoversAllRules) {
  const std::string src =
      "#include <chrono>\n"
      "// simlint: allow(*) -- fixture-style blanket waiver\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(LintSource("x.cc", src).empty());
}

TEST(SimlintTest, BannedTokensInCommentsAndStringsIgnored) {
  const std::string src =
      "// rand() and std::chrono::steady_clock here\n"
      "/* std::random_device */\n"
      "const char* s = \"time(nullptr) new int[3]\";\n";
  EXPECT_TRUE(LintSource("x.cc", src).empty());
}

TEST(SimlintTest, FormatFindingIsStable) {
  Finding f;
  f.file = "src/foo.cc";
  f.line = 12;
  f.rule = "wall-clock";
  f.message = "msg";
  EXPECT_EQ(FormatFinding(f), "src/foo.cc:12: [wall-clock] msg");
}

}  // namespace
}  // namespace ofc::simlint
