#include "tools/simlint/project.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ofc::simlint {
namespace {

std::vector<Finding> FindingsFor(const ProjectResult& result, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) {
      out.push_back(f);
    }
  }
  return out;
}

ProjectOptions NoDesign() {
  ProjectOptions options;
  options.design_md.clear();
  return options;
}

// ---- layer-cycle -------------------------------------------------------------

TEST(ProjectTest, UpwardIncludeViolatesLayerDag) {
  const std::vector<SourceFile> files = {
      {"src/store/swift.h", "#include \"src/core/proxy.h\"\n"},
      {"src/core/proxy.h", "int x;\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "layer-cycle");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/store/swift.h");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("src/store may not include src/core"),
            std::string::npos);
}

TEST(ProjectTest, DownwardIncludesConformToLayerDag) {
  const std::vector<SourceFile> files = {
      {"src/core/proxy.h",
       "#include \"src/faas/platform.h\"\n#include \"src/sim/event_loop.h\"\n"},
      {"src/faas/platform.h", "#include \"src/store/swift.h\"\n"},
      {"src/store/swift.h", "#include \"src/common/units.h\"\n"},
      {"src/sim/event_loop.h", "#include \"src/common/units.h\"\n"},
      {"src/common/units.h", "int u;\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  EXPECT_TRUE(result.findings.empty()) << result.findings.front().message;
}

TEST(ProjectTest, UnknownSubsystemIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/experimental/x.h", "#include \"src/common/units.h\"\n"},
      {"src/common/units.h", "int u;\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "layer-cycle");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("not in the architecture DAG"), std::string::npos);
}

TEST(ProjectTest, IncludeCycleIsDetectedOnce) {
  const std::vector<SourceFile> files = {
      {"src/sim/a.h", "#include \"src/sim/b.h\"\n"},
      {"src/sim/b.h", "#include \"src/sim/c.h\"\n"},
      {"src/sim/c.h", "#include \"src/sim/a.h\"\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "layer-cycle");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/sim/a.h -> src/sim/b.h -> src/sim/c.h"),
            std::string::npos);
}

TEST(ProjectTest, SuppressedUpwardIncludeIsHonored) {
  const std::vector<SourceFile> files = {
      {"src/store/swift.h",
       "// simlint: allow(layer-cycle) -- transitional shim, tracked in DESIGN.md\n"
       "#include \"src/core/proxy.h\"\n"},
      {"src/core/proxy.h", "int x;\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  EXPECT_TRUE(FindingsFor(result, "layer-cycle").empty());
}

// ---- metric-name-audit (cross-file) ------------------------------------------

TEST(ProjectTest, ConflictingMetricKindsAreFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/a.cc", "void A(R* r) { r->GetCounter(\"ofc.core.widgets\"); }\n"},
      {"src/core/b.cc", "void B(R* r) { r->GetGauge(\"ofc.core.widgets\"); }\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("conflicting kinds"), std::string::npos);
  EXPECT_EQ(findings[0].file, "src/core/a.cc");  // First registering file.
}

TEST(ProjectTest, MetricMissingFromDesignTableIsFlagged) {
  ProjectOptions options;
  options.design_md = "| `ofc.core.documented` | counter | src/core/a.cc |\n";
  const std::vector<SourceFile> files = {
      {"src/core/a.cc",
       "void A(R* r) {\n"
       "  r->GetCounter(\"ofc.core.documented\");\n"
       "  r->GetCounter(\"ofc.core.undocumented\");\n"
       "}\n"},
  };
  const auto result = AnalyzeProject(files, options);
  const auto findings = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("ofc.core.undocumented"), std::string::npos);
}

TEST(ProjectTest, StaleDesignRowAndKindMismatchAnchorAtDesignMd) {
  ProjectOptions options;
  options.design_md =
      "| `ofc.core.gone` | counter | src/core/a.cc |\n"
      "| `ofc.core.kept` | gauge | src/core/a.cc |\n";
  const std::vector<SourceFile> files = {
      {"src/core/a.cc", "void A(R* r) { r->GetSeries(\"ofc.core.kept\"); }\n"},
  };
  const auto result = AnalyzeProject(files, options);
  const auto findings = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "DESIGN.md");
  EXPECT_EQ(findings[1].file, "DESIGN.md");
  // Stale row anchored at line 1, kind mismatch at line 2.
  EXPECT_NE(findings[0].message.find("nothing in src/ registers it"), std::string::npos);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[1].message.find("as a gauge but the code registers a series"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 2);
}

TEST(ProjectTest, MetricInventoryIsSortedAndMarkdownRendered) {
  const std::vector<SourceFile> files = {
      {"src/core/z.cc", "void Z(R* r) { r->GetGauge(\"ofc.core.zeta\"); }\n"},
      {"src/core/a.cc", "void A(R* r) { r->GetCounter(\"ofc.core.alpha\"); }\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  ASSERT_EQ(result.metrics.size(), 2u);
  EXPECT_EQ(result.metrics[0].name, "ofc.core.alpha");
  EXPECT_EQ(result.metrics[1].name, "ofc.core.zeta");
  EXPECT_EQ(MetricsMarkdown(result),
            "| `ofc.core.alpha` | counter | src/core/a.cc |\n"
            "| `ofc.core.zeta` | gauge | src/core/z.cc |\n");
}

TEST(ProjectTest, ReadOfUnregisteredMetricIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/a.cc", "void A(R* r) { r->GetCounter(\"ofc.core.hits\"); }\n"},
      {"tests/a_test.cc",
       "void T(R& r) {\n"
       "  r.CounterValue(\"ofc.core.hits\");\n"
       "  r.CounterTotal(\"ofc.core.hitz\");\n"
       "  r.CounterValue(name);\n"
       "}\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tests/a_test.cc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'ofc.core.hitz' is read but nothing in src/ registers it"),
            std::string::npos);
}

TEST(ProjectTest, ReadOfTheWrongKindIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/cache_agent.cc",
       "void A(R* r) { r->GetGauge(\"ofc.cache_agent.scale_up_time_us\"); }\n"},
      {"bench/b.cc",
       "void B(const R& m) {\n"
       "  m.GaugeValue(\"ofc.cache_agent.scale_up_time_us\");\n"
       "  m.CounterValue(\"ofc.cache_agent.scale_up_time_us\");\n"
       "}\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "bench/b.cc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("read as a counter but registered as a gauge"),
            std::string::npos);
}

TEST(ProjectTest, ScratchTestFamilyMayBeRegisteredInTheReadingFile) {
  const std::vector<SourceFile> files = {
      {"tests/registry_test.cc",
       "void T(R& r) {\n"
       "  r.GetCounter(\"ofc.test.events\");\n"
       "  r.CounterValue(\"ofc.test.events\");\n"
       "  r.CounterValue(\"ofc.test.events\", \"absent-label\");\n"
       "}\n"},
      {"tests/other_test.cc", "void U(R& r) { r.CounterValue(\"ofc.test.events\"); }\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "metric-name-audit");
  // Only the file that reads the family without registering it is flagged.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tests/other_test.cc");
}

// ---- unordered-iter (cross-file) ---------------------------------------------

TEST(ProjectTest, IterationOverMemberDeclaredInIncludedHeaderIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/agent.h",
       "#include <unordered_map>\n"
       "struct Agent {\n"
       "  std::unordered_map<int, int> table_;\n"
       "  void Sweep();\n"
       "};\n"},
      {"src/core/agent.cc",
       "#include \"src/core/agent.h\"\n"
       "void Agent::Sweep() {\n"
       "  for (auto& [k, v] : table_) {\n"
       "    loop_->ScheduleAt(v, k);\n"
       "  }\n"
       "}\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  const auto findings = FindingsFor(result, "unordered-iter");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/agent.cc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(ProjectTest, SinklessIterationOverIncludedMemberIsClean) {
  const std::vector<SourceFile> files = {
      {"src/core/agent.h",
       "#include <unordered_map>\n"
       "struct Agent {\n"
       "  std::unordered_map<int, int> table_;\n"
       "  int Sum();\n"
       "};\n"},
      {"src/core/agent.cc",
       "#include \"src/core/agent.h\"\n"
       "int Agent::Sum() {\n"
       "  int total = 0;\n"
       "  for (auto& [k, v] : table_) {\n"
       "    total += v;\n"
       "  }\n"
       "  return total;\n"
       "}\n"},
  };
  const auto result = AnalyzeProject(files, NoDesign());
  EXPECT_TRUE(FindingsFor(result, "unordered-iter").empty());
}

// ---- unreferenced-api --------------------------------------------------------

// The rule runs only when the scan covers every directory a whole-tree scan
// lints; these empty files complete a test's tree.
std::vector<SourceFile> WholeTree(std::vector<SourceFile> files) {
  for (std::string_view dir : kTreeDirs) {
    files.push_back({std::string(dir) + "/placeholder.cc", ""});
  }
  return files;
}

const SourceFile kApiHeader = {"src/core/api.h",
                               "namespace ofc {\n"
                               "class Api {\n"
                               " public:\n"
                               "  Api();\n"
                               "  ~Api();\n"
                               "  bool operator==(const Api& other) const;\n"
                               "  int Called() const;\n"
                               "  int Uncalled() const;\n"
                               "  // simlint: allow(unreferenced-api) -- a library template calls it\n"
                               "  int Hook() const;\n"
                               "};\n"
                               "}  // namespace ofc\n"};
const SourceFile kApiSource = {"src/core/api.cc",
                               "#include \"src/core/api.h\"\n"
                               "namespace ofc {\n"
                               "Api::Api() {}\n"
                               "Api::~Api() {}\n"
                               "bool Api::operator==(const Api&) const { return true; }\n"
                               "int Api::Called() const { return 1; }\n"
                               "int Api::Uncalled() const { return 2; }\n"
                               "int Api::Hook() const { return 3; }\n"
                               "}  // namespace ofc\n"};

TEST(ProjectTest, UncalledFunctionIsOneFindingAndACalledOneIsClean) {
  const std::vector<SourceFile> files = WholeTree(
      {kApiHeader, kApiSource,
       {"src/core/user.cc", "int Use(const ofc::Api& api) { return api.Called(); }\n"}});
  const auto findings = FindingsFor(AnalyzeProject(files, NoDesign()), "unreferenced-api");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/api.h");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("'Uncalled'"), std::string::npos);
}

TEST(ProjectTest, NameOnlyInACommentOrStringIsAFinding) {
  const std::vector<SourceFile> files = WholeTree(
      {kApiHeader, kApiSource,
       {"src/core/user.cc",
        "// Uncalled() is for later.\n"
        "const char* kName = \"Uncalled\";\n"
        "int Use(const ofc::Api& api) { return api.Called(); }\n"}});
  const auto findings = FindingsFor(AnalyzeProject(files, NoDesign()), "unreferenced-api");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'Uncalled'"), std::string::npos);
}

TEST(ProjectTest, CallsFromTestsPerfbenchAndMacroBodiesCount) {
  // `2 * Called(` would read as a declaration outside the directive.
  const SourceFile macro = {"src/core/macros.h", "#define OFC_TWICE(x) \\\n  2 * Called(x)\n"};
  const SourceFile test = {"tests/api_test.cc",
                           "int T(const ofc::Api& api) { return api.Uncalled(); }\n"};
  // Never linted: its wall-clock read is not reported.
  const SourceFile bench = {"perfbench/main.cc",
                            "auto t = std::chrono::steady_clock::now();\n"
                            "int B(const ofc::Api& api) { return api.Uncalled(); }\n"};
  const auto unreferenced = [](std::vector<SourceFile> files) {
    return FindingsFor(AnalyzeProject(WholeTree(std::move(files)), NoDesign()),
                       "unreferenced-api");
  };
  const auto all = AnalyzeProject(WholeTree({kApiHeader, kApiSource, macro, test, bench}),
                                  NoDesign());
  EXPECT_TRUE(all.findings.empty()) << all.findings.front().message;
  EXPECT_TRUE(unreferenced({kApiHeader, kApiSource, macro, test}).empty());
  EXPECT_TRUE(unreferenced({kApiHeader, kApiSource, macro, bench}).empty());
  EXPECT_EQ(unreferenced({kApiHeader, kApiSource, test}).size(), 1u);
}

TEST(ProjectTest, PartialScanDoesNotRunUnreferencedApi) {
  const std::vector<SourceFile> files = {kApiHeader, kApiSource};
  EXPECT_TRUE(FindingsFor(AnalyzeProject(files, NoDesign()), "unreferenced-api").empty());
  EXPECT_EQ(FindingsFor(AnalyzeProject(WholeTree(files), NoDesign()), "unreferenced-api").size(),
            2u);
}

// ---- Stable ids --------------------------------------------------------------

TEST(ProjectTest, FindingIdsAreStableAcrossUnrelatedEdits) {
  const SourceFile before = {"src/core/a.cc",
                             "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  const SourceFile after = {"src/core/a.cc",
                            "// A new comment shifts every line.\n"
                            "int unrelated;\n"
                            "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  const auto r1 = AnalyzeProject({before}, NoDesign());
  const auto r2 = AnalyzeProject({after}, NoDesign());
  ASSERT_EQ(r1.findings.size(), 1u);
  ASSERT_EQ(r2.findings.size(), 1u);
  EXPECT_EQ(r1.findings[0].rule, "metric-name-audit");
  EXPECT_EQ(r1.findings[0].id, r2.findings[0].id);  // Line shift: id survives.
  EXPECT_NE(r1.findings[0].line, r2.findings[0].line);
}

TEST(ProjectTest, EditingTheFlaggedLineChangesTheId) {
  const SourceFile before = {"src/core/a.cc",
                             "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  const SourceFile after = {"src/core/a.cc",
                            "void A(R* r) { r->GetCounter(\"bad renamed\"); }\n"};
  const auto r1 = AnalyzeProject({before}, NoDesign());
  const auto r2 = AnalyzeProject({after}, NoDesign());
  ASSERT_EQ(r1.findings.size(), 1u);
  ASSERT_EQ(r2.findings.size(), 1u);
  EXPECT_NE(r1.findings[0].id, r2.findings[0].id);
}

TEST(ProjectTest, IdenticalAnchorLinesGetDistinctOrdinalIds) {
  const SourceFile file = {"src/core/a.cc",
                           "void A(R* r) { r->GetCounter(\"bad name\"); }\n"
                           "void B(R* r) { r->GetCounter(\"bad name\"); }\n"};
  const auto result = AnalyzeProject({file}, NoDesign());
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_NE(result.findings[0].id, result.findings[1].id);
}

// ---- Baseline ----------------------------------------------------------------

TEST(ProjectTest, BaselineRoundTripAddSuppressResurface) {
  const SourceFile file = {"src/core/a.cc",
                           "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  // 1. The finding surfaces.
  auto result = AnalyzeProject({file}, NoDesign());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_FALSE(result.findings[0].baselined);

  // 2. Accept it into a baseline, add a justification, round-trip through the
  //    serialized form, and the finding reports as baselined.
  Baseline accepted = BaselineFromFindings(result);
  accepted.entries[0].justification = "legacy name, rename tracked separately";
  Baseline parsed;
  std::string error;
  ASSERT_TRUE(ParseBaseline(SerializeBaseline(accepted), &parsed, &error)) << error;
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].justification, accepted.entries[0].justification);

  result = AnalyzeProject({file}, NoDesign());
  ApplyBaseline(parsed, "tools/simlint/baseline.json", &result);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].baselined);

  // 3. Editing the flagged line changes the id: the finding resurfaces as new
  //    and the old entry reports stale.
  const SourceFile edited = {"src/core/a.cc",
                             "void A(R* r) { r->GetCounter(\"bad renamed\"); }\n"};
  auto result2 = AnalyzeProject({edited}, NoDesign());
  ApplyBaseline(parsed, "tools/simlint/baseline.json", &result2);
  ASSERT_EQ(result2.findings.size(), 2u);
  const auto fresh = FindingsFor(result2, "metric-name-audit");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_FALSE(fresh[0].baselined);
  const auto stale = FindingsFor(result2, "baseline-stale");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].file, "tools/simlint/baseline.json");
}

TEST(ProjectTest, UnjustifiedBaselineEntryIsAFindingAndNotHonored) {
  const SourceFile file = {"src/core/a.cc",
                           "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  auto result = AnalyzeProject({file}, NoDesign());
  const Baseline empty_just = BaselineFromFindings(result);
  ApplyBaseline(empty_just, "tools/simlint/baseline.json", &result);
  // The original finding is NOT baselined, and the entry itself is flagged.
  const auto original = FindingsFor(result, "metric-name-audit");
  ASSERT_EQ(original.size(), 1u);
  EXPECT_FALSE(original[0].baselined);
  EXPECT_EQ(FindingsFor(result, "baseline-unjustified").size(), 1u);
}

TEST(ProjectTest, MalformedBaselineIsRejectedWithError) {
  Baseline baseline;
  std::string error;
  EXPECT_FALSE(ParseBaseline("{\"entries\": [{]", &baseline, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(ParseBaseline("{\n  \"entries\": []\n}\n", &baseline, &error)) << error;
  EXPECT_TRUE(baseline.entries.empty());
}

// ---- Output ------------------------------------------------------------------

TEST(ProjectTest, FindingsJsonIsByteDeterministicAcrossInputOrder) {
  const std::vector<SourceFile> forward = {
      {"src/core/a.cc", "void A(R* r) { r->GetCounter(\"bad a\"); }\n"},
      {"src/core/b.cc", "void B(R* r) { r->GetCounter(\"bad b\"); }\n"},
  };
  std::vector<SourceFile> reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  const std::string j1 = FindingsJson(AnalyzeProject(forward, NoDesign()));
  const std::string j2 = FindingsJson(AnalyzeProject(reversed, NoDesign()));
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"schema\": \"simlint-v2\""), std::string::npos);
  EXPECT_NE(j1.find("\"counts\": {\"total\": 2, \"new\": 2, \"baselined\": 0}"),
            std::string::npos);
}

TEST(ProjectTest, GithubAnnotationsSkipBaselinedFindings) {
  const SourceFile file = {"src/core/a.cc",
                           "void A(R* r) { r->GetCounter(\"bad name\"); }\n"};
  auto result = AnalyzeProject({file}, NoDesign());
  Baseline accepted = BaselineFromFindings(result);
  accepted.entries[0].justification = "accepted";
  ApplyBaseline(accepted, "baseline.json", &result);
  EXPECT_EQ(GithubAnnotations(result), "");

  auto fresh = AnalyzeProject({file}, NoDesign());
  const std::string annotations = GithubAnnotations(fresh);
  EXPECT_NE(annotations.find("::error file=src/core/a.cc,line=1::[simlint:"),
            std::string::npos);
}

}  // namespace
}  // namespace ofc::simlint
