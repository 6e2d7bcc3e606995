// simlint v2 project pass: whole-tree analyses that no single translation
// unit can see, plus the machine-readable output and baseline machinery.
//
// Project rules:
//
//   layer-cycle        The architecture DAG over src/ subsystems:
//                        common → {sim, obs, ml} → workloads → {ramcloud,
//                        store} → faas → core → {fault, faasload}
//                      (each subsystem may include only the subsystems listed
//                      for it in kLayerDag). Upward includes, includes of
//                      unknown subsystems, and file-level include cycles are
//                      errors.
//   metric-name-audit  (cross-file half) every `ofc.*` metric family name
//                      registered via GetCounter/GetGauge/GetSeries in src/:
//                      a name registered with conflicting kinds is an error;
//                      a name missing from the DESIGN.md metrics table is an
//                      error; a table row whose name is no longer registered
//                      (or whose kind disagrees) is an error anchored at
//                      DESIGN.md. Every literal `ofc.*` name read through
//                      CounterValue/CounterTotal/GaugeValue/FindSeries in any
//                      scanned file must be registered in src/ with the kind
//                      the read expects (a scratch `ofc.test.*` family may
//                      instead be registered in the reading file); non-literal
//                      reads are not audited.
//   unordered-iter     (cross-file half) an iteration whose loop body reaches
//                      event-visible state, over a name declared as a
//                      std::unordered_* member in this file or a directly
//                      included header.
//   unreferenced-api   a function declared in a src/ header (free or member;
//                      not a constructor, destructor or operator) whose name
//                      no identifier token in the scanned tree uses outside
//                      function declarations and definitions. Tests, macro
//                      bodies and perfbench/ count; comments and strings do
//                      not. Runs only on a whole-tree scan (kTreeDirs).
//
// Stable finding ids: `<rule>-<fnv64 hex>` hashed over (rule, file,
// whitespace-normalized text of the flagged line, ordinal among identical
// tuples). Ids survive unrelated edits and line shifts; editing the flagged
// line itself changes the id, resurfacing a baselined finding.
//
// Baseline: a checked-in JSON file mapping finding ids to justifications. A
// finding covered by a justified entry is reported as `baselined` and does
// not fail the run; an entry without a justification, or one matching no
// current finding, is itself an error (`baseline-unjustified` /
// `baseline-stale`), so the baseline can only shrink or be re-justified.
#ifndef OFC_TOOLS_SIMLINT_PROJECT_H_
#define OFC_TOOLS_SIMLINT_PROJECT_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "tools/simlint/lint.h"

namespace ofc::simlint {

// The top-level directories a whole-tree scan (simlint's default) lints.
// unreferenced-api runs only when the scanned files cover all of them.
inline constexpr std::array<std::string_view, 5> kTreeDirs = {"src", "bench", "tests",
                                                              "tools", "examples"};
// Read for unreferenced-api's references and never linted: the benchmark
// calls the simulator's API, and only a benchmark-only change may edit it.
inline constexpr std::string_view kReferenceOnlyDir = "perfbench";

struct SourceFile {
  std::string path;     // Root-relative, '/'-separated (used in findings).
  std::string content;
};

struct ProjectOptions {
  LintOptions lint;
  // Contents of DESIGN.md; empty disables the metrics-table half of
  // metric-name-audit (grammar and kind-conflict checks still run).
  std::string design_md;
  std::string design_md_label = "DESIGN.md";
  // Cross-file passes only make sense when src/ was scanned.
  bool project_rules = true;
};

struct MetricInventoryRow {
  std::string name;
  std::string kind;
  std::string first_file;  // Lexicographically first registering file.
};

struct ProjectResult {
  std::vector<Finding> findings;  // Sorted by (file, line, rule, id); ids set.
  std::size_t files_scanned = 0;
  std::vector<MetricInventoryRow> metrics;  // Sorted by name.
};

ProjectResult AnalyzeProject(const std::vector<SourceFile>& files,
                             const ProjectOptions& options);

// ---- Baseline ----------------------------------------------------------------

struct BaselineEntry {
  std::string id;
  std::string rule;
  std::string file;
  int line = 0;  // Informational; ids, not lines, key the match.
  std::string justification;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

// Parses the baseline JSON; returns false and sets *error on malformed input.
bool ParseBaseline(std::string_view json, Baseline* baseline, std::string* error);

// Serializes deterministically (entries sorted by id).
std::string SerializeBaseline(const Baseline& baseline);

// Builds a baseline covering every finding in `result` (justifications empty —
// the author must fill them in, or the next run fails `baseline-unjustified`).
Baseline BaselineFromFindings(const ProjectResult& result);

// Marks findings covered by justified entries as baselined and appends
// `baseline-unjustified` / `baseline-stale` findings anchored at
// `baseline_label`. Re-sorts.
void ApplyBaseline(const Baseline& baseline, const std::string& baseline_label,
                   ProjectResult* result);

// ---- Output ------------------------------------------------------------------

// Machine-readable report; byte-deterministic for a given result.
std::string FindingsJson(const ProjectResult& result);

// `::error file=...,line=...::...` GitHub annotations for non-baselined
// findings.
std::string GithubAnnotations(const ProjectResult& result);

// Markdown rows for the DESIGN.md metric inventory table.
std::string MetricsMarkdown(const ProjectResult& result);

// Stable 64-bit FNV-1a, exposed for tests.
std::uint64_t Fnv64(std::string_view data);

}  // namespace ofc::simlint

#endif  // OFC_TOOLS_SIMLINT_PROJECT_H_
