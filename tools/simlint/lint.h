// simlint v2: project-aware static analysis for the OFC simulator.
//
// The per-file layer in this header runs on a real token stream (see
// lexer.h) with a lightweight scope/symbol tracker, replacing the v1
// strip-and-regex pass. File-local rules:
//
//   wall-clock          std::chrono::{system,steady,high_resolution}_clock —
//                       simulated time is the only clock.
//   ambient-rng         rand()/srand()/std::random_device/mt19937/
//                       time(nullptr) outside src/common/rng.* — all
//                       randomness flows from the seeded Rng.
//   float-sim-time      float/double variables named like simulated time
//                       (sim_time/when/deadline) — SimTime is integral.
//   naked-new           naked new/delete — ownership goes through containers
//                       and smart pointers.
//   unordered-iter      flow-aware: iterating a std::unordered_* container
//                       only fires when the loop body (or enclosing
//                       statement, for begin()/end()) reaches event-visible
//                       state — scheduling, metrics, RNG, trace/flight.
//                       Copying into a vector that is later sorted is clean.
//   dangling-capture    a lambda with a by-reference capture ([&] / [&x] /
//                       [&x = y]) passed to EventLoop::ScheduleAt/
//                       ScheduleAfter or a PeriodicTask callback in src/ —
//                       the callback outlives the enclosing frame, so every
//                       capture must be by value (including `this`, whose
//                       lifetime the owner must guarantee, cf. PeriodicTask's
//                       destructor-cancelled event).
//   dcheck-side-effect  ++/--/assignment/known-mutating calls (.erase/.pop_*/
//                       .insert/.clear/...) inside SIM_DCHECK/SIM_ASSERT
//                       whose target is declared *outside* the macro argument
//                       — the expression compiles out in Release, taking the
//                       side effect with it. Mutations of locals declared
//                       inside the argument (e.g. an IIFE's accumulators) are
//                       invisible outside and allowed.
//   metric-name-audit   (file-local half) metric family names passed to
//                       GetCounter/GetGauge/GetSeries in src/ must be string
//                       literals matching `ofc.<component>.<name>` with
//                       lower_snake segments. The cross-file half (kind
//                       conflicts, DESIGN.md table, reads of unregistered
//                       names) lives in project.h.
//   std-function-completion
//                       std::function in a header under src/store/ or
//                       src/ramcloud/, or in src/core/proxy.h or
//                       src/core/cache_agent.h — the data path's completions
//                       are sim::InlineFunction, which keeps up to 56 bytes
//                       of captures inline where std::function allocates.
//   suppression         a `simlint: allow(...)` comment without a
//                       justification.
//
// Suppressions: `// simlint: allow(rule-a,rule-b) -- why this is sound` on
// the offending line, or alone on the line directly above it. The
// justification after `--` is mandatory. Project-level findings (layer-cycle,
// metric kind conflicts, cross-file unordered-iter) honor the same syntax at
// the line they anchor to.
#ifndef OFC_TOOLS_SIMLINT_LINT_H_
#define OFC_TOOLS_SIMLINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ofc::simlint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based.
  std::string rule;
  std::string message;
  // Stable id (rule + file + normalized anchor text + ordinal); assigned by
  // the project layer, empty for bare LintSource() results.
  std::string id;
  // True when a baseline entry with a justification covers this finding; a
  // baselined finding is reported but does not fail the run.
  bool baselined = false;
};

struct LintOptions {
  // Files allowed to use ambient randomness primitives (the Rng implementation
  // itself). Matched as a path suffix.
  std::vector<std::string> rng_exempt_suffixes = {"src/common/rng.h", "src/common/rng.cc"};
};

// A quoted #include directive ("src/..." style paths).
struct IncludeDecl {
  std::string path;
  int line = 0;
};

// A metric family registration or read with a literal name.
struct MetricReg {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "series"
  int line = 0;
};

// An iteration over a name that *might* be an unordered container declared in
// an included header, whose loop body reaches an event-visible sink. The
// project pass matches these against unordered members exported by directly
// included files.
struct IterationSite {
  std::string target;
  int line = 0;
};

// A function a file declares at namespace or class scope (constructors,
// destructors and operators excluded): the unreferenced-api rule's subjects.
struct FunctionDecl {
  std::string name;
  int line = 0;
};

// Inline-suppression state for one file, exported so project-level rules can
// honor the same `simlint: allow(...)` syntax.
struct SuppressionMap {
  struct Entry {
    std::set<std::string> rules;  // "*" = all rules.
    bool justified = false;
  };
  std::map<int, Entry> by_line;
  std::set<int> lines_with_tokens;  // For the "alone on the line above" test.

  bool IsSuppressed(int line, const std::string& rule) const;
};

struct FileAnalysis {
  std::vector<Finding> findings;
  std::vector<IncludeDecl> includes;
  std::vector<MetricReg> metrics;
  // Literal `ofc.*` names read through CounterValue/CounterTotal (counter),
  // GaugeValue (gauge) or FindSeries (series).
  std::vector<MetricReg> metric_reads;
  // Unordered-container member/namespace-scope names declared in this file
  // (exported for the cross-file unordered-iter pass).
  std::vector<std::string> unordered_members;
  std::vector<IterationSite> iteration_sites;
  // unreferenced-api (per-file half): the functions this file declares, and
  // each identifier's uses here outside the names of declared or defined
  // functions. Comments and string literals are not tokens, so never count;
  // macro bodies do.
  std::vector<FunctionDecl> function_decls;
  std::map<std::string, int> references;
  SuppressionMap suppressions;
};

// Full per-file analysis. `file_label` is the root-relative path, used
// verbatim in findings and for path-scoped rules (src/, src/obs/, rng
// exemptions).
FileAnalysis AnalyzeSource(const std::string& file_label, std::string_view content,
                           const LintOptions& options = {});

// v1-compatible entry point: findings only.
std::vector<Finding> LintSource(const std::string& file_label, std::string_view content,
                                const LintOptions& options = {});

// Renders `file:line: [rule] message`.
std::string FormatFinding(const Finding& finding);

}  // namespace ofc::simlint

#endif  // OFC_TOOLS_SIMLINT_LINT_H_
