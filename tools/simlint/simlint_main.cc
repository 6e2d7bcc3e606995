// simlint CLI: project-aware static analysis for the repo's C++ sources.
//
// Usage:
//   simlint --root <repo-root> [subdir...] [flags]
//
// Default subdirs: src bench tests tools examples, plus perfbench, which is
// read only for unreferenced-api's references and never linted. Fixture
// files under tools/simlint/testdata/ are always skipped (they exist to
// violate the rules).
//
// Flags:
//   --json[=PATH]        Machine-readable findings (stdout when no PATH);
//                        byte-deterministic across runs.
//   --github             GitHub `::error file=...` annotations for new
//                        findings (stdout).
//   --baseline=PATH      Baseline file of accepted findings. Defaults to
//                        <root>/tools/simlint/baseline.json when it exists.
//   --write-baseline     Rewrite the baseline to cover all current findings
//                        (justifications left empty for the author to fill).
//   --list-metrics       Print the metric inventory as markdown table rows
//                        (paste into DESIGN.md §7) and exit.
//   --stats              Per-phase timing + counts on stderr.
//   --budget-ms=N        Exit nonzero when the whole run exceeds N ms (the
//                        lint must never become the bottleneck).
//
// Exit status: 0 clean (baselined findings allowed), 1 new findings or
// baseline errors or budget exceeded, 2 usage/IO error.
#include <algorithm>
#include <chrono>  // simlint: allow(wall-clock) -- lint driver self-timing for --stats/--budget-ms, not simulation state
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/simlint/lint.h"
#include "tools/simlint/project.h"

namespace ofc::simlint {
namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool IsFixture(const std::string& relative) {
  return relative.find("simlint/testdata") != std::string::npos;
}

// '/'-separated root-relative path (findings must not depend on the host OS).
std::string RelativePath(const fs::path& path, const std::string& root) {
  std::string rel = fs::relative(path, root).generic_string();
  return rel;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

struct Args {
  std::string root = ".";
  std::vector<std::string> subdirs;
  bool json = false;
  std::string json_path;  // Empty = stdout.
  bool github = false;
  std::string baseline_path;  // Empty = default when present.
  bool write_baseline = false;
  bool list_metrics = false;
  bool stats = false;
  long budget_ms = 0;
};

int Run(const Args& args) {
  using Clock = std::chrono::steady_clock;  // simlint: allow(wall-clock) -- driver timing
  const auto t0 = Clock::now();

  std::vector<std::string> subdirs = args.subdirs;
  if (subdirs.empty()) {
    subdirs.assign(kTreeDirs.begin(), kTreeDirs.end());
    if (fs::exists(fs::path(args.root) / kReferenceOnlyDir)) {
      subdirs.emplace_back(kReferenceOnlyDir);
    }
  }

  // Collect-then-sort: directory_iterator order is filesystem-dependent and
  // the report itself must be byte-deterministic.
  std::vector<SourceFile> files;
  bool scanned_src = false;
  for (const std::string& subdir : subdirs) {
    const fs::path base = fs::path(args.root) / subdir;
    if (!fs::exists(base)) {
      std::fprintf(stderr, "simlint: no such directory: %s\n", base.string().c_str());
      return 2;
    }
    scanned_src = scanned_src || subdir == "src";
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      const std::string relative = RelativePath(path, args.root);
      if (IsFixture(relative)) {
        continue;
      }
      SourceFile file;
      file.path = relative;
      if (!ReadFile(path, &file.content)) {
        std::fprintf(stderr, "simlint: cannot read %s\n", path.string().c_str());
        return 2;
      }
      files.push_back(std::move(file));
    }
  }

  ProjectOptions options;
  options.project_rules = scanned_src;
  const fs::path design_path = fs::path(args.root) / "DESIGN.md";
  if (scanned_src && fs::exists(design_path)) {
    if (!ReadFile(design_path, &options.design_md)) {
      std::fprintf(stderr, "simlint: cannot read %s\n", design_path.string().c_str());
      return 2;
    }
  }

  const auto t_read = Clock::now();
  ProjectResult result = AnalyzeProject(files, options);
  const auto t_analyze = Clock::now();

  if (args.list_metrics) {
    std::fputs("| metric | kind | registered in |\n|---|---|---|\n", stdout);
    std::fputs(MetricsMarkdown(result).c_str(), stdout);
    return 0;
  }

  // ---- Baseline --------------------------------------------------------------
  fs::path baseline_path;
  if (!args.baseline_path.empty()) {
    baseline_path = args.baseline_path;
  } else {
    const fs::path candidate = fs::path(args.root) / "tools" / "simlint" / "baseline.json";
    if (fs::exists(candidate)) {
      baseline_path = candidate;
    }
  }
  if (args.write_baseline) {
    const fs::path out_path = baseline_path.empty()
                                  ? fs::path(args.root) / "tools" / "simlint" / "baseline.json"
                                  : baseline_path;
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "simlint: cannot write %s\n", out_path.string().c_str());
      return 2;
    }
    out << SerializeBaseline(BaselineFromFindings(result));
    std::fprintf(stderr,
                 "simlint: wrote %zu baseline entr%s to %s; fill in every "
                 "justification or the next run fails baseline-unjustified\n",
                 result.findings.size(), result.findings.size() == 1 ? "y" : "ies",
                 out_path.string().c_str());
    return 0;
  }
  if (!baseline_path.empty()) {
    std::string content;
    if (!ReadFile(baseline_path, &content)) {
      std::fprintf(stderr, "simlint: cannot read baseline %s\n",
                   baseline_path.string().c_str());
      return 2;
    }
    Baseline baseline;
    std::string error;
    if (!ParseBaseline(content, &baseline, &error)) {
      std::fprintf(stderr, "simlint: malformed baseline %s: %s\n",
                   baseline_path.string().c_str(), error.c_str());
      return 2;
    }
    ApplyBaseline(baseline, RelativePath(baseline_path, args.root), &result);
  }

  // ---- Output ----------------------------------------------------------------
  std::size_t new_findings = 0;
  for (const Finding& finding : result.findings) {
    if (!finding.baselined) {
      ++new_findings;
    }
    std::fprintf(stderr, "%s\n", FormatFinding(finding).c_str());
  }
  std::fprintf(stderr, "simlint: %zu files scanned, %zu finding(s), %zu baselined\n",
               result.files_scanned, result.findings.size(),
               result.findings.size() - new_findings);

  if (args.json) {
    const std::string json = FindingsJson(result);
    if (args.json_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(args.json_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "simlint: cannot write %s\n", args.json_path.c_str());
        return 2;
      }
      out << json;
    }
  }
  if (args.github) {
    std::fputs(GithubAnnotations(result).c_str(), stdout);
  }

  const auto t_end = Clock::now();
  const auto ms = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
  };
  if (args.stats) {
    std::fprintf(stderr,
                 "simlint --stats: %zu files | read %lld ms | analyze %lld ms | "
                 "report %lld ms | total %lld ms\n",
                 result.files_scanned, static_cast<long long>(ms(t0, t_read)),
                 static_cast<long long>(ms(t_read, t_analyze)),
                 static_cast<long long>(ms(t_analyze, t_end)),
                 static_cast<long long>(ms(t0, t_end)));
  }
  if (args.budget_ms > 0 && ms(t0, t_end) > args.budget_ms) {
    std::fprintf(stderr, "simlint: run took %lld ms, over the %ld ms budget\n",
                 static_cast<long long>(ms(t0, t_end)), args.budget_ms);
    return 1;
  }
  return new_findings == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ofc::simlint

int main(int argc, char** argv) {
  ofc::simlint::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    if (arg == "--root" && i + 1 < argc) {
      args.root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      args.root = value_of("--root=");
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = value_of("--json=");
    } else if (arg == "--github") {
      args.github = true;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      args.baseline_path = value_of("--baseline=");
    } else if (arg == "--write-baseline") {
      args.write_baseline = true;
    } else if (arg == "--list-metrics") {
      args.list_metrics = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      args.budget_ms = std::atol(value_of("--budget-ms=").c_str());
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: simlint --root <dir> [subdir...] [--json[=PATH]] "
                   "[--github] [--baseline=PATH] [--write-baseline] "
                   "[--list-metrics] [--stats] [--budget-ms=N]\n");
      return 2;
    } else {
      args.subdirs.push_back(arg);
    }
  }
  return ofc::simlint::Run(args);
}
