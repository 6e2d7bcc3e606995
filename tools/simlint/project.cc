#include "tools/simlint/project.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace ofc::simlint {
namespace {

// ---- Small utilities ---------------------------------------------------------

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

// Whitespace-collapsed, trimmed content of `line` (1-based) — the anchor text
// finding ids hash over.
std::string AnchorText(const std::vector<std::string>& lines, int line) {
  if (line < 1 || line > static_cast<int>(lines.size())) {
    return "";
  }
  const std::string& raw = lines[static_cast<std::size_t>(line - 1)];
  std::string out;
  bool pending_space = false;
  for (char c : raw) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending_space = !out.empty();
    } else {
      if (pending_space) {
        out += ' ';
        pending_space = false;
      }
      out += c;
    }
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    return a.id < b.id;
  });
}

// ---- Architecture DAG --------------------------------------------------------

// Subsystem → the subsystems it may include. Derived from (and enforcing) the
// architecture documented in DESIGN.md §8: common at the bottom; sim/obs/ml
// above it; workloads over ml; ramcloud/store over sim+obs; faas over
// store+workloads; core over everything below it; fault and faasload drive the
// assembled system from the top, and faasload's runner arms fault's injector.
const std::map<std::string, std::set<std::string>>& LayerDag() {
  static const std::map<std::string, std::set<std::string>> dag = {
      {"common", {}},
      {"sim", {"common"}},
      {"obs", {"common"}},
      {"ml", {"common"}},
      {"workloads", {"common", "ml"}},
      {"ramcloud", {"common", "sim", "obs"}},
      {"store", {"common", "sim", "obs"}},
      {"faas", {"common", "sim", "obs", "store", "workloads"}},
      {"core", {"common", "sim", "obs", "ml", "ramcloud", "store", "workloads", "faas"}},
      {"fault", {"common", "sim", "obs", "ramcloud", "store", "faas", "core"}},
      {"faasload",
       {"common", "sim", "obs", "ramcloud", "store", "workloads", "faas", "core", "fault"}},
  };
  return dag;
}

// "src/sim/event_loop.h" → "sim"; "" when not under src/.
std::string SubsystemOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) {
    return "";
  }
  const std::size_t start = 4;
  const std::size_t slash = path.find('/', start);
  if (slash == std::string::npos) {
    return "";  // A file directly under src/ belongs to no subsystem.
  }
  return path.substr(start, slash - start);
}

std::string JoinSorted(const std::set<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) {
      out += ", ";
    }
    out += item;
  }
  return out.empty() ? "nothing" : out;
}

// ---- DESIGN.md metrics table -------------------------------------------------

struct DesignMetricRow {
  std::string kind;
  int line = 0;  // 1-based line in DESIGN.md.
};

// Parses `| `ofc.x.y` | kind | ...` table rows anywhere in DESIGN.md.
std::map<std::string, DesignMetricRow> ParseDesignMetrics(std::string_view design_md) {
  std::map<std::string, DesignMetricRow> rows;
  const std::vector<std::string> lines = SplitLines(design_md);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::size_t p = line.find_first_not_of(" \t");
    if (p == std::string::npos || line[p] != '|') {
      continue;
    }
    // First cell: `name`.
    std::size_t tick1 = line.find('`', p);
    if (tick1 == std::string::npos) {
      continue;
    }
    std::size_t tick2 = line.find('`', tick1 + 1);
    if (tick2 == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(tick1 + 1, tick2 - tick1 - 1);
    if (name.rfind("ofc.", 0) != 0) {
      continue;
    }
    // Second cell: the kind word.
    std::size_t bar = line.find('|', tick2);
    if (bar == std::string::npos) {
      continue;
    }
    std::size_t k = line.find_first_not_of(" \t", bar + 1);
    std::string kind;
    while (k != std::string::npos && k < line.size() &&
           (std::isalpha(static_cast<unsigned char>(line[k])) != 0)) {
      kind += line[k++];
    }
    if (kind == "counter" || kind == "gauge" || kind == "series") {
      rows[name] = {kind, static_cast<int>(i) + 1};
    }
  }
  return rows;
}

}  // namespace

std::uint64_t Fnv64(std::string_view data) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ProjectResult AnalyzeProject(const std::vector<SourceFile>& files,
                             const ProjectOptions& options) {
  ProjectResult result;
  result.files_scanned = files.size();

  // Per-file analyses, in sorted path order so every downstream aggregation is
  // deterministic regardless of input order.
  std::vector<const SourceFile*> sorted;
  sorted.reserve(files.size());
  for (const SourceFile& f : files) {
    sorted.push_back(&f);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SourceFile* a, const SourceFile* b) { return a->path < b->path; });

  std::map<std::string, FileAnalysis> analyses;
  std::map<std::string, std::vector<std::string>> file_lines;
  std::map<std::string, int> references;  // Identifier uses in every file read.
  std::set<std::string> top_dirs;
  for (const SourceFile* f : sorted) {
    FileAnalysis analysis = AnalyzeSource(f->path, f->content, options.lint);
    for (const auto& [name, count] : analysis.references) {
      references[name] += count;
    }
    const std::string top_dir = f->path.substr(0, f->path.find('/'));
    if (top_dir == kReferenceOnlyDir) {
      continue;
    }
    top_dirs.insert(top_dir);
    for (Finding& finding : analysis.findings) {
      result.findings.push_back(std::move(finding));
    }
    analyses[f->path] = std::move(analysis);
    file_lines[f->path] = SplitLines(f->content);
  }
  std::erase_if(sorted, [&](const SourceFile* f) { return !analyses.contains(f->path); });

  if (options.project_rules) {
    // ---- layer-cycle: DAG conformance ---------------------------------------
    for (const SourceFile* f : sorted) {
      const std::string from = SubsystemOf(f->path);
      if (from.empty()) {
        continue;
      }
      const auto& suppressions = analyses[f->path].suppressions;
      auto dag_it = LayerDag().find(from);
      for (const IncludeDecl& inc : analyses[f->path].includes) {
        const std::string to = SubsystemOf(inc.path);
        if (to.empty() || to == from) {
          continue;
        }
        if (suppressions.IsSuppressed(inc.line, "layer-cycle")) {
          continue;
        }
        if (dag_it == LayerDag().end()) {
          result.findings.push_back(
              {f->path, inc.line, "layer-cycle",
               "subsystem 'src/" + from +
                   "' is not in the architecture DAG; add it to kLayerDag "
                   "(tools/simlint/project.cc) and DESIGN.md §8",
               "", false});
          break;  // One finding per unknown subsystem file is enough.
        }
        if (!dag_it->second.contains(to)) {
          const bool known = LayerDag().contains(to);
          result.findings.push_back(
              {f->path, inc.line, "layer-cycle",
               "layering violation: src/" + from + " may not include src/" + to +
                   (known ? " (allowed below src/" + from + ": " +
                                JoinSorted(dag_it->second) + ")"
                          : " (unknown subsystem; extend the DAG if intentional)"),
               "", false});
        }
      }
    }

    // ---- layer-cycle: file-level include cycles ------------------------------
    {
      std::map<std::string, std::vector<std::string>> graph;
      for (const SourceFile* f : sorted) {
        std::vector<std::string> edges;
        for (const IncludeDecl& inc : analyses[f->path].includes) {
          if (analyses.contains(inc.path)) {
            edges.push_back(inc.path);
          }
        }
        std::sort(edges.begin(), edges.end());
        graph[f->path] = std::move(edges);
      }
      std::set<std::string> reported_cycles;
      std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
      std::vector<std::string> stack;
      // Recursive DFS; include chains are shallow (bounded by the layer DAG).
      std::function<void(const std::string&)> dfs = [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const std::string& next : graph[node]) {
          if (color[next] == 0) {
            dfs(next);
          } else if (color[next] == 1) {
            // Extract the cycle from the stack.
            auto it = std::find(stack.begin(), stack.end(), next);
            std::vector<std::string> cycle(it, stack.end());
            // Normalize: rotate so the smallest path leads.
            auto min_it = std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), min_it, cycle.end());
            std::string key;
            std::string pretty;
            for (const std::string& p : cycle) {
              key += p + "|";
              pretty += p + " -> ";
            }
            pretty += cycle.front();
            if (reported_cycles.insert(key).second) {
              // Anchor at the edge leaving the cycle's smallest path.
              int line = 1;
              for (const IncludeDecl& inc : analyses[cycle.front()].includes) {
                if (inc.path == cycle[1 % cycle.size()]) {
                  line = inc.line;
                  break;
                }
              }
              result.findings.push_back({cycle.front(), line, "layer-cycle",
                                         "include cycle: " + pretty, "", false});
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
      for (const SourceFile* f : sorted) {
        if (color[f->path] == 0) {
          dfs(f->path);
        }
      }
    }

    // ---- metric-name-audit: kind conflicts + DESIGN.md table -----------------
    struct RegSite {
      std::string file;
      std::string kind;
      int line;
    };
    std::map<std::string, std::vector<RegSite>> registry;
    for (const SourceFile* f : sorted) {
      if (f->path.rfind("src/", 0) != 0) {
        continue;  // Tests/tools/bench drive registries with scratch names.
      }
      for (const MetricReg& reg : analyses[f->path].metrics) {
        registry[reg.name].push_back({f->path, reg.kind, reg.line});
      }
    }
    const std::map<std::string, DesignMetricRow> design =
        options.design_md.empty() ? std::map<std::string, DesignMetricRow>{}
                                  : ParseDesignMetrics(options.design_md);
    for (const auto& [name, sites] : registry) {
      const RegSite& first = sites.front();
      const auto& suppressions = analyses[first.file].suppressions;
      std::set<std::string> kinds;
      for (const RegSite& site : sites) {
        kinds.insert(site.kind);
      }
      if (kinds.size() > 1) {
        std::string where;
        for (const RegSite& site : sites) {
          where += " " + site.file + ":" + std::to_string(site.line) + "(" + site.kind + ")";
        }
        if (!suppressions.IsSuppressed(first.line, "metric-name-audit")) {
          result.findings.push_back(
              {first.file, first.line, "metric-name-audit",
               "metric family '" + name + "' registered with conflicting kinds:" + where,
               "", false});
        }
      }
      if (!options.design_md.empty()) {
        auto row = design.find(name);
        if (row == design.end()) {
          if (!suppressions.IsSuppressed(first.line, "metric-name-audit")) {
            result.findings.push_back(
                {first.file, first.line, "metric-name-audit",
                 "metric family '" + name +
                     "' is not documented in the DESIGN.md metric inventory table "
                     "(regenerate with `simlint --list-metrics`)",
                 "", false});
          }
        } else if (kinds.size() == 1 && row->second.kind != first.kind) {
          result.findings.push_back(
              {options.design_md_label, row->second.line, "metric-name-audit",
               "DESIGN.md documents '" + name + "' as a " + row->second.kind +
                   " but the code registers a " + first.kind,
               "", false});
        }
      }
      result.metrics.push_back({name, *kinds.begin(), first.file});
    }
    if (!options.design_md.empty()) {
      for (const auto& [name, row] : design) {
        if (!registry.contains(name)) {
          result.findings.push_back(
              {options.design_md_label, row.line, "metric-name-audit",
               "DESIGN.md metric inventory lists '" + name +
                   "' but nothing in src/ registers it; drop the row or restore "
                   "the metric",
               "", false});
        }
      }
    }

    // ---- metric-name-audit: reads by literal name -----------------------------
    // A read of a name nothing registers, or of the wrong kind, silently
    // returns 0 (or no series). Tests may read their scratch `ofc.test.*`
    // families when the same file registers them.
    for (const SourceFile* f : sorted) {
      const FileAnalysis& analysis = analyses[f->path];
      for (const MetricReg& read : analysis.metric_reads) {
        if (analysis.suppressions.IsSuppressed(read.line, "metric-name-audit")) {
          continue;
        }
        std::set<std::string> kinds;
        auto it = registry.find(read.name);
        if (it != registry.end()) {
          for (const RegSite& site : it->second) {
            kinds.insert(site.kind);
          }
        } else if (read.name.rfind("ofc.test.", 0) == 0) {
          for (const MetricReg& reg : analysis.metrics) {
            if (reg.name == read.name) {
              kinds.insert(reg.kind);
            }
          }
        }
        if (kinds.empty()) {
          result.findings.push_back(
              {f->path, read.line, "metric-name-audit",
               "metric family '" + read.name +
                   "' is read but nothing in src/ registers it; the read always finds "
                   "nothing",
               "", false});
        } else if (!kinds.contains(read.kind)) {
          result.findings.push_back(
              {f->path, read.line, "metric-name-audit",
               "metric family '" + read.name + "' is read as a " + read.kind +
                   " but registered as a " + *kinds.begin() +
                   "; the read always finds nothing",
               "", false});
        }
      }
    }

    // ---- unordered-iter: cross-file members ----------------------------------
    for (const SourceFile* f : sorted) {
      const FileAnalysis& analysis = analyses[f->path];
      if (analysis.iteration_sites.empty()) {
        continue;
      }
      std::set<std::string> members(analysis.unordered_members.begin(),
                                    analysis.unordered_members.end());
      for (const IncludeDecl& inc : analysis.includes) {
        auto it = analyses.find(inc.path);
        if (it != analyses.end()) {
          members.insert(it->second.unordered_members.begin(),
                         it->second.unordered_members.end());
        }
      }
      for (const IterationSite& site : analysis.iteration_sites) {
        if (members.contains(site.target) &&
            !analysis.suppressions.IsSuppressed(site.line, "unordered-iter")) {
          result.findings.push_back(
              {f->path, site.line, "unordered-iter",
               "iteration over unordered container '" + site.target +
                   "' (declared in this file or an included header) reaches "
                   "event-visible state; use std::map or a sorted vector",
               "", false});
        }
      }
    }
  }

  // ---- unreferenced-api ------------------------------------------------------
  // Only a scan of every linted directory sees all the callers; on a partial
  // scan every function whose callers were left out would be flagged.
  const bool whole_tree = std::all_of(kTreeDirs.begin(), kTreeDirs.end(),
                                      [&](std::string_view dir) {
                                        return top_dirs.contains(std::string(dir));
                                      });
  if (options.project_rules && whole_tree) {
    for (const SourceFile* f : sorted) {
      const FileAnalysis& analysis = analyses[f->path];
      for (const FunctionDecl& decl : analysis.function_decls) {
        if (!references.contains(decl.name) &&
            !analysis.suppressions.IsSuppressed(decl.line, "unreferenced-api")) {
          result.findings.push_back(
              {f->path, decl.line, "unreferenced-api",
               "'" + decl.name +
                   "' is declared in a src/ header but nothing in the tree names it "
                   "outside its declarations and definitions; delete it",
               "", false});
        }
      }
    }
  }

  // ---- Stable ids ------------------------------------------------------------
  SortFindings(&result.findings);
  const std::vector<std::string> design_lines = SplitLines(options.design_md);
  std::map<std::string, int> ordinals;  // (rule|file|anchor) → next ordinal.
  for (Finding& f : result.findings) {
    std::string anchor;
    if (f.file == options.design_md_label) {
      anchor = AnchorText(design_lines, f.line);
    } else {
      auto it = file_lines.find(f.file);
      anchor = it == file_lines.end() ? "" : AnchorText(it->second, f.line);
    }
    const std::string key = f.rule + "|" + f.file + "|" + anchor;
    const int ordinal = ordinals[key]++;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      Fnv64(key + "|" + std::to_string(ordinal))));
    f.id = f.rule + "-" + buf;
  }
  std::sort(result.metrics.begin(), result.metrics.end(),
            [](const MetricInventoryRow& a, const MetricInventoryRow& b) {
              return a.name < b.name;
            });
  return result;
}

// ---- Baseline ----------------------------------------------------------------

namespace {

// Minimal JSON reader for the baseline schema: an object containing an
// "entries" array of flat objects with string/number values.
class BaselineParser {
 public:
  explicit BaselineParser(std::string_view json) : s_(json) {}

  bool Parse(Baseline* out, std::string* error) {
    SkipWs();
    if (!Consume('{')) {
      return Fail(error, "expected '{'");
    }
    while (true) {
      SkipWs();
      if (Consume('}')) {
        return true;
      }
      std::string key;
      if (!ParseString(&key)) {
        return Fail(error, "expected key string");
      }
      SkipWs();
      if (!Consume(':')) {
        return Fail(error, "expected ':'");
      }
      SkipWs();
      if (key == "entries") {
        if (!ParseEntries(out, error)) {
          return false;
        }
      } else if (!SkipValue()) {
        return Fail(error, "bad value for key '" + key + "'");
      }
      SkipWs();
      Consume(',');
    }
  }

 private:
  bool ParseEntries(Baseline* out, std::string* error) {
    if (!Consume('[')) {
      return Fail(error, "expected '['");
    }
    while (true) {
      SkipWs();
      if (Consume(']')) {
        return true;
      }
      if (!Consume('{')) {
        return Fail(error, "expected entry object");
      }
      BaselineEntry entry;
      while (true) {
        SkipWs();
        if (Consume('}')) {
          break;
        }
        std::string key;
        if (!ParseString(&key)) {
          return Fail(error, "expected entry key");
        }
        SkipWs();
        if (!Consume(':')) {
          return Fail(error, "expected ':'");
        }
        SkipWs();
        if (key == "line") {
          std::string num;
          while (pos_ < s_.size() &&
                 (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                  s_[pos_] == '-')) {
            num += s_[pos_++];
          }
          entry.line = num.empty() ? 0 : std::atoi(num.c_str());
        } else {
          std::string value;
          if (!ParseString(&value)) {
            return Fail(error, "expected string value for '" + key + "'");
          }
          if (key == "id") {
            entry.id = value;
          } else if (key == "rule") {
            entry.rule = value;
          } else if (key == "file") {
            entry.file = value;
          } else if (key == "justification") {
            entry.justification = value;
          }
        }
        SkipWs();
        Consume(',');
      }
      out->entries.push_back(std::move(entry));
      SkipWs();
      Consume(',');
    }
  }

  bool SkipValue() {
    // Only strings and numbers appear outside "entries" in our schema.
    if (pos_ < s_.size() && s_[pos_] == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') {
      ++pos_;
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            // Baseline text is ASCII; decode the low byte only.
            if (pos_ + 4 <= s_.size()) {
              c = static_cast<char>(std::stoi(std::string(s_.substr(pos_, 4)), nullptr, 16));
              pos_ += 4;
            }
            break;
          }
          default: c = esc;
        }
      }
      *out += c;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Fail(std::string* error, const std::string& message) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseBaseline(std::string_view json, Baseline* baseline, std::string* error) {
  baseline->entries.clear();
  return BaselineParser(json).Parse(baseline, error);
}

std::string SerializeBaseline(const Baseline& baseline) {
  std::vector<BaselineEntry> entries = baseline.entries;
  std::sort(entries.begin(), entries.end(),
            [](const BaselineEntry& a, const BaselineEntry& b) { return a.id < b.id; });
  std::ostringstream out;
  out << "{\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BaselineEntry& e = entries[i];
    out << (i == 0 ? "" : ",") << "\n    {\"id\": \"" << JsonEscape(e.id)
        << "\", \"rule\": \"" << JsonEscape(e.rule) << "\", \"file\": \""
        << JsonEscape(e.file) << "\", \"line\": " << e.line
        << ", \"justification\": \"" << JsonEscape(e.justification) << "\"}";
  }
  out << (entries.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

Baseline BaselineFromFindings(const ProjectResult& result) {
  Baseline baseline;
  for (const Finding& f : result.findings) {
    baseline.entries.push_back({f.id, f.rule, f.file, f.line, ""});
  }
  return baseline;
}

void ApplyBaseline(const Baseline& baseline, const std::string& baseline_label,
                   ProjectResult* result) {
  std::map<std::string, const BaselineEntry*> by_id;
  for (const BaselineEntry& entry : baseline.entries) {
    by_id[entry.id] = &entry;
  }
  std::set<std::string> matched;
  for (Finding& f : result->findings) {
    auto it = by_id.find(f.id);
    if (it == by_id.end()) {
      continue;
    }
    matched.insert(f.id);
    if (!it->second->justification.empty()) {
      f.baselined = true;
    }
  }
  for (const BaselineEntry& entry : baseline.entries) {
    if (entry.justification.empty()) {
      result->findings.push_back(
          {baseline_label, 0, "baseline-unjustified",
           "baseline entry " + entry.id + " (" + entry.file +
               ") has no justification; every accepted finding must say why it "
               "is sound",
           "baseline-unjustified-" + entry.id, false});
    }
    if (!matched.contains(entry.id)) {
      result->findings.push_back(
          {baseline_label, 0, "baseline-stale",
           "baseline entry " + entry.id + " (" + entry.rule + " in " + entry.file +
               ") matches no current finding; the code changed — delete the entry",
           "baseline-stale-" + entry.id, false});
    }
  }
  SortFindings(&result->findings);
}

// ---- Output ------------------------------------------------------------------

std::string FindingsJson(const ProjectResult& result) {
  std::size_t baselined = 0;
  for (const Finding& f : result.findings) {
    baselined += f.baselined ? 1u : 0u;
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"simlint-v2\",\n"
      << "  \"files_scanned\": " << result.files_scanned << ",\n"
      << "  \"counts\": {\"total\": " << result.findings.size()
      << ", \"new\": " << result.findings.size() - baselined
      << ", \"baselined\": " << baselined << "},\n"
      << "  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"id\": \"" << JsonEscape(f.id)
        << "\", \"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line << ", \"baselined\": "
        << (f.baselined ? "true" : "false") << ", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << (result.findings.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::string GithubAnnotations(const ProjectResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    if (f.baselined) {
      continue;
    }
    // Annotation messages must be single-line; ours already are.
    out << "::error file=" << f.file << ",line=" << f.line << "::[simlint:" << f.rule
        << "] " << f.message << "\n";
  }
  return out.str();
}

std::string MetricsMarkdown(const ProjectResult& result) {
  std::ostringstream out;
  for (const MetricInventoryRow& row : result.metrics) {
    out << "| `" << row.name << "` | " << row.kind << " | " << row.first_file << " |\n";
  }
  return out.str();
}

}  // namespace ofc::simlint
