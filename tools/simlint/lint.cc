#include "tools/simlint/lint.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

#include "tools/simlint/lexer.h"

namespace ofc::simlint {

bool SuppressionMap::IsSuppressed(int line, const std::string& rule) const {
  for (int candidate : {line, line - 1}) {
    auto it = by_line.find(candidate);
    if (it == by_line.end()) {
      continue;
    }
    // A suppression comment on its own line covers the line below it; an
    // end-of-line comment covers its own line.
    if (candidate == line - 1 && lines_with_tokens.contains(candidate)) {
      continue;
    }
    // An unjustified suppression is itself a finding and earns no waiver.
    if (it->second.justified &&
        (it->second.rules.contains(rule) || it->second.rules.contains("*"))) {
      return true;
    }
  }
  return false;
}

namespace {

bool EndsWith(const std::string& value, const std::string& suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& value, const std::string& prefix) {
  return value.rfind(prefix, 0) == 0;
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// ---- The analyzer ------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const std::string& file_label, std::string_view content,
           const LintOptions& options)
      : file_(file_label), options_(options), content_(content), lexed_(Lex(content)) {
    in_src_ = StartsWith(file_, "src/");
    rng_exempt_ = std::any_of(
        options_.rng_exempt_suffixes.begin(), options_.rng_exempt_suffixes.end(),
        [&](const std::string& suffix) { return EndsWith(file_, suffix); });
    for (const Token& t : lexed_.tokens) {
      out_.suppressions.lines_with_tokens.insert(t.line);
    }
  }

  FileAnalysis Run() {
    ParseSuppressions();
    TokenRules();
    UnorderedPass();
    DanglingCapture();
    DcheckSideEffect();
    StdFunctionCompletion();
    IncludesAndMetrics();
    DeclarationsAndReferences();
    std::sort(out_.findings.begin(), out_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) {
                  return a.line < b.line;
                }
                if (a.rule != b.rule) {
                  return a.rule < b.rule;
                }
                return a.message < b.message;
              });
    return std::move(out_);
  }

 private:
  using Toks = std::vector<Token>;

  const Token& Tok(std::size_t i) const { return lexed_.tokens[i]; }
  std::size_t Size() const { return lexed_.tokens.size(); }
  bool IsId(std::size_t i, const char* text) const {
    return i < Size() && Tok(i).kind == TokKind::kIdentifier && Tok(i).text == text;
  }
  bool IsPunct(std::size_t i, const char* text) const {
    return i < Size() && Tok(i).kind == TokKind::kPunct && Tok(i).text == text;
  }

  void Report(int line, const std::string& rule, const std::string& message) {
    if (!out_.suppressions.IsSuppressed(line, rule)) {
      out_.findings.push_back({file_, line, rule, message, "", false});
    }
  }

  // Index just past the token matching the opener at `open` ('(' / '[' / '{').
  // Returns Size() when unbalanced.
  std::size_t Match(std::size_t open) const {
    const std::string& o = Tok(open).text;
    const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t i = open; i < Size(); ++i) {
      if (Tok(i).kind != TokKind::kPunct) {
        continue;
      }
      if (Tok(i).text == o) {
        ++depth;
      } else if (Tok(i).text == c) {
        if (--depth == 0) {
          return i;
        }
      }
    }
    return Size();
  }

  // For a '<' at `open`, finds the matching '>' by depth counting; gives up
  // (returns Size()) at ';' or '{', which signal "not a template list".
  std::size_t MatchAngle(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < Size(); ++i) {
      if (Tok(i).kind != TokKind::kPunct) {
        continue;
      }
      const std::string& t = Tok(i).text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) {
          return i;
        }
      } else if (t == ";" || t == "{") {
        break;
      }
    }
    return Size();
  }

  // ---- Suppressions ----------------------------------------------------------

  void ParseSuppressions() {
    static const std::regex kAllowRe(
        R"(simlint:\s*allow\(([A-Za-z*,\-\s]+)\)\s*(?:--\s*(\S.*))?)");
    for (const Comment& comment : lexed_.comments) {
      std::smatch m;
      if (!std::regex_search(comment.text, m, kAllowRe)) {
        continue;
      }
      SuppressionMap::Entry entry;
      std::stringstream rules(m[1].str());
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](unsigned char c) { return std::isspace(c) != 0; }),
                   rule.end());
        if (!rule.empty()) {
          entry.rules.insert(rule);
        }
      }
      entry.justified = m[2].matched;
      if (!entry.justified) {
        out_.findings.push_back(
            {file_, comment.line, "suppression",
             "simlint suppression without a justification; write "
             "`simlint: allow(rule) -- <why this is sound>`",
             "", false});
      }
      out_.suppressions.by_line[comment.line] = std::move(entry);
    }
  }

  // ---- Simple token rules ----------------------------------------------------

  void TokenRules() {
    static const std::set<std::string> kClocks = {"system_clock", "steady_clock",
                                                  "high_resolution_clock"};
    static const std::set<std::string> kRngIds = {"random_device",
                                                  "default_random_engine"};
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != TokKind::kIdentifier) {
        continue;
      }
      if (kClocks.contains(t.text)) {
        Report(t.line, "wall-clock",
               "wall-clock access; all time must come from sim::EventLoop::now()");
        continue;
      }
      if (!rng_exempt_) {
        const bool is_rng_call =
            ((t.text == "rand" || t.text == "srand") && IsPunct(i + 1, "("));
        const bool is_rng_type =
            kRngIds.contains(t.text) || StartsWith(t.text, "mt19937");
        bool is_time_call = false;
        if (t.text == "time" && IsPunct(i + 1, "(")) {
          // time(), time(0), time(NULL), time(nullptr).
          const std::size_t a = i + 2;
          is_time_call = IsPunct(a, ")") ||
                         ((IsId(a, "nullptr") || IsId(a, "NULL") ||
                           (a < Size() && Tok(a).kind == TokKind::kNumber &&
                            Tok(a).text == "0")) &&
                          IsPunct(a + 1, ")"));
        }
        if (is_rng_call || is_rng_type || is_time_call) {
          Report(t.line, "ambient-rng",
                 "ambient randomness; all randomness must flow through ofc::Rng "
                 "(src/common/rng.h)");
          continue;
        }
      }
      if ((t.text == "float" || t.text == "double") && i + 2 < Size() &&
          Tok(i + 1).kind == TokKind::kIdentifier) {
        const std::string name = Lower(Tok(i + 1).text);
        const bool timeish = name.find("sim_time") != std::string::npos ||
                             name.find("simtime") != std::string::npos ||
                             name.find("when") != std::string::npos ||
                             name.find("deadline") != std::string::npos;
        if (timeish && (IsPunct(i + 2, ";") || IsPunct(i + 2, "=") || IsPunct(i + 2, "{"))) {
          Report(t.line, "float-sim-time",
                 "simulated time held in floating point; use the integral "
                 "SimTime/SimDuration");
        }
        continue;
      }
      if (t.text == "new" && !IsPunct(i - 1, "::") &&
          !(i > 0 && IsId(i - 1, "operator")) && i + 1 < Size() &&
          (Tok(i + 1).kind == TokKind::kIdentifier || IsPunct(i + 1, "("))) {
        Report(t.line, "naked-new", "naked new; use std::make_unique/containers");
        continue;
      }
      if (t.text == "delete" && !(i > 0 && IsId(i - 1, "operator")) &&
          !(i > 0 && IsPunct(i - 1, "="))) {
        std::size_t a = i + 1;
        if (IsPunct(a, "[") && IsPunct(a + 1, "]")) {
          a += 2;
        }
        if (a < Size() && (Tok(a).kind == TokKind::kIdentifier || IsPunct(a, "(") ||
                           IsPunct(a, "*"))) {
          Report(t.line, "naked-new",
                 "naked delete; ownership must live in smart pointers/containers");
        }
        continue;
      }
    }
  }

  // ---- unordered-iter (flow-aware, scope-tracked) ----------------------------

  // True when the token range [begin, end) reaches event-visible state:
  // scheduling, metrics, RNG draws, or trace/flight emits (components emit
  // through obs::Emitter::Emit; src/obs/ and tests call the recorders).
  bool HasEventVisibleSink(std::size_t begin, std::size_t end) const {
    static const std::set<std::string> kSinks = {
        "ScheduleAt", "ScheduleAfter", "Observe",  "Emit",     "Span",
        "Instant",    "GetCounter",    "GetGauge", "GetSeries"};
    for (std::size_t i = begin; i < end && i < Size(); ++i) {
      if (Tok(i).kind != TokKind::kIdentifier) {
        continue;
      }
      if (kSinks.contains(Tok(i).text)) {
        return true;
      }
      const std::string lower = Lower(Tok(i).text);
      if (lower.find("rng") != std::string::npos ||
          lower.find("metrics") != std::string::npos ||
          lower.find("trace") != std::string::npos ||
          lower.find("flight") != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  // Token range of the statement/body that consumes an iteration at `i`:
  // for a range-for header close at `close`, the `{...}` block or single
  // statement after it; for begin()/end(), the enclosing statement.
  std::size_t StatementEnd(std::size_t from) const {
    for (std::size_t i = from; i < Size(); ++i) {
      if (IsPunct(i, ";")) {
        return i;
      }
      if (IsPunct(i, "{")) {
        return Match(i);
      }
    }
    return Size();
  }

  std::size_t StatementBegin(std::size_t from) const {
    for (std::size_t i = from; i > 0; --i) {
      if (IsPunct(i - 1, ";") || IsPunct(i - 1, "{") || IsPunct(i - 1, "}")) {
        return i;
      }
    }
    return 0;
  }

  void UnorderedPass() {
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    struct Scope {
      std::set<std::string> names;
      bool class_like = false;  // class/struct/namespace scope → exported.
    };
    std::vector<Scope> scopes(1);
    scopes.front().class_like = true;  // File scope counts as exported.

    auto visible = [&](const std::string& name) {
      return std::any_of(scopes.begin(), scopes.end(),
                         [&](const Scope& s) { return s.names.contains(name); });
    };

    for (std::size_t i = 0; i < Size(); ++i) {
      if (IsPunct(i, "{")) {
        Scope scope;
        // Classify: scan back to the previous ; { } for class/struct/namespace.
        for (std::size_t k = i; k > 0; --k) {
          if (IsPunct(k - 1, ";") || IsPunct(k - 1, "{") || IsPunct(k - 1, "}")) {
            break;
          }
          if (IsId(k - 1, "class") || IsId(k - 1, "struct") || IsId(k - 1, "namespace")) {
            scope.class_like = true;
            break;
          }
        }
        scopes.push_back(scope);
        continue;
      }
      if (IsPunct(i, "}")) {
        if (scopes.size() > 1) {
          scopes.pop_back();
        }
        continue;
      }

      // Declarations: unordered_xxx<...> [&*]? name [;={(,)]
      if (Tok(i).kind == TokKind::kIdentifier && kUnordered.contains(Tok(i).text) &&
          IsPunct(i + 1, "<")) {
        std::size_t close = MatchAngle(i + 1);
        if (close == Size()) {
          continue;
        }
        std::size_t p = close + 1;
        while (IsPunct(p, "&") || IsPunct(p, "*") || IsId(p, "const")) {
          ++p;
        }
        if (p < Size() && Tok(p).kind == TokKind::kIdentifier) {
          const std::string& name = Tok(p).text;
          if (IsPunct(p + 1, ";") || IsPunct(p + 1, "=") || IsPunct(p + 1, "{") ||
              IsPunct(p + 1, "(") || IsPunct(p + 1, ",") || IsPunct(p + 1, ")")) {
            scopes.back().names.insert(name);
            if (scopes.back().class_like) {
              out_.unordered_members.push_back(name);
            }
          }
        }
        continue;
      }

      // Range-for: for ( ... : target )
      if (IsId(i, "for") && IsPunct(i + 1, "(")) {
        const std::size_t close = Match(i + 1);
        if (close == Size()) {
          continue;
        }
        // Top-level ':' inside the header (not '::', not nested).
        std::size_t colon = Size();
        int depth = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (Tok(k).kind != TokKind::kPunct) {
            continue;
          }
          const std::string& t = Tok(k).text;
          if (t == "(" || t == "[" || t == "{") {
            ++depth;
          } else if (t == ")" || t == "]" || t == "}") {
            --depth;
          } else if (t == ":" && depth == 0) {
            colon = k;
            break;
          }
        }
        if (colon == Size()) {
          continue;
        }
        // Final identifier of the target expression = the container iterated.
        std::string target;
        int target_line = Tok(colon).line;
        for (std::size_t k = close; k > colon; --k) {
          if (Tok(k - 1).kind == TokKind::kIdentifier) {
            target = Tok(k - 1).text;
            target_line = Tok(k - 1).line;
            break;
          }
        }
        if (target.empty()) {
          continue;
        }
        const std::size_t body_end = StatementEnd(close + 1);
        const bool sink = HasEventVisibleSink(close + 1, body_end);
        if (visible(target)) {
          if (sink) {
            Report(target_line, "unordered-iter",
                   "iteration over unordered container '" + target +
                       "' reaches event-visible state (scheduling/metrics/RNG/"
                       "trace); use std::map or a sorted vector");
          }
        } else if (sink && Tok(colon + 1).kind == TokKind::kIdentifier) {
          // Unresolved in-file: candidate for the cross-file pass. Only worth
          // exporting when a sink is present.
          out_.iteration_sites.push_back({target, target_line});
        }
        continue;
      }

      // x.begin() style iteration. Only the begin() family counts: every real
      // iteration calls begin(), while a lone end() is almost always a
      // `find(...) != end()` membership check with deterministic result.
      static const std::set<std::string> kBeginEnd = {"begin", "cbegin", "rbegin"};
      if (Tok(i).kind == TokKind::kIdentifier && kBeginEnd.contains(Tok(i).text) &&
          IsPunct(i + 1, "(") && i >= 2 && (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")) &&
          Tok(i - 2).kind == TokKind::kIdentifier) {
        const std::string& target = Tok(i - 2).text;
        const std::size_t stmt_begin = StatementBegin(i);
        const std::size_t stmt_end = StatementEnd(i);
        const bool sink = HasEventVisibleSink(stmt_begin, stmt_end);
        if (visible(target)) {
          if (sink) {
            Report(Tok(i).line, "unordered-iter",
                   "begin()/end() on unordered container '" + target +
                       "' feeds event-visible state; bucket order is not "
                       "deterministic");
          }
        } else if (sink) {
          out_.iteration_sites.push_back({target, Tok(i).line});
        }
        continue;
      }
    }
    std::sort(out_.unordered_members.begin(), out_.unordered_members.end());
    out_.unordered_members.erase(
        std::unique(out_.unordered_members.begin(), out_.unordered_members.end()),
        out_.unordered_members.end());
  }

  // ---- dangling-capture ------------------------------------------------------

  void DanglingCapture() {
    if (!in_src_) {
      return;
    }
    static const std::set<std::string> kSchedulers = {"ScheduleAt", "ScheduleAfter",
                                                      "PeriodicTask"};
    for (std::size_t i = 0; i < Size(); ++i) {
      if (Tok(i).kind != TokKind::kIdentifier || !kSchedulers.contains(Tok(i).text)) {
        continue;
      }
      // The argument list opens within the next few tokens: `ScheduleAt(`,
      // `PeriodicTask sweep(`, `make_unique<PeriodicTask>(`.
      std::size_t open = Size();
      for (std::size_t k = i + 1; k < i + 4 && k < Size(); ++k) {
        if (IsPunct(k, "(")) {
          open = k;
          break;
        }
        if (Tok(k).kind != TokKind::kIdentifier && !IsPunct(k, ">")) {
          break;
        }
      }
      if (open == Size()) {
        continue;
      }
      const std::size_t close = Match(open);
      for (std::size_t k = open + 1; k < close; ++k) {
        if (!IsPunct(k, "[")) {
          continue;
        }
        // Lambda introducer vs subscript: a lambda's '[' follows '(', ',',
        // '=', '{' or a keyword, never a value expression.
        const bool lambda = IsPunct(k - 1, "(") || IsPunct(k - 1, ",") ||
                            IsPunct(k - 1, "=") || IsPunct(k - 1, "{") ||
                            IsId(k - 1, "return");
        const std::size_t intro_close = Match(k);
        if (!lambda || intro_close == Size()) {
          continue;
        }
        for (std::size_t c = k + 1; c < intro_close; ++c) {
          if (!IsPunct(c, "&") && !IsPunct(c, "&&")) {
            continue;
          }
          // A by-reference capture's '&' starts a capture item, i.e. directly
          // follows '[' or ','. Elsewhere ('t = &x') it is address-of, which
          // is by-value and fine.
          if (!IsPunct(c - 1, "[") && !IsPunct(c - 1, ",")) {
            continue;
          }
          Report(Tok(k).line, "dangling-capture",
                 "by-reference capture in a callback scheduled into the event "
                 "loop via " + Tok(i).text +
                     "; the frame is gone when the callback runs — capture by "
                     "value (and guarantee the lifetime of captured pointers)");
          break;
        }
        k = intro_close;
      }
      i = open;
    }
  }

  // ---- dcheck-side-effect ----------------------------------------------------

  // Root identifier of the postfix chain ending at token `k` (inclusive):
  // walks back over `a.b`, `a->b`, `a[i].b` chains. Empty when the chain
  // does not start at a plain identifier.
  std::string ChainRootBack(std::size_t k) const {
    while (k < Size()) {
      if (Tok(k).kind == TokKind::kPunct && Tok(k).text == "]") {
        // Skip the bracketed subscript backwards.
        int depth = 0;
        while (k < Size()) {
          if (IsPunct(k, "]")) {
            ++depth;
          } else if (IsPunct(k, "[")) {
            if (--depth == 0) {
              break;
            }
          }
          if (k == 0) {
            return "";
          }
          --k;
        }
        if (k == 0) {
          return "";
        }
        --k;
        continue;
      }
      if (Tok(k).kind != TokKind::kIdentifier) {
        return "";
      }
      if (k >= 2 && (IsPunct(k - 1, ".") || IsPunct(k - 1, "->")) &&
          (Tok(k - 2).kind == TokKind::kIdentifier || IsPunct(k - 2, "]"))) {
        k -= 2;
        continue;
      }
      return Tok(k).text;
    }
    return "";
  }

  void DcheckSideEffect() {
    static const std::set<std::string> kMacros = {"SIM_DCHECK", "SIM_ASSERT"};
    static const std::set<std::string> kAssignOps = {"=",  "+=", "-=",  "*=",  "/=",
                                                     "%=", "&=", "|=",  "^=",  "<<=",
                                                     ">>="};
    static const std::set<std::string> kMutators = {
        "erase",        "clear",      "insert",     "emplace",   "emplace_back",
        "emplace_front", "push_back", "push_front", "pop_back",  "pop_front",
        "reset",        "release",    "swap",       "assign",    "resize"};
    for (std::size_t i = 0; i + 1 < Size(); ++i) {
      if (Tok(i).kind != TokKind::kIdentifier || !kMacros.contains(Tok(i).text) ||
          !IsPunct(i + 1, "(")) {
        continue;
      }
      const std::size_t open = i + 1;
      const std::size_t close = Match(open);
      if (close == Size()) {
        continue;
      }
      const std::string& macro = Tok(i).text;

      // Pass 1: names declared inside the macro argument (IIFE locals, lambda
      // parameters, loop variables, init captures) are invisible outside —
      // mutating them is fine. Also mark declaration-initializer '=' tokens
      // and lambda capture introducer ranges.
      std::set<std::string> locals;
      std::set<std::size_t> init_eq;       // '=' tokens that are initializers.
      std::set<std::size_t> intro_tokens;  // Tokens inside [...] introducers.
      for (std::size_t k = open + 1; k < close; ++k) {
        // Lambda capture introducer (or structured binding bracket).
        if (IsPunct(k, "[") &&
            (IsPunct(k - 1, "(") || IsPunct(k - 1, ",") || IsPunct(k - 1, "=") ||
             IsPunct(k - 1, "{") || IsId(k - 1, "return") || IsId(k - 1, "auto") ||
             IsPunct(k - 1, "&"))) {
          const std::size_t intro_close = Match(k);
          for (std::size_t c = k; c <= intro_close && c < close; ++c) {
            intro_tokens.insert(c);
            if (Tok(c).kind == TokKind::kIdentifier && !IsId(c, "this")) {
              // Captured / bound names behave like locals of the expression:
              // by-value captures mutate the closure's copy, structured
              // bindings are fresh names.
              locals.insert(Tok(c).text);
            }
          }
          k = intro_close;
          continue;
        }
        // Two-token declaration pattern: <type-ish> <name> <terminator>.
        if (Tok(k).kind == TokKind::kIdentifier && k + 1 < close && k > open) {
          const Token& prev = Tok(k - 1);
          const bool typeish =
              prev.kind == TokKind::kIdentifier ||
              (prev.kind == TokKind::kPunct &&
               (prev.text == "&" || prev.text == "*" || prev.text == ">"));
          if (!typeish) {
            continue;
          }
          // `a ? b : c`, `a.b`, casts etc. never put two identifiers back to
          // back, so <id> <id> is a declaration for our purposes.
          if (prev.kind == TokKind::kIdentifier &&
              (IsPunct(k - 2, ".") || IsPunct(k - 2, "->") || IsPunct(k - 2, "::"))) {
            continue;  // Qualified name, not "type name".
          }
          const std::string& next = Tok(k + 1).text;
          if (Tok(k + 1).kind == TokKind::kPunct &&
              (next == "=" || next == ";" || next == ":" || next == "," ||
               next == ")" || next == "{")) {
            locals.insert(Tok(k).text);
            if (next == "=") {
              init_eq.insert(k + 1);
            }
          }
        }
      }

      // Pass 2: flag side effects whose target lives outside the expression.
      auto flag = [&](int line, const std::string& what, const std::string& root) {
        Report(line, "dcheck-side-effect",
               what + (root.empty() ? std::string() : " on '" + root + "'") +
                   " inside " + macro +
                   "; the argument compiles out in Release builds, taking the "
                   "side effect with it — hoist the mutation out of the macro");
      };
      for (std::size_t k = open + 1; k < close; ++k) {
        if (Tok(k).kind != TokKind::kPunct || intro_tokens.contains(k)) {
          continue;
        }
        const std::string& t = Tok(k).text;
        if (t == "++" || t == "--") {
          std::string root;
          if (k + 1 < close && Tok(k + 1).kind == TokKind::kIdentifier &&
              !(k > open && (Tok(k - 1).kind == TokKind::kIdentifier ||
                             IsPunct(k - 1, "]") || IsPunct(k - 1, ")")))) {
            root = Tok(k + 1).text;  // Prefix.
          } else {
            root = ChainRootBack(k - 1);  // Postfix.
          }
          if (!locals.contains(root)) {
            flag(Tok(k).line, t == "++" ? "increment" : "decrement", root);
          }
          continue;
        }
        if (kAssignOps.contains(t)) {
          if (init_eq.contains(k)) {
            continue;
          }
          const std::string root = ChainRootBack(k - 1);
          if (!locals.contains(root)) {
            flag(Tok(k).line, "assignment", root);
          }
          continue;
        }
        if ((t == "." || t == "->") && k + 2 < close &&
            Tok(k + 1).kind == TokKind::kIdentifier &&
            kMutators.contains(Tok(k + 1).text) && IsPunct(k + 2, "(")) {
          const std::string root = ChainRootBack(k - 1);
          if (!locals.contains(root)) {
            flag(Tok(k + 1).line, "mutating call '." + Tok(k + 1).text + "()'", root);
          }
          continue;
        }
      }
      i = close;
    }
  }

  // ---- Includes, metric registrations and reads, metric grammar --------------

  void IncludesAndMetrics() {
    static const std::map<std::string, std::string> kRegs = {
        {"GetCounter", "counter"}, {"GetGauge", "gauge"}, {"GetSeries", "series"}};
    static const std::map<std::string, std::string> kReads = {
        {"CounterValue", "counter"}, {"CounterTotal", "counter"}, {"GaugeValue", "gauge"},
        {"FindSeries", "series"}};
    static const std::regex kNameRe(R"(^ofc\.[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$)");
    for (std::size_t i = 0; i < Size(); ++i) {
      if (IsPunct(i, "#") && IsId(i + 1, "include") && i + 2 < Size() &&
          Tok(i + 2).kind == TokKind::kString) {
        out_.includes.push_back({Tok(i + 2).text, Tok(i + 2).line});
        continue;
      }
      const bool member_call = Tok(i).kind == TokKind::kIdentifier && IsPunct(i + 1, "(") &&
                               (IsPunct(i - 1, ".") || IsPunct(i - 1, "->"));
      if (member_call && kReads.contains(Tok(i).text) && i + 2 < Size() &&
          Tok(i + 2).kind == TokKind::kString && Tok(i + 2).text.rfind("ofc.", 0) == 0) {
        out_.metric_reads.push_back({Tok(i + 2).text, kReads.at(Tok(i).text), Tok(i + 2).line});
        continue;
      }
      if (member_call && kRegs.contains(Tok(i).text)) {
        const std::string& kind = kRegs.at(Tok(i).text);
        if (i + 2 < Size() && Tok(i + 2).kind == TokKind::kString) {
          const std::string& name = Tok(i + 2).text;
          out_.metrics.push_back({name, kind, Tok(i + 2).line});
          if (in_src_ && !std::regex_match(name, kNameRe)) {
            Report(Tok(i + 2).line, "metric-name-audit",
                   "metric family name '" + name +
                       "' violates the grammar `ofc.<component>.<name>` "
                       "(lower_snake segments, exactly three)");
          }
        } else if (in_src_) {
          Report(Tok(i).line, "metric-name-audit",
                 "metric family name passed to " + Tok(i).text +
                     " must be a string literal so it can be audited against "
                     "the DESIGN.md metrics table");
        }
      }
    }
  }

  // ---- std-function-completion ----------------------------------------------

  // The data path's completion type is sim::InlineFunction: std::function
  // heap-allocates any callable past 16 bytes of captures. Checked in the
  // headers that declare the RSDS's, the cluster's, the proxy's and the cache
  // agent's interfaces.
  void StdFunctionCompletion() {
    const bool covered =
        EndsWith(file_, ".h") &&
        (StartsWith(file_, "src/store/") || StartsWith(file_, "src/ramcloud/") ||
         file_ == "src/core/proxy.h" || file_ == "src/core/cache_agent.h");
    if (!covered) {
      return;
    }
    for (std::size_t i = 0; i + 2 < Size(); ++i) {
      if (IsId(i, "std") && IsPunct(i + 1, "::") && IsId(i + 2, "function")) {
        Report(Tok(i).line, "std-function-completion",
               "std::function in a data-path interface; completions are "
               "sim::InlineFunction (src/sim/inline_function.h)");
      }
    }
  }

  // ---- unreferenced-api (per-file half) --------------------------------------

  // First token of the qualified name ending at identifier `i`: `a::b<T>::f`
  // starts at `a`, `::a::f` at its leading `::`.
  std::size_t QualifiedStart(std::size_t i) const {
    while (i >= 2 && IsPunct(i - 1, "::")) {
      std::size_t k = i - 2;
      for (int depth = 0; IsPunct(k, ">") || depth > 0; --k) {  // Skip `<...>`.
        depth += IsPunct(k, ">") ? 1 : IsPunct(k, "<") ? -1 : 0;
        if (k == 0) {
          return i;
        }
      }
      if (Tok(k).kind != TokKind::kIdentifier) {
        return i - 1;
      }
      i = k;
    }
    return i;
  }

  // Keywords that never end a declaration's type, so the name after them is
  // not a declared function (fundamental types such as `int` do end one).
  static bool IsKeyword(const std::string& text) {
    static const std::set<std::string> kKeywords = {
        "alignas",  "alignof",   "and",       "case",         "class",     "co_await",
        "co_return", "co_yield", "concept",   "const",        "consteval", "constexpr",
        "constinit", "decltype", "default",   "delete",       "do",        "else",
        "enum",     "explicit",  "extern",    "for",          "friend",    "goto",
        "if",       "inline",    "mutable",   "namespace",    "new",       "noexcept",
        "not",      "operator",  "or",        "private",      "protected", "public",
        "requires", "return",    "sizeof",    "static",       "static_assert",
        "struct",   "switch",    "template",  "throw",        "typedef",   "typeid",
        "typename", "union",     "using",     "virtual",      "volatile",  "while"};
    return kKeywords.contains(text);
  }

  // True when the token before `start` ends a type (`int`, `Foo`, `>`, `*`,
  // `&`), i.e. the name at `start` is being declared rather than called.
  bool TypeEndsBefore(std::size_t start) const {
    if (start == 0) {
      return false;
    }
    const Token& prev = Tok(start - 1);
    if (prev.kind == TokKind::kPunct) {
      return prev.text == ">" || prev.text == "*" || prev.text == "&" || prev.text == "&&";
    }
    return prev.kind == TokKind::kIdentifier && !IsKeyword(prev.text);
  }

  // True when the '{' at `open` opens a namespace or class body, false for a
  // block (function body, lambda, initializer or statement).
  bool OpensDeclarationScope(std::size_t open) const {
    for (std::size_t k = open; k > 0; --k) {
      const Token& t = Tok(k - 1);
      if (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ")" || t.text == "=")) {
        return false;
      }
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "namespace" || t.text == "class" || t.text == "struct" ||
           t.text == "union" || t.text == "enum")) {
        return true;
      }
    }
    return false;
  }

  // Records the functions declared at namespace or class scope, and counts
  // every other identifier as a reference. A name directly after a type and
  // before '(' is a declaration or definition (`Status Put(`, `void
  // Proxy::Read(`), not a use; constructors, destructors and operators have
  // no type there (a template constructor does, but its class name is used
  // by the class head itself). Preprocessor directives are all references: a
  // macro body is where `OFC_LOG` calls `GetLogLevel`.
  void DeclarationsAndReferences() {
    std::set<int> spliced;  // Physical lines ending in a backslash-newline.
    int line = 1;
    for (std::size_t p = 0; p < content_.size(); ++p) {
      if (content_[p] == '\\' &&
          (content_.substr(p + 1, 1) == "\n" || content_.substr(p + 1, 2) == "\r\n")) {
        spliced.insert(line);
      } else if (content_[p] == '\n') {
        ++line;
      }
    }
    const bool src_header = in_src_ && EndsWith(file_, ".h");
    std::vector<bool> declaration_scopes = {true};
    int directive_end = 0;  // Last physical line of the current directive.
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (IsPunct(i, "#") && (i == 0 || Tok(i - 1).line < t.line)) {
        directive_end = t.line;
        while (spliced.contains(directive_end)) {
          ++directive_end;
        }
      }
      if (t.line > directive_end) {
        if (IsPunct(i, "{")) {
          declaration_scopes.push_back(OpensDeclarationScope(i));
          continue;
        }
        if (IsPunct(i, "}")) {
          if (declaration_scopes.size() > 1) {
            declaration_scopes.pop_back();
          }
          continue;
        }
      }
      if (t.kind != TokKind::kIdentifier) {
        continue;
      }
      if (t.line > directive_end && declaration_scopes.back() && IsPunct(i + 1, "(") &&
          !IsKeyword(t.text)) {
        const std::size_t start = QualifiedStart(i);
        if (TypeEndsBefore(start)) {
          if (src_header && start == i) {
            out_.function_decls.push_back({t.text, t.line});
          }
          continue;
        }
      }
      ++out_.references[t.text];
    }
  }

  std::string file_;
  const LintOptions& options_;
  std::string_view content_;
  LexResult lexed_;
  FileAnalysis out_;
  bool in_src_ = false;
  bool rng_exempt_ = false;
};

}  // namespace

FileAnalysis AnalyzeSource(const std::string& file_label, std::string_view content,
                           const LintOptions& options) {
  return Analyzer(file_label, content, options).Run();
}

std::vector<Finding> LintSource(const std::string& file_label, std::string_view content,
                                const LintOptions& options) {
  return AnalyzeSource(file_label, content, options).findings;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  if (finding.baselined) {
    out << " (baselined)";
  }
  return out.str();
}

}  // namespace ofc::simlint
