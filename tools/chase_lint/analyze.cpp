/// \file analyze.cpp
/// chase_lint's function extractor and the check families: coroutine
/// lifetime, hot-path perf, and determinism.
///
/// This is a *shape* analyzer, not a compiler: it finds function and lambda
/// bodies by bracket matching over the token stream, decides coroutine-ness
/// by the presence of co_await/co_return/co_yield in a body (excluding
/// nested lambdas/local functions), and applies narrow syntactic patterns
/// tuned to this codebase's sim::Task idiom. Heuristic checks (stale-ref,
/// frame-escape) deliberately trade recall for a near-zero false-positive
/// rate: every pattern here is one that has already produced a real bug in
/// this repo or is one mutation away from it.
///
/// The determinism family (det-*) scans the whole token stream rather than
/// per-function: pointer-keyed member containers and entropy sources live at
/// class/namespace scope. Type information is approximated per file (a name
/// is "float" if the file declares it with float/double, or the policy
/// classifies it with `float-key`); that is enough because the conventions
/// being enforced — ordered containers, (key,id) total orders, util::Rng as
/// the only entropy source — are local idioms, not whole-program properties.

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_set>

#include "lint.hpp"

namespace chase::lint {

namespace {

// Keywords that can directly precede a '(' without introducing a function
// definition (control flow, operators, specifiers).
const std::unordered_set<std::string> kNonFunctionNames = {
    "if",      "for",       "while",    "switch",        "catch",   "return",
    "co_return", "co_await", "co_yield", "sizeof",       "alignof", "alignas",
    "decltype", "noexcept",  "new",      "delete",        "throw",   "case",
    "else",    "do",        "operator", "static_assert", "requires", "defined",
    "constexpr", "consteval", "assert"};

const std::unordered_set<std::string> kTypeishExcluded = {
    "const", "volatile", "struct", "class", "typename", "auto"};

const std::string kEmpty;

bool is_suspension(const Token& t) {
  return t.kind == TokKind::Ident &&
         (t.text == "co_await" || t.text == "co_yield");
}
bool is_coro_keyword(const Token& t) {
  return t.kind == TokKind::Ident &&
         (t.text == "co_await" || t.text == "co_yield" || t.text == "co_return");
}

struct Fn {
  std::string name;
  std::string qualified;  // "Class::name" when defined out-of-line, else ""
  bool is_lambda = false;
  int line = 0;
  std::size_t intro = 0;                         // first token (name or '[')
  std::size_t params_begin = 0, params_end = 0;  // inside the parens
  std::size_t caps_begin = 0, caps_end = 0;      // lambda capture list
  std::size_t body_begin = 0, body_end = 0;      // inside the braces
  int parent = -1;
  bool is_coroutine = false;
  bool is_hot = false;  // in a hot-path file / hot-function entry / nested in one
  std::vector<int> children;
};

struct Analyzer {
  const std::string& path;
  const Config& cfg;
  std::vector<Token> toks;
  std::vector<Comment> comments;
  std::vector<std::ptrdiff_t> match;  // matching (){}[] index, or -1
  std::vector<Fn> fns;
  std::vector<Finding> findings;
  std::unordered_set<std::string> reserved_names;  // receivers with X.reserve(
  std::vector<char>* allow_file_used = nullptr;    // parallel to cfg.allow_files
  std::vector<char>* allow_unordered_used = nullptr;  // parallel to cfg.allow_unordered
  std::vector<char>* hot_function_used = nullptr;     // parallel to cfg.hot_functions

  explicit Analyzer(const std::string& p, const LexResult& lexed, const Config& c)
      : path(p), cfg(c), toks(lexed.tokens), comments(lexed.comments) {}

  const Token& tok(std::size_t i) const { return toks[i]; }
  bool is(std::size_t i, const char* s) const {
    return i < toks.size() && toks[i].text == s;
  }

  void emit(const char* check, int line, const Fn& fn, std::string message) {
    findings.push_back(Finding{check, path, line, fn.name, std::move(message)});
  }

  // --- bracket matching ------------------------------------------------------
  void build_match() {
    match.assign(toks.size(), -1);
    std::vector<std::size_t> parens;
    std::vector<std::size_t> braces;
    std::vector<std::size_t> squares;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& s = toks[i].text;
      if (toks[i].kind != TokKind::Punct) continue;
      if (s == "(") parens.push_back(i);
      if (s == "{") braces.push_back(i);
      if (s == "[") squares.push_back(i);
      auto close = [&](std::vector<std::size_t>& stack) {
        if (stack.empty()) return;
        match[stack.back()] = static_cast<std::ptrdiff_t>(i);
        match[i] = static_cast<std::ptrdiff_t>(stack.back());
        stack.pop_back();
      };
      if (s == ")") close(parens);
      if (s == "}") close(braces);
      if (s == "]") close(squares);
    }
  }

  /// Step over a balanced group if `i` sits on an opener; otherwise ++i.
  std::size_t skip_group(std::size_t i) const {
    if (i < toks.size() && match[i] > static_cast<std::ptrdiff_t>(i)) {
      return static_cast<std::size_t>(match[i]) + 1;
    }
    return i + 1;
  }

  // --- function / lambda extraction -----------------------------------------

  /// After a parameter list's ')': skip qualifiers (const, noexcept(...),
  /// ->Type, attributes, ctor init lists, requires clauses) and return the
  /// index of the body '{', or npos if this is not a definition.
  std::size_t find_body_brace(std::size_t k) const {
    static const std::unordered_set<std::string> kQualifiers = {
        "const", "noexcept", "override", "final", "mutable", "&", "&&",
        "constexpr", "try", "volatile"};
    while (k < toks.size()) {
      const std::string& s = toks[k].text;
      if (s == "{") return k;
      if (s == ";" || s == "=" || s == "," || s == ")") return std::string::npos;
      if (kQualifiers.count(s) != 0u) {
        ++k;
        if (k < toks.size() && toks[k].text == "(") k = skip_group(k);
        continue;
      }
      if (s == "[" && k + 1 < toks.size() && toks[k + 1].text == "[") {
        k = skip_group(k);  // [[attribute]]
        continue;
      }
      if (s == "->" || s == "requires") {
        // Trailing return type / requires clause: scan to the body brace.
        ++k;
        while (k < toks.size()) {
          const std::string& q = toks[k].text;
          if (q == "{" || q == ";" || q == "=") break;
          k = (q == "(" || q == "[") ? skip_group(k) : k + 1;
        }
        continue;
      }
      if (s == ":") {
        // Ctor init list: `name(...)` / `name{...}` items, then the body
        // brace (which follows ')', '}' or '...', never an identifier).
        ++k;
        while (k < toks.size()) {
          if (toks[k].text == "{" && k > 0 &&
              (toks[k - 1].text == ")" || toks[k - 1].text == "}" ||
               toks[k - 1].text == "...")) {
            return k;
          }
          if (toks[k].text == ";") return std::string::npos;
          k = (toks[k].text == "(" || toks[k].text == "{") ? skip_group(k) : k + 1;
        }
        return std::string::npos;
      }
      return std::string::npos;
    }
    return std::string::npos;
  }

  void find_named_functions() {
    for (std::size_t i = 1; i < toks.size(); ++i) {
      if (!is(i, "(")) continue;
      const Token& prev = toks[i - 1];
      if (prev.kind != TokKind::Ident) continue;
      if (kNonFunctionNames.count(prev.text) != 0u) continue;
      if (match[i] < 0) continue;
      const std::size_t close = static_cast<std::size_t>(match[i]);
      const std::size_t body = find_body_brace(close + 1);
      if (body == std::string::npos || match[body] < 0) continue;
      Fn fn;
      fn.name = prev.text;
      if (i >= 3 && toks[i - 2].text == "::" && toks[i - 3].kind == TokKind::Ident) {
        fn.qualified = toks[i - 3].text + "::" + prev.text;
      }
      fn.line = prev.line;
      fn.intro = i - 1;
      fn.params_begin = i + 1;
      fn.params_end = close;
      fn.body_begin = body + 1;
      fn.body_end = static_cast<std::size_t>(match[body]);
      fns.push_back(std::move(fn));
    }
  }

  void find_lambdas() {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is(i, "[") || match[i] < 0) continue;
      if (i + 1 < toks.size() && toks[i + 1].text == "[") continue;  // attribute
      if (i > 0) {
        const Token& prev = toks[i - 1];
        // Subscript or array declarator, not a lambda introducer.
        if (prev.kind == TokKind::Ident && kNonFunctionNames.count(prev.text) == 0u)
          continue;
        if (prev.text == ")" || prev.text == "]") continue;
      }
      Fn fn;
      fn.name = "<lambda>";
      fn.is_lambda = true;
      fn.line = toks[i].line;
      fn.intro = i;
      fn.caps_begin = i + 1;
      fn.caps_end = static_cast<std::size_t>(match[i]);
      std::size_t j = fn.caps_end + 1;
      if (j < toks.size() && toks[j].text == "<") {  // []<typename T>(...)
        int depth = 1;
        ++j;
        while (j < toks.size() && depth > 0) {
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">") --depth;
          j = (toks[j].text == "(") ? skip_group(j) : j + 1;
        }
      }
      if (j < toks.size() && toks[j].text == "(" && match[j] > 0) {
        fn.params_begin = j + 1;
        fn.params_end = static_cast<std::size_t>(match[j]);
        j = fn.params_end + 1;
      }
      const std::size_t body = find_body_brace(j);
      if (body == std::string::npos || match[body] < 0) continue;
      fn.body_begin = body + 1;
      fn.body_end = static_cast<std::size_t>(match[body]);
      fns.push_back(std::move(fn));
    }
  }

  void link_and_classify() {
    // Innermost enclosing body wins as parent.
    for (std::size_t a = 0; a < fns.size(); ++a) {
      std::size_t best_size = std::string::npos;
      for (std::size_t b = 0; b < fns.size(); ++b) {
        if (a == b) continue;
        if (fns[b].body_begin <= fns[a].intro && fns[a].body_end <= fns[b].body_end) {
          const std::size_t size = fns[b].body_end - fns[b].body_begin;
          if (size < best_size) {
            best_size = size;
            fns[a].parent = static_cast<int>(b);
          }
        }
      }
    }
    for (std::size_t a = 0; a < fns.size(); ++a) {
      if (fns[a].parent >= 0) fns[fns[a].parent].children.push_back(static_cast<int>(a));
    }
    for (Fn& fn : fns) {
      for_own_tokens(fn, [&](std::size_t i) {
        if (is_coro_keyword(toks[i])) fn.is_coroutine = true;
      });
    }

    // Hot classification: a hot-path file marks every function hot; a
    // hot-function entry marks definitions by qualified or bare name; and
    // hotness flows into nested lambdas / local functions (they run on the
    // same path).
    bool file_hot = false;
    for (const std::string& p : cfg.hot_paths) {
      if (path.find(p) != std::string::npos) {
        file_hot = true;
        break;
      }
    }
    for (Fn& fn : fns) {
      fn.is_hot = file_hot;
      for (std::size_t h = 0; h < cfg.hot_functions.size(); ++h) {
        const std::string& name = cfg.hot_functions[h];
        if (name == fn.name || (!fn.qualified.empty() && name == fn.qualified)) {
          fn.is_hot = true;
          if (hot_function_used != nullptr) (*hot_function_used)[h] = 1;
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (Fn& fn : fns) {
        if (!fn.is_hot && fn.parent >= 0 && fns[static_cast<std::size_t>(fn.parent)].is_hot) {
          fn.is_hot = true;
          changed = true;
        }
      }
    }
  }

  /// Visit the token indices of `fn`'s body that belong to `fn` itself,
  /// skipping every nested lambda / local function definition.
  template <typename Visit>
  void for_own_tokens(const Fn& fn, Visit&& visit) const {
    // Children sorted by position; ranges are disjoint.
    std::vector<std::pair<std::size_t, std::size_t>> skips;
    for (int c : fn.children) {
      skips.emplace_back(fns[c].intro, fns[c].body_end + 1);  // incl. '}'
    }
    std::sort(skips.begin(), skips.end());
    std::size_t s = 0;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      while (s < skips.size() && skips[s].second <= i) ++s;
      if (s < skips.size() && skips[s].first <= i && i < skips[s].second) {
        i = skips[s].second - 1;  // land on the last skipped token
        continue;
      }
      visit(i);
    }
  }

  // --- parameter splitting ---------------------------------------------------

  /// Split [begin, end) on top-level commas (angle depth tracked
  /// heuristically: '<' after an identifier or '>' opens a template list).
  std::vector<std::pair<std::size_t, std::size_t>> split_params(std::size_t begin,
                                                                std::size_t end) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int depth = 0;
    int angle = 0;
    std::size_t start = begin;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& s = toks[i].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (s == "<" && i > begin &&
          (toks[i - 1].kind == TokKind::Ident || toks[i - 1].text == ">")) {
        ++angle;
      }
      if (s == ">" && angle > 0) --angle;
      if (s == ">>" && angle > 0) angle = std::max(0, angle - 2);
      if (s == "," && depth == 0 && angle == 0) {
        out.emplace_back(start, i);
        start = i + 1;
      }
    }
    if (start < end) out.emplace_back(start, end);
    return out;
  }

  bool is_allowed_ref_type(const std::string& type) const {
    return std::find(cfg.allow_ref_types.begin(), cfg.allow_ref_types.end(), type) !=
           cfg.allow_ref_types.end();
  }

  // --- check: coro-ref-param -------------------------------------------------

  void check_ref_params(const Fn& fn) {
    static const std::unordered_set<std::string> kViewTypes = {
        "string_view", "wstring_view", "u8string_view", "u16string_view",
        "u32string_view", "span"};
    for (auto [pb, pe] : split_params(fn.params_begin, fn.params_end)) {
      if (pb >= pe) continue;
      if (pe - pb == 1 && (toks[pb].text == "void" || toks[pb].text == "...")) continue;
      int depth = 0;
      int angle = 0;
      std::size_t ref_at = std::string::npos;
      bool rvalue = false;
      std::string view_type;
      std::string last_ident;
      std::string name;
      std::string type_before_ref;
      for (std::size_t i = pb; i < pe; ++i) {
        const std::string& s = toks[i].text;
        if (s == "(" || s == "[" || s == "{") ++depth;
        if (s == ")" || s == "]" || s == "}") --depth;
        if (s == "<" && i > pb &&
            (toks[i - 1].kind == TokKind::Ident || toks[i - 1].text == ">")) {
          ++angle;
        } else if (s == ">" && angle > 0) {
          --angle;
        } else if (s == ">>" && angle > 0) {
          angle = std::max(0, angle - 2);
        }
        if (depth != 0 || angle != 0) continue;
        if (s == "=") break;  // default argument: the name came just before
        if (toks[i].kind == TokKind::Ident) {
          if (kViewTypes.count(s) != 0u) view_type = s;
          if (kTypeishExcluded.count(s) == 0u) {
            last_ident = s;
            name = s;
          }
          continue;
        }
        if ((s == "&" || s == "&&") && ref_at == std::string::npos) {
          ref_at = i;
          rvalue = (s == "&&");
          type_before_ref = last_ident;
        }
      }
      if (ref_at != std::string::npos) {
        if (!rvalue && is_allowed_ref_type(type_before_ref)) continue;
        emit("coro-ref-param", toks[ref_at].line, fn,
             "parameter '" + (name.empty() ? type_before_ref : name) +
                 "' of coroutine '" + fn.name + "' is passed by " +
                 (rvalue ? std::string("rvalue reference")
                         : std::string("reference")) +
                 "; the referent can be destroyed while the frame is suspended "
                 "(the blpop_impl bug class) -- take it by value, or by pointer "
                 "to an object that provably outlives the frame");
      } else if (!view_type.empty()) {
        emit("coro-ref-param", toks[pb].line, fn,
             "parameter '" + name + "' of coroutine '" + fn.name +
                 "' is a view type (std::" + view_type +
                 "); the viewed buffer can be destroyed while the frame is "
                 "suspended -- take an owning value instead");
      }
    }
  }

  // --- check: coro-lambda-capture --------------------------------------------

  void check_lambda_captures(const Fn& fn) {
    for (auto [cb, ce] : split_params(fn.caps_begin, fn.caps_end)) {
      if (cb >= ce) continue;
      if (toks[cb].text == "&") {
        const std::string what =
            (ce - cb == 1) ? "by-reference capture default '[&]'"
                           : "by-reference capture '&" + toks[cb + 1].text + "'";
        emit("coro-lambda-capture", toks[cb].line, fn,
             "coroutine lambda has " + what +
                 "; captures live in the lambda object, not the coroutine "
                 "frame, and the referent can die before the frame resumes -- "
                 "capture by value or pass state as a parameter");
      } else if (ce - cb == 1 && toks[cb].text == "this") {
        emit("coro-lambda-capture", toks[cb].line, fn,
             "coroutine lambda captures 'this'; if the object is destroyed "
             "while the frame is suspended every member access dangles -- "
             "capture '*this' by value or pass the object as a parameter");
      }
    }
  }

  // --- check: coro-stale-ref -------------------------------------------------

  std::size_t find_stmt_end(std::size_t i, std::size_t limit) const {
    while (i < limit) {
      const std::string& s = toks[i].text;
      if (s == ";") return i;
      i = (s == "(" || s == "[" || s == "{") ? skip_group(i) : i + 1;
    }
    return limit;
  }

  bool range_has_container_access(std::size_t b, std::size_t e) const {
    static const std::unordered_set<std::string> kAccessors = {
        "at",   "front", "back",        "top",         "data",
        "find", "begin", "end",         "rbegin",      "rend",
        "cbegin", "cend", "lower_bound", "upper_bound", "equal_range"};
    for (std::size_t i = b; i < e; ++i) {
      if (toks[i].text == "[") return true;
      if (toks[i].kind == TokKind::Ident && kAccessors.count(toks[i].text) != 0u &&
          i + 1 < e && toks[i + 1].text == "(") {
        return true;
      }
    }
    return false;
  }

  bool range_yields_iterator(std::size_t b, std::size_t e) const {
    static const std::unordered_set<std::string> kIterCalls = {
        "begin", "end",         "rbegin",      "rend",       "cbegin",
        "cend",  "lower_bound", "upper_bound", "equal_range", "find"};
    for (std::size_t i = b; i < e; ++i) {
      if (toks[i].kind == TokKind::Ident && kIterCalls.count(toks[i].text) != 0u &&
          i + 1 < e && toks[i + 1].text == "(") {
        return true;
      }
    }
    return false;
  }

  void check_stale_refs(const Fn& fn) {
    struct Binding {
      std::string name;
      int decl_line;
      int depth;
      const char* what;
      bool stale = false;
      int stale_line = 0;
      bool reported = false;
    };
    std::vector<Binding> bindings;
    int depth = 0;
    // A co_await's operand is evaluated before the frame suspends, so uses
    // inside the awaiting statement are safe; bindings turn stale at the
    // *end* of that statement.
    int pending_stale_line = 0;

    // Flatten own-token indices once so we can look ahead safely.
    std::vector<std::size_t> own;
    for_own_tokens(fn, [&](std::size_t i) { own.push_back(i); });

    for (std::size_t k = 0; k < own.size(); ++k) {
      const std::size_t i = own[k];
      const std::string& s = toks[i].text;
      if (s == ";" || s == "{" || s == "}") {
        if (pending_stale_line != 0) {
          for (Binding& b : bindings) {
            if (!b.stale) {
              b.stale = true;
              b.stale_line = pending_stale_line;
            }
          }
          pending_stale_line = 0;
        }
      }
      if (s == "{") {
        ++depth;
        continue;
      }
      if (s == "}") {
        --depth;
        bindings.erase(std::remove_if(bindings.begin(), bindings.end(),
                                      [&](const Binding& b) { return b.depth > depth; }),
                       bindings.end());
        continue;
      }
      if (is_suspension(toks[i])) {
        pending_stale_line = toks[i].line;
        continue;
      }
      // Declarations: `T& name = init`, `T* name = init`, `auto name = init`.
      const bool next_is_name = k + 2 < own.size() &&
                                toks[own[k + 1]].kind == TokKind::Ident &&
                                toks[own[k + 2]].text == "=";
      if (next_is_name && (s == "&" || s == "*" || s == "auto")) {
        const bool typeish_before =
            s == "auto" ||
            (k > 0 && (toks[own[k - 1]].kind == TokKind::Ident ||
                       toks[own[k - 1]].text == ">"));
        if (typeish_before) {
          const std::size_t init_b = own[k + 2] + 1;
          const std::size_t init_e = find_stmt_end(init_b, fn.body_end);
          const bool risky = (s == "auto")
                                 ? range_yields_iterator(init_b, init_e)
                                 : range_has_container_access(init_b, init_e);
          if (risky) {
            bindings.push_back(Binding{toks[own[k + 1]].text, toks[own[k + 1]].line,
                                       depth,
                                       s == "auto" ? "iterator"
                                       : s == "&"  ? "reference"
                                                   : "pointer"});
          }
          k += 2;  // past `name =`; the initializer is scanned by the walk
          continue;
        }
      }
      if (toks[i].kind != TokKind::Ident) continue;
      for (Binding& b : bindings) {
        if (b.name != s) continue;
        const bool writes_through = k > 0 && toks[own[k - 1]].text == "*";
        const bool rebinds = !writes_through && k + 1 < own.size() &&
                             toks[own[k + 1]].text == "=";
        if (rebinds) {
          b.stale = false;
          b.reported = false;
        } else if (b.stale && !b.reported) {
          b.reported = true;
          emit("coro-stale-ref", toks[i].line, fn,
               std::string("'") + b.name + "' (" + b.what +
                   " into a container, bound at line " +
                   std::to_string(b.decl_line) + ") is used after the co_await "
                   "at line " + std::to_string(b.stale_line) +
                   "; the container may have been mutated while this frame was "
                   "suspended -- re-acquire it after resumption");
        }
      }
    }
  }

  // --- check: coro-frame-escape ----------------------------------------------

  void check_frame_escape(const Fn& fn) {
    std::unordered_set<std::string> locals;
    for (auto [pb, pe] : split_params(fn.params_begin, fn.params_end)) {
      // Last identifier of the declarator is the parameter name.
      for (std::size_t i = pe; i > pb;) {
        --i;
        if (toks[i].text == "=") pe = i;  // default arg: name precedes it
      }
      for (std::size_t i = pe; i > pb;) {
        --i;
        if (toks[i].kind == TokKind::Ident) {
          locals.insert(toks[i].text);
          break;
        }
      }
    }

    std::vector<std::size_t> own;
    for_own_tokens(fn, [&](std::size_t i) { own.push_back(i); });

    std::size_t first_guard = std::string::npos;
    for (std::size_t k = 0; k < own.size(); ++k) {
      const Token& t = toks[own[k]];
      if (t.kind != TokKind::Ident) continue;
      if (std::find(cfg.guard_types.begin(), cfg.guard_types.end(), t.text) !=
          cfg.guard_types.end()) {
        first_guard = std::min(first_guard, own[k]);
      }
      // Local declarations: `Type name =|;|{|(`, with a type-ish token
      // before the name.
      if (k > 0 && k + 1 < own.size()) {
        const Token& prev = toks[own[k - 1]];
        const std::string& next = toks[own[k + 1]].text;
        const bool declish =
            (prev.kind == TokKind::Ident && kNonFunctionNames.count(prev.text) == 0u &&
             prev.text != "return") ||
            prev.text == ">" || prev.text == "*" || prev.text == "&";
        if (declish && (next == "=" || next == ";" || next == "{" || next == "(")) {
          locals.insert(t.text);
        }
      }
    }

    for (std::size_t k = 0; k + 1 < own.size(); ++k) {
      const Token& t = toks[own[k]];
      if (t.kind != TokKind::Ident || toks[own[k + 1]].text != "(") continue;
      if (std::find(cfg.sink_names.begin(), cfg.sink_names.end(), t.text) ==
          cfg.sink_names.end()) {
        continue;
      }
      const std::size_t open = own[k + 1];
      if (match[open] < 0) continue;
      const std::size_t close = static_cast<std::size_t>(match[open]);
      const bool guarded = first_guard < open;
      for (std::size_t i = open + 1; i < close; ++i) {
        // Bare `&local` in argument position.
        if (toks[i].text == "&" && i > open &&
            (toks[i - 1].text == "(" || toks[i - 1].text == "," ||
             toks[i - 1].text == "{" || toks[i - 1].text == "=") &&
            i + 2 <= close && toks[i + 1].kind == TokKind::Ident &&
            (toks[i + 2].text == "," || toks[i + 2].text == ")" ||
             toks[i + 2].text == "}")) {
          if (locals.count(toks[i + 1].text) != 0u && !guarded) {
            emit("coro-frame-escape", toks[i].line, fn,
                 "address of frame local '" + toks[i + 1].text +
                     "' escapes into '" + t.text +
                     "(...)'; if this coroutine frame is destroyed first, the "
                     "consumer writes through a dangling pointer (the parked-"
                     "BLPOP bug class) -- copy the value or guard the frame "
                     "with a shared liveness flag (LiveGuard)");
          }
        }
        // A by-reference-capturing lambda queued into a sink.
        if (toks[i].text == "[" && (toks[i - 1].text == "(" || toks[i - 1].text == ",") &&
            match[i] > 0) {
          const auto caps_end = static_cast<std::size_t>(match[i]);
          for (std::size_t c = i + 1; c < caps_end; ++c) {
            if (toks[c].text == "&" && !guarded) {
              emit("coro-frame-escape", toks[i].line, fn,
                   "callback handed to '" + t.text +
                       "(...)' captures coroutine-frame state by reference; "
                       "the callback can outlive this frame -- capture by "
                       "value or guard with a shared liveness flag");
              break;
            }
          }
          i = caps_end;
        }
      }
    }
  }

  // --- perf family (hot-alloc, hot-arg-copy, hot-relookup) -------------------

  /// Own body tokens with `CHASE_*(...)` argument groups removed: assertion
  /// failure paths are allowed to build strings / allocate, deliberately.
  std::vector<std::size_t> own_hot_tokens(const Fn& fn) const {
    std::vector<std::size_t> own;
    for_own_tokens(fn, [&](std::size_t i) { own.push_back(i); });
    std::vector<std::size_t> out;
    out.reserve(own.size());
    for (std::size_t k = 0; k < own.size(); ++k) {
      const Token& t = toks[own[k]];
      if (t.kind == TokKind::Ident && t.text.rfind("CHASE_", 0) == 0 &&
          k + 1 < own.size() && toks[own[k + 1]].text == "(" &&
          match[own[k + 1]] > 0) {
        const auto close = static_cast<std::size_t>(match[own[k + 1]]);
        while (k + 1 < own.size() && own[k + 1] <= close) ++k;
        continue;
      }
      out.push_back(own[k]);
    }
    return out;
  }

  bool is_expensive_type(const std::string& s) const {
    static const std::unordered_set<std::string> kBuiltin = {
        "string", "wstring", "basic_string", "vector",        "deque",
        "list",   "map",     "multimap",     "unordered_map", "set",
        "multiset", "unordered_set", "function"};
    if (std::find(cfg.allow_copy_types.begin(), cfg.allow_copy_types.end(), s) !=
        cfg.allow_copy_types.end()) {
      return false;
    }
    return kBuiltin.count(s) != 0u ||
           std::find(cfg.expensive_types.begin(), cfg.expensive_types.end(), s) !=
               cfg.expensive_types.end();
  }

  // --- check: hot-alloc ------------------------------------------------------

  void check_hot_alloc(const Fn& fn) {
    static const std::unordered_set<std::string> kAllocCalls = {
        "make_shared", "make_unique", "make_shared_for_overwrite",
        "make_unique_for_overwrite"};
    const std::vector<std::size_t> own = own_hot_tokens(fn);
    for (std::size_t k = 0; k < own.size(); ++k) {
      const Token& t = toks[own[k]];
      const Token* nx = k + 1 < own.size() ? &toks[own[k + 1]] : nullptr;
      if (t.kind == TokKind::Ident) {
        if (t.text == "new") {
          emit("hot-alloc", t.line, fn,
               "operator new on the hot path; every dispatched event pays this "
               "allocation -- pool the object, use inline storage, or hoist "
               "the allocation out of the steady state");
          continue;
        }
        if (kAllocCalls.count(t.text) != 0u && nx != nullptr &&
            (nx->text == "<" || nx->text == "(")) {
          emit("hot-alloc", t.line, fn,
               "std::" + t.text + " on the hot path allocates per call -- "
               "reuse a pooled object or construct once outside the loop");
          continue;
        }
        if (t.text == "function" && k >= 2 && toks[own[k - 1]].text == "::" &&
            toks[own[k - 2]].text == "std") {
          emit("hot-alloc", t.line, fn,
               "std::function constructed on the hot path; captures beyond "
               "the small-buffer limit heap-allocate -- use util::SmallFn, a "
               "template parameter, or a plain function pointer");
          continue;
        }
        if ((t.text == "push_back" || t.text == "emplace_back") && nx != nullptr &&
            nx->text == "(" && k >= 2 &&
            (toks[own[k - 1]].text == "." || toks[own[k - 1]].text == "->") &&
            toks[own[k - 2]].kind == TokKind::Ident) {
          const std::string& recv = toks[own[k - 2]].text;
          if (reserved_names.count(recv) == 0u) {
            emit("hot-alloc", t.line, fn,
                 "'" + recv + "." + t.text + "' with no visible '" + recv +
                     ".reserve(...)' anywhere in this file; steady-state "
                     "growth reallocates on the hot path -- reserve capacity "
                     "up front");
          }
          continue;
        }
      }
      if (t.kind == TokKind::Punct && (t.text == "+" || t.text == "+=")) {
        const Token* pv = k > 0 ? &toks[own[k - 1]] : nullptr;
        const bool str_adjacent = (pv != nullptr && pv->kind == TokKind::Str) ||
                                  (nx != nullptr && nx->kind == TokKind::Str);
        const bool to_string_next =
            nx != nullptr &&
            (nx->text == "to_string" ||
             (nx->text == "std" && k + 3 < own.size() &&
              toks[own[k + 3]].text == "to_string"));
        if (str_adjacent || to_string_next) {
          emit("hot-alloc", t.line, fn,
               "string concatenation on the hot path allocates a temporary "
               "per call -- build the string once outside the loop, or write "
               "into a reused buffer");
        }
      }
    }
  }

  // --- check: hot-arg-copy ---------------------------------------------------

  /// By-value expensive parameters of hot *non-coroutine* functions.
  /// Coroutine parameters are exempt by design: the coro-* family requires
  /// owning by-value parameters, and lifetime safety beats one copy.
  void check_hot_param_copies(const Fn& fn) {
    for (auto [pb, pe] : split_params(fn.params_begin, fn.params_end)) {
      if (pb >= pe) continue;
      int depth = 0;
      int angle = 0;
      bool by_value = true;
      std::string type_ident;
      std::string name;
      for (std::size_t i = pb; i < pe; ++i) {
        const std::string& s = toks[i].text;
        if (s == "(" || s == "[" || s == "{") ++depth;
        if (s == ")" || s == "]" || s == "}") --depth;
        if (s == "<" && i > pb &&
            (toks[i - 1].kind == TokKind::Ident || toks[i - 1].text == ">")) {
          ++angle;
        } else if (s == ">" && angle > 0) {
          --angle;
        } else if (s == ">>" && angle > 0) {
          angle = std::max(0, angle - 2);
        }
        if (depth != 0 || angle != 0) continue;
        if (s == "=") break;  // default argument
        if (s == "&" || s == "&&" || s == "*" || s == "...") by_value = false;
        if (toks[i].kind == TokKind::Ident && kTypeishExcluded.count(s) == 0u &&
            s != "std") {
          if (type_ident.empty()) type_ident = s;
          name = s;
        }
      }
      if (by_value && is_expensive_type(type_ident)) {
        emit("hot-arg-copy", toks[pb].line, fn,
             "parameter '" + name + "' of hot function '" + fn.name +
                 "' takes a " + type_ident + " by value; every call on the "
                 "hot path deep-copies it -- take const& (non-coroutine "
                 "callees only), or allow-copy-type it with a justification");
      }
    }
  }

  /// Expensive-type locals copy-initialised from a plain lvalue chain
  /// (`std::vector<int> v = other.member;` — no call, no std::move).
  void check_hot_copy_init(const Fn& fn) {
    const std::vector<std::size_t> own = own_hot_tokens(fn);
    for (std::size_t k = 0; k < own.size(); ++k) {
      const Token& t = toks[own[k]];
      if (t.kind != TokKind::Ident || !is_expensive_type(t.text)) continue;
      // Template arguments, then the declared name, then '='.
      std::size_t j = k + 1;
      if (j < own.size() && toks[own[j]].text == "<") {
        int angle = 1;
        ++j;
        while (j < own.size() && angle > 0) {
          const std::string& s = toks[own[j]].text;
          if (s == "<") ++angle;
          if (s == ">") --angle;
          if (s == ">>") angle -= 2;
          ++j;
        }
      }
      if (j >= own.size() || toks[own[j]].kind != TokKind::Ident) continue;
      const std::string decl_name = toks[own[j]].text;
      if (j + 1 >= own.size() || toks[own[j + 1]].text != "=") continue;
      bool plain_lvalue = true;
      bool any_ident = false;
      std::size_t m = j + 2;
      for (; m < own.size() && toks[own[m]].text != ";"; ++m) {
        const Token& x = toks[own[m]];
        if (x.kind == TokKind::Ident) {
          if (x.text == "move") {
            plain_lvalue = false;  // std::move(...) transfers, no deep copy
            break;
          }
          any_ident = true;
          continue;
        }
        if (x.kind == TokKind::Punct &&
            (x.text == "." || x.text == "->" || x.text == "::" ||
             x.text == "[" || x.text == "]")) {
          continue;
        }
        plain_lvalue = false;  // a call or expression: likely constructs in place
        break;
      }
      if (plain_lvalue && any_ident && m < own.size()) {
        emit("hot-arg-copy", toks[own[j]].line, fn,
             "'" + decl_name + "' deep-copies a " + t.text + " on the hot "
             "path -- bind a const& / pointer, or std::move if the source is "
             "dead (copies kept deliberately for lifetime across co_await "
             "need an inline allow with the reason)");
      }
    }
  }

  // --- check: hot-relookup ---------------------------------------------------

  void check_hot_relookup(const Fn& fn) {
    static const std::unordered_set<std::string> kLookupCalls = {
        "at", "find", "count", "contains", "erase"};
    struct Entry {
      int count = 0;
      int depth = 0;
      int first_line = 0;
      bool reported = false;
    };
    std::map<std::pair<std::string, std::string>, Entry> seen;
    const std::vector<std::size_t> own = own_hot_tokens(fn);
    int depth = 0;
    auto single_token_key = [&](std::size_t k) -> const Token* {
      const Token& key = toks[own[k]];
      if (key.kind == TokKind::Ident || key.kind == TokKind::Number ||
          key.kind == TokKind::Str) {
        return &key;
      }
      return nullptr;
    };
    auto record = [&](const std::string& recv, const std::string& key, int line) {
      Entry& e = seen[{recv, key}];
      if (e.count == 0) {
        e.depth = depth;
        e.first_line = line;
      }
      ++e.count;
      if (e.count >= 2 && !e.reported) {
        e.reported = true;
        emit("hot-relookup", line, fn,
             "'" + recv + "' is looked up with key '" + key +
                 "' again in this scope (first at line " +
                 std::to_string(e.first_line) + "); each lookup walks the "
                 "container -- keep the reference/iterator from the first "
                 "lookup");
      }
    };
    for (std::size_t k = 0; k < own.size(); ++k) {
      const std::string& s = toks[own[k]].text;
      if (s == "{") {
        ++depth;
        continue;
      }
      if (s == "}") {
        --depth;
        for (auto it = seen.begin(); it != seen.end();) {
          it = it->second.depth > depth ? seen.erase(it) : std::next(it);
        }
        continue;
      }
      if (toks[own[k]].kind != TokKind::Ident) continue;
      // Key or receiver mutated: forget what we knew about it.
      const bool mutated =
          (k + 1 < own.size() && (toks[own[k + 1]].text == "=" ||
                                  toks[own[k + 1]].text == "+=" ||
                                  toks[own[k + 1]].text == "-=" ||
                                  toks[own[k + 1]].text == "++" ||
                                  toks[own[k + 1]].text == "--")) ||
          (k > 0 && (toks[own[k - 1]].text == "++" || toks[own[k - 1]].text == "--"));
      if (mutated) {
        for (auto it = seen.begin(); it != seen.end();) {
          it = (it->first.first == s || it->first.second == s) ? seen.erase(it)
                                                               : std::next(it);
        }
        continue;
      }
      // Composite receivers (`a.b[k]`) are skipped: `b` alone does not name
      // one container.
      if (k > 0 && (toks[own[k - 1]].text == "." || toks[own[k - 1]].text == "->"))
        continue;
      if (k + 3 < own.size() && toks[own[k + 1]].text == "[" &&
          toks[own[k + 3]].text == "]") {
        if (const Token* key = single_token_key(k + 2)) {
          record(s, key->text, key->line);
        }
        continue;
      }
      if (k + 5 < own.size() &&
          (toks[own[k + 1]].text == "." || toks[own[k + 1]].text == "->") &&
          kLookupCalls.count(toks[own[k + 2]].text) != 0u &&
          toks[own[k + 3]].text == "(" && toks[own[k + 5]].text == ")") {
        if (const Token* key = single_token_key(k + 4)) {
          record(s, key->text, key->line);
        }
      }
    }
  }

  // --- determinism family (det-*) --------------------------------------------
  // These scan the whole token stream: pointer-keyed members and entropy
  // sources live at class scope, outside any function body.

  /// Innermost function whose body contains token `i`, or nullptr at file
  /// scope.
  const Fn* enclosing_fn(std::size_t i) const {
    std::size_t best_size = std::string::npos;
    const Fn* best = nullptr;
    for (const Fn& fn : fns) {
      if (fn.body_begin <= i && i < fn.body_end) {
        const std::size_t size = fn.body_end - fn.body_begin;
        if (size < best_size) {
          best_size = size;
          best = &fn;
        }
      }
    }
    return best;
  }

  std::string enclosing_fn_name(std::size_t i) const {
    const Fn* fn = enclosing_fn(i);
    return fn != nullptr ? fn->name : std::string();
  }

  void emit_at(const char* check, std::size_t tok_idx, std::string message) {
    findings.push_back(Finding{check, path, toks[tok_idx].line,
                               enclosing_fn_name(tok_idx), std::move(message)});
  }

  /// From the '<' at `open`, index of the matching '>' (or the '>>' that
  /// closes it), handling nested angles and stepping over (){}[] groups.
  /// npos when this '<' turns out to be a comparison (hits ';' first).
  std::size_t close_angle(std::size_t open) const {
    int angle = 0;
    std::size_t j = open;
    while (j < toks.size()) {
      const std::string& s = toks[j].text;
      if (s == "(" || s == "[" || s == "{") {
        j = skip_group(j);
        continue;
      }
      if (s == ";") return std::string::npos;
      if (s == "<") {
        ++angle;
      } else if (s == ">") {
        if (--angle == 0) return j;
      } else if (s == ">>") {
        angle -= 2;
        if (angle <= 0) return j;
      }
      ++j;
    }
    return std::string::npos;
  }

  /// Walk back from `end` (exclusive) to the base identifier of a postfix
  /// chain: `a.b[i]` -> a for lhs-of-assignment bases (outward walk), or the
  /// *terminal* member for sort keys (`a.score()` -> score) when
  /// `want_terminal`. Empty string when the shape is not a simple chain.
  std::string chain_ident(std::size_t begin, std::size_t end, bool want_terminal) const {
    std::size_t j = end;
    std::string found;
    while (j > begin) {
      --j;
      const std::string& s = toks[j].text;
      if (s == ")" || s == "]") {
        if (match[j] < 0 || static_cast<std::size_t>(match[j]) < begin) return {};
        j = static_cast<std::size_t>(match[j]);
        continue;
      }
      if (toks[j].kind == TokKind::Ident) {
        found = s;
        if (want_terminal) return found;
        // Keep walking outward over `.` / `->` / `::` to the chain base.
        if (j >= 2 && (toks[j - 1].text == "." || toks[j - 1].text == "->" ||
                       toks[j - 1].text == "::")) {
          --j;  // land on the separator; loop steps to the previous component
          continue;
        }
        return found;
      }
      return found;
    }
    return found;
  }

  // --- check: det-entropy ----------------------------------------------------

  void check_det_entropy() {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Ident) continue;
      const std::string& s = toks[i].text;
      const std::string& prev = i > 0 ? toks[i - 1].text : kEmpty;
      const bool next_call = is(i + 1, "(");
      const bool member = prev == "." || prev == "->";
      const bool std_qualified =
          prev == "::" && i >= 2 && toks[i - 2].text == "std";
      if (s == "random_device" && !member) {
        emit_at("det-entropy", i,
                "std::random_device draws hardware entropy; replay cannot "
                "reproduce it -- seed a util::Rng and thread it through");
        continue;
      }
      if ((s == "system_clock" || s == "steady_clock" ||
           s == "high_resolution_clock") &&
          !member) {
        emit_at("det-entropy", i,
                "std::chrono::" + s + " reads the wall clock; sim logic must "
                "use Simulation::now() so replay is time-independent "
                "(measurement-only uses need an allow with the reason)");
        continue;
      }
      if ((s == "rand" || s == "srand") && next_call && !member &&
          (prev != "::" || std_qualified)) {
        emit_at("det-entropy", i,
                s + "() uses hidden global PRNG state shared across the "
                "process; use a seeded util::Rng owned by the caller");
        continue;
      }
      if (s == "time" && next_call && !member) {
        // `time(...)` is a common method/field name; only the C library
        // call shapes count: std::time(...) or time(nullptr)/time(0).
        const std::size_t open = i + 1;
        const std::size_t close =
            match[open] > 0 ? static_cast<std::size_t>(match[open]) : open;
        const bool null_arg =
            close == open + 2 &&
            (toks[open + 1].text == "nullptr" || toks[open + 1].text == "NULL" ||
             toks[open + 1].text == "0");
        if (std_qualified || (prev != "::" && null_arg)) {
          emit_at("det-entropy", i,
                  "time() reads the wall clock; sim logic must derive time "
                  "from Simulation::now() and seeds from the CLI");
        }
        continue;
      }
      if (s == "clock" && next_call && std_qualified) {
        emit_at("det-entropy", i,
                "std::clock() reads processor time; replay cannot reproduce "
                "it -- use Simulation::now()");
        continue;
      }
      if ((s == "gettimeofday" || s == "clock_gettime") && next_call && !member) {
        emit_at("det-entropy", i,
                s + "() reads the wall clock; use Simulation::now()");
        continue;
      }
    }
  }

  // --- check: det-pointer-order ----------------------------------------------

  /// Names of variables declared as vector<T*> in this file, for the
  /// comparator-less-sort pattern.
  std::unordered_set<std::string> ptr_vector_names() const {
    std::unordered_set<std::string> out;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "vector" || toks[i].kind != TokKind::Ident) continue;
      if (!is(i + 1, "<")) continue;
      const std::size_t close = close_angle(i + 1);
      if (close == std::string::npos) continue;
      // Element type ends in '*' (the token right before the closing angle).
      if (close == 0 || toks[close - 1].text != "*") continue;
      std::size_t j = close + 1;
      while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*" ||
                                 toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::Ident) out.insert(toks[j].text);
    }
    return out;
  }

  void check_det_pointer_order() {
    static const std::unordered_set<std::string> kOrderedByKey = {
        "map", "multimap", "set", "multiset"};
    const std::unordered_set<std::string> ptr_vecs = ptr_vector_names();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Ident) continue;
      const std::string& s = toks[i].text;
      const bool std_scoped = i > 0 && toks[i - 1].text == "::";
      // Pattern A: std::map<T*, ...> / std::set<T*> -- the *key* slot.
      if (kOrderedByKey.count(s) != 0u && std_scoped && is(i + 1, "<")) {
        const std::size_t close = close_angle(i + 1);
        if (close == std::string::npos) continue;
        // End of the first template argument: the first top-level comma,
        // or the closing angle itself.
        int angle = 1;
        std::size_t key_end = close;
        for (std::size_t j = i + 2; j < close;) {
          const std::string& q = toks[j].text;
          if (q == "(" || q == "[" || q == "{") {
            j = skip_group(j);
            continue;
          }
          if (q == "<") ++angle;
          if (q == ">") --angle;
          if (q == ">>") angle -= 2;
          if (q == "," && angle == 1) {
            key_end = j;
            break;
          }
          ++j;
        }
        if (key_end > 0 && toks[key_end - 1].text == "*") {
          emit_at("det-pointer-order", i,
                  "std::" + s + " keyed by a raw pointer iterates in address "
                  "order, which varies under ASLR and allocation history -- "
                  "key by a stable id (fid, uid, (level, id)) instead");
        }
        continue;
      }
      // Pattern B: std::less<T*> as an explicit comparator. std::less<>
      // (transparent) carries no pointer type and stays silent.
      if (s == "less" && std_scoped && is(i + 1, "<")) {
        const std::size_t close = close_angle(i + 1);
        if (close == std::string::npos) continue;
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks[j].text == "*") {
            emit_at("det-pointer-order", i,
                    "std::less over a raw pointer type orders by address -- "
                    "compare stable ids instead");
            break;
          }
        }
        continue;
      }
      // Pattern D: comparator-less sort of a vector<T*>.
      if ((s == "sort" || s == "stable_sort") && is(i + 1, "(") &&
          match[i + 1] > 0) {
        const std::size_t open = i + 1;
        const std::size_t close = static_cast<std::size_t>(match[open]);
        const auto args = split_params(open + 1, close);
        if (args.size() != 2) continue;  // a comparator arg is present
        const std::string base0 = chain_ident(args[0].first, args[0].second, false);
        if (!base0.empty() && ptr_vecs.count(base0) != 0u) {
          emit_at("det-pointer-order", i,
                  "sort of '" + base0 + "' (a vector of raw pointers) with no "
                  "comparator orders by address -- sort by a stable id");
        }
        continue;
      }
    }
    // Pattern C: comparator lambda whose body is exactly `return a < b;`
    // on two pointer parameters.
    for (const Fn& fn : fns) {
      if (!fn.is_lambda) continue;
      const auto params = split_params(fn.params_begin, fn.params_end);
      if (params.size() != 2) continue;
      std::array<std::string, 2> names;
      bool both_ptr = true;
      for (std::size_t p = 0; p < 2; ++p) {
        bool has_star = false;
        for (std::size_t j = params[p].first; j < params[p].second; ++j) {
          if (toks[j].text == "*") has_star = true;
          if (toks[j].kind == TokKind::Ident) names[p] = toks[j].text;
        }
        if (!has_star || names[p].empty()) both_ptr = false;
      }
      if (!both_ptr) continue;
      // Body shape: return <a> (<|>) <b> ;
      if (fn.body_end - fn.body_begin != 5) continue;
      const std::size_t b = fn.body_begin;
      if (toks[b].text == "return" &&
          (toks[b + 2].text == "<" || toks[b + 2].text == ">") &&
          toks[b + 4].text == ";" &&
          ((toks[b + 1].text == names[0] && toks[b + 3].text == names[1]) ||
           (toks[b + 1].text == names[1] && toks[b + 3].text == names[0]))) {
        emit_at("det-pointer-order", b + 2,
                "comparator orders raw pointers '" + names[0] + "' and '" +
                    names[1] + "' by address -- compare a stable id field "
                    "with a tiebreak instead");
      }
    }
  }

  // --- check: det-float-tiebreak ---------------------------------------------

  /// Names this file declares with float/double (locals, members, and
  /// `double name()` getters), plus the policy's cross-file `float-key`s.
  std::unordered_set<std::string> float_names() const {
    static const std::unordered_set<std::string> kFollows = {
        "=", ";", ",", ")", "{", ":", "("};
    std::unordered_set<std::string> out(cfg.float_keys.begin(),
                                        cfg.float_keys.end());
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "float" && toks[i].text != "double") continue;
      std::size_t j = i + 1;
      while (j < toks.size() && (toks[j].text == "const" || toks[j].text == "*" ||
                                 toks[j].text == "&")) {
        ++j;
      }
      if (j + 1 < toks.size() && toks[j].kind == TokKind::Ident &&
          kFollows.count(toks[j + 1].text) != 0u) {
        out.insert(toks[j].text);
      }
    }
    return out;
  }

  void check_det_float_tiebreak() {
    static const std::unordered_set<std::string> kSortCalls = {
        "sort",      "stable_sort", "partial_sort", "nth_element",
        "make_heap", "push_heap",   "pop_heap",     "sort_heap"};
    const std::unordered_set<std::string> floats = float_names();

    // Lambdas bound to a name (`auto by_x = [...]`), so named comparators
    // passed to sort calls are analyzed too.
    std::map<std::string, std::size_t> named_lambda;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const Fn& fn = fns[f];
      if (!fn.is_lambda || fn.intro < 2) continue;
      if (toks[fn.intro - 1].text == "=" &&
          toks[fn.intro - 2].kind == TokKind::Ident) {
        named_lambda[toks[fn.intro - 2].text] = f;
      }
    }

    // Collect comparator-position lambdas: direct lambda args of sort
    // calls, plus named lambdas passed by name.
    std::unordered_set<std::size_t> comparators;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Ident || kSortCalls.count(toks[i].text) == 0u)
        continue;
      if (!is(i + 1, "(") || match[i + 1] < 0) continue;
      const std::size_t open = i + 1;
      const std::size_t close = static_cast<std::size_t>(match[open]);
      for (const auto& [ab, ae] : split_params(open + 1, close)) {
        if (ae - ab == 1 && toks[ab].kind == TokKind::Ident) {
          const auto it = named_lambda.find(toks[ab].text);
          if (it != named_lambda.end()) comparators.insert(it->second);
        }
      }
      for (std::size_t f = 0; f < fns.size(); ++f) {
        if (!fns[f].is_lambda) continue;
        // Direct argument: the lambda's introducer sits at this call's top
        // level (skip_group jumps over nested groups without entering them).
        std::size_t j = open + 1;
        while (j < close) {
          if (j == fns[f].intro) {
            comparators.insert(f);
            break;
          }
          j = (match[j] > static_cast<std::ptrdiff_t>(j)) ? skip_group(j) : j + 1;
        }
      }
    }

    for (std::size_t f : comparators) {
      const Fn& fn = fns[f];
      // Parameter names, to exempt value-sorts of raw floats (`return a < b`
      // on double params: equal keys are identical values, order among them
      // is unobservable).
      std::unordered_set<std::string> param_names;
      for (const auto& [pb, pe] : split_params(fn.params_begin, fn.params_end)) {
        for (std::size_t j = pe; j > pb;) {
          --j;
          if (toks[j].kind == TokKind::Ident) {
            param_names.insert(toks[j].text);
            break;
          }
        }
      }
      // One return, one comparison, no tiebreak machinery.
      std::size_t ret = std::string::npos;
      int returns = 0;
      for (std::size_t j = fn.body_begin; j < fn.body_end; ++j) {
        if (toks[j].text == "return") {
          ++returns;
          ret = j;
        }
      }
      if (returns != 1) continue;  // multiple returns = the tiebreak idiom
      std::size_t semi = ret;
      while (semi < fn.body_end && toks[semi].text != ";") ++semi;
      std::size_t cmp = std::string::npos;
      bool disqualified = false;
      for (std::size_t j = ret + 1; j < semi; ++j) {
        const std::string& q = toks[j].text;
        if (q == "<" || q == ">") {
          if (cmp != std::string::npos) disqualified = true;
          cmp = j;
        }
        if (q == "==" || q == "!=" || q == "&&" || q == "||" || q == "," ||
            q == "?" || q == "tie") {
          disqualified = true;
        }
      }
      if (disqualified || cmp == std::string::npos) continue;
      const std::string key = chain_ident(ret + 1, cmp, /*want_terminal=*/true);
      if (key.empty() || floats.count(key) == 0u) continue;
      const bool bare_param_value =
          cmp == ret + 2 && param_names.count(toks[ret + 1].text) != 0u;
      if (bare_param_value) continue;
      emit_at("det-float-tiebreak", cmp,
              "comparator's only sort key '" + key + "' is floating-point; "
              "equal keys leave the final order input/implementation "
              "dependent -- add an integral id tiebreak (the (cap,fid) / "
              "(level, link id) idiom)");
    }
  }

  // --- check: det-unordered-iter ---------------------------------------------

  std::unordered_set<std::string> unordered_container_names() const {
    std::unordered_set<std::string> types = {"unordered_map", "unordered_set",
                                             "unordered_multimap",
                                             "unordered_multiset"};
    // Aliases: `using Name = ...unordered_...;`.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].text != "using" || toks[i + 1].kind != TokKind::Ident ||
          toks[i + 2].text != "=") {
        continue;
      }
      for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
        if (types.count(toks[j].text) != 0u) {
          types.insert(toks[i + 1].text);
          break;
        }
      }
    }
    std::unordered_set<std::string> out;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Ident || types.count(toks[i].text) == 0u)
        continue;
      std::size_t j = i + 1;
      if (is(j, "<")) {
        const std::size_t close = close_angle(j);
        if (close == std::string::npos) continue;
        j = close + 1;
      }
      while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*" ||
                                 toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::Ident) out.insert(toks[j].text);
    }
    return out;
  }

  /// Scan a loop body [b, e) for an observable effect given the set of
  /// loop-local names. Returns the token index of the first effect, or npos.
  std::size_t find_loop_effect(std::size_t b, std::size_t e,
                               std::unordered_set<std::string>& locals) const {
    static const std::unordered_set<std::string> kEffectCalls = {
        "push_back",  "emplace_back", "push_front", "emplace_front",
        "push",       "pop",          "pop_back",   "pop_front",
        "insert",     "erase",        "emplace",    "schedule",
        "enqueue",    "send",         "record",     "destroy",
        "resume",     "clear",        "reset",      "notify",
        "post",       "write",        "append",     "add",
        "remove",     "log"};
    static const std::unordered_set<std::string> kAssignOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    // First pass: collect locals declared inside the body (`Type name =`,
    // `auto name =`), so writes to them do not count as effects.
    for (std::size_t j = b; j + 1 < e; ++j) {
      if (toks[j].kind != TokKind::Ident || j == b) continue;
      const Token& prev = toks[j - 1];
      const std::string& next = toks[j + 1].text;
      const bool declish =
          (prev.kind == TokKind::Ident && kNonFunctionNames.count(prev.text) == 0u) ||
          prev.text == ">" || prev.text == "*" || prev.text == "&";
      if (declish && (next == "=" || next == ";" || next == "{")) {
        locals.insert(toks[j].text);
      }
    }
    for (std::size_t j = b; j < e; ++j) {
      const Token& t = toks[j];
      if (is_coro_keyword(t)) return j;  // schedules/suspends: order observable
      if (t.text == "<<") return j;      // stream output
      if (t.kind == TokKind::Ident && kEffectCalls.count(t.text) != 0u &&
          is(j + 1, "(")) {
        // Effectful call -- unless the receiver is a loop-local (building
        // per-iteration scratch state that dies with the iteration).
        if (j >= 2 && (toks[j - 1].text == "." || toks[j - 1].text == "->")) {
          const std::string recv = chain_ident(b, j - 1, /*want_terminal=*/false);
          if (!recv.empty() && locals.count(recv) != 0u) continue;
        }
        return j;
      }
      if (t.kind == TokKind::Punct && kAssignOps.count(t.text) != 0u && j > b) {
        // `found = true;` is the membership-flag idiom: assigning a lone
        // constant is order-independent (the result only records that some
        // element matched), so only non-constant RHS counts as an effect.
        const bool const_rhs =
            t.text == "=" && j + 2 < e && toks[j + 2].text == ";" &&
            (toks[j + 1].kind == TokKind::Number ||
             toks[j + 1].text == "true" || toks[j + 1].text == "false" ||
             toks[j + 1].text == "nullptr");
        if (const_rhs) continue;
        const std::string base = chain_ident(b, j, /*want_terminal=*/false);
        if (!base.empty() && locals.count(base) == 0u) return j;
        continue;
      }
      if ((t.text == "++" || t.text == "--")) {
        std::string base;
        if (j + 1 < e && toks[j + 1].kind == TokKind::Ident) {
          base = toks[j + 1].text;  // pre-increment
        } else if (j > b) {
          base = chain_ident(b, j, /*want_terminal=*/false);  // post-increment
        }
        if (!base.empty() && locals.count(base) == 0u) return j;
      }
    }
    return std::string::npos;
  }

  void check_det_unordered_iter() {
    const std::unordered_set<std::string> unordered = unordered_container_names();
    if (unordered.empty() && cfg.allow_unordered.empty()) return;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "for" || !is(i + 1, "(") || match[i + 1] < 0) continue;
      const std::size_t open = i + 1;
      const std::size_t close = static_cast<std::size_t>(match[open]);
      // Find the range-for ':' (a ';' first means a classic for).
      std::size_t colon = std::string::npos;
      bool classic = false;
      for (std::size_t j = open + 1; j < close;) {
        const std::string& s = toks[j].text;
        if (s == ";") {
          classic = true;
          break;
        }
        if (s == ":") {
          colon = j;
          break;
        }
        j = skip_group(j);
      }
      std::string base;
      std::unordered_set<std::string> locals;
      if (colon != std::string::npos) {
        // Range expression must be a plain identifier chain (a call result
        // is somebody else's snapshot, not a live unordered container).
        bool simple = true;
        for (std::size_t j = colon + 1; j < close; ++j) {
          const Token& t = toks[j];
          if (t.kind == TokKind::Ident) {
            base = t.text;
            continue;
          }
          if (t.text == "." || t.text == "->" || t.text == "::") continue;
          simple = false;
          break;
        }
        if (!simple || base.empty()) continue;
        // Loop variable / structured-binding names are loop-local.
        for (std::size_t j = open + 1; j < colon; ++j) {
          if (toks[j].kind == TokKind::Ident &&
              kTypeishExcluded.count(toks[j].text) == 0u) {
            locals.insert(toks[j].text);
          }
        }
      } else if (classic) {
        // Iterator loop: `for (auto it = X.begin(); ...)` over unordered X.
        for (std::size_t j = open + 1; j + 3 < close; ++j) {
          if (toks[j].kind == TokKind::Ident &&
              (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
              (toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin") &&
              toks[j + 3].text == "(") {
            base = toks[j].text;
            break;
          }
          if (toks[j].text == ";") break;  // only the init statement
        }
        if (base.empty()) continue;
        for (std::size_t j = open + 1; j < close; ++j) {
          if (toks[j].kind == TokKind::Ident &&
              kTypeishExcluded.count(toks[j].text) == 0u) {
            locals.insert(toks[j].text);
          }
        }
      } else {
        continue;
      }
      // Policy escape: allow-unordered names containers whose iteration
      // effects are provably order-independent. Matched by name *before*
      // the per-file classification gate, because the exempted container is
      // typically a member declared in a header this file never shows the
      // analyzer (Simulation::detached_).
      bool allowed = false;
      for (std::size_t a = 0; a < cfg.allow_unordered.size(); ++a) {
        if (cfg.allow_unordered[a].name == base) {
          allowed = true;
          if (allow_unordered_used != nullptr) (*allow_unordered_used)[a] = 1;
          break;
        }
      }
      if (allowed) continue;
      // Per-file type approximation: only names this file declares (or
      // aliases) as unordered are classified. Cross-file unordered members
      // are out of reach by design -- the repo convention is std::map for
      // anything iterated, and the replay oracle catches the rest.
      if (unordered.count(base) == 0u) continue;
      // Body: the brace group after ')', or a single statement.
      std::size_t body_b = close + 1;
      std::size_t body_e;
      if (is(body_b, "{") && match[body_b] > 0) {
        body_e = static_cast<std::size_t>(match[body_b]);
        ++body_b;
      } else {
        body_e = find_stmt_end(body_b, toks.size());
      }
      const std::size_t effect = find_loop_effect(body_b, body_e, locals);
      if (effect == std::string::npos) continue;
      // The sorted-snapshot idiom: a loop that only collects elements into
      // a container which is std::sort'ed later in the same function has
      // imposed a total order before anything observable happens.
      static const std::unordered_set<std::string> kCollects = {
          "push_back", "emplace_back", "insert", "push", "emplace"};
      bool snapshot = false;
      if (toks[effect].kind == TokKind::Ident &&
          kCollects.count(toks[effect].text) != 0u && effect >= 2 &&
          (toks[effect - 1].text == "." || toks[effect - 1].text == "->")) {
        const std::string recv =
            chain_ident(body_b, effect - 1, /*want_terminal=*/false);
        const Fn* fn = enclosing_fn(i);
        if (!recv.empty() && fn != nullptr) {
          for (std::size_t j = body_e; j + 1 < fn->body_end && !snapshot; ++j) {
            if ((toks[j].text == "sort" || toks[j].text == "stable_sort") &&
                is(j + 1, "(") && match[j + 1] > 0) {
              const auto sort_close = static_cast<std::size_t>(match[j + 1]);
              for (std::size_t m = j + 2; m < sort_close; ++m) {
                if (toks[m].text == recv) {
                  snapshot = true;
                  break;
                }
              }
            }
          }
        }
      }
      if (!snapshot) {
        emit_at("det-unordered-iter", i,
                "iteration over unordered container '" + base + "' has an "
                "observable effect at line " + std::to_string(toks[effect].line) +
                "; bucket order is implementation-defined, so replay and "
                "cross-platform runs diverge -- use std::map, iterate a "
                "sorted snapshot, or justify with allow-unordered");
      }
    }
  }

  // --- allow-file policy -----------------------------------------------------

  void apply_allow_files() {
    if (cfg.allow_files.empty()) return;
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding& f : findings) {
      bool suppressed = false;
      for (std::size_t i = 0; i < cfg.allow_files.size(); ++i) {
        const AllowFile& af = cfg.allow_files[i];
        if (af.check == f.check && glob_match(af.glob, path)) {
          suppressed = true;
          if (allow_file_used != nullptr) (*allow_file_used)[i] = 1;
          break;
        }
      }
      if (!suppressed) kept.push_back(std::move(f));
    }
    findings = std::move(kept);
  }

  // --- suppressions ----------------------------------------------------------

  struct Suppression {
    int line = 0;
    std::vector<std::string> checks;
    bool used = false;
  };

  void apply_suppressions() {
    std::vector<Suppression> sups;
    for (const Comment& c : comments) {
      // Only comments *starting* with the marker are suppressions, so prose
      // that merely mentions the syntax (docs, this file) stays inert.
      if (c.text.rfind("chase-lint:", 0) != 0) continue;
      std::string rest = c.text.substr(11);
      const std::size_t a = rest.find("allow(");
      const std::size_t z = rest.find(')');
      if (a == std::string::npos || z == std::string::npos || z < a) {
        findings.push_back(Finding{"lint-suppression", path, c.line, "",
                                   "malformed suppression; expected "
                                   "'chase-lint: allow(<check>) <justification>'"});
        continue;
      }
      Suppression sup;
      sup.line = c.line;
      std::stringstream names(rest.substr(a + 6, z - a - 6));
      std::string name;
      bool ok = true;
      while (std::getline(names, name, ',')) {
        name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
        if (std::find(check_names().begin(), check_names().end(), name) ==
            check_names().end()) {
          findings.push_back(Finding{"lint-suppression", path, c.line, "",
                                     "suppression names unknown check '" + name +
                                         "' (see --list-checks)"});
          ok = false;
          continue;
        }
        sup.checks.push_back(name);
      }
      std::string just = rest.substr(z + 1);
      const std::size_t first = just.find_first_not_of(" \t:-");
      if (first == std::string::npos) {
        findings.push_back(
            Finding{"lint-suppression", path, c.line, "",
                    "suppression has no written justification; say *why* the "
                    "lifetime is safe, e.g. '// chase-lint: allow(coro-stale-"
                    "ref) map is not mutated while this step runs'"});
        ok = false;
      }
      if (ok && !sup.checks.empty()) sups.push_back(std::move(sup));
    }

    std::vector<Finding> kept;
    for (Finding& f : findings) {
      bool suppressed = false;
      for (Suppression& s : sups) {
        if ((s.line == f.line || s.line + 1 == f.line) &&
            std::find(s.checks.begin(), s.checks.end(), f.check) != s.checks.end()) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
      if (!suppressed) kept.push_back(std::move(f));
    }
    findings = std::move(kept);
    for (const Suppression& s : sups) {
      if (!s.used) {
        findings.push_back(Finding{"lint-suppression", path, s.line, "",
                                   "suppression no longer matches any finding; "
                                   "delete it so dead allows cannot mask future "
                                   "regressions"});
      }
    }
  }

  std::vector<Finding> run() {
    build_match();
    find_named_functions();
    find_lambdas();
    link_and_classify();
    // Receivers with a visible reserve() anywhere in this file, for the
    // push_back heuristic (the reserve typically lives in a constructor).
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind == TokKind::Ident &&
          (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
          toks[i + 2].text == "reserve") {
        reserved_names.insert(toks[i].text);
      }
    }
    for (const Fn& fn : fns) {
      if (!fn.is_coroutine) continue;
      check_ref_params(fn);
      if (fn.is_lambda) check_lambda_captures(fn);
      check_stale_refs(fn);
      check_frame_escape(fn);
    }
    for (const Fn& fn : fns) {
      if (!fn.is_hot) continue;
      check_hot_alloc(fn);
      if (!fn.is_coroutine) check_hot_param_copies(fn);
      check_hot_copy_init(fn);
      check_hot_relookup(fn);
    }
    check_det_entropy();
    check_det_pointer_order();
    check_det_float_tiebreak();
    check_det_unordered_iter();
    apply_allow_files();
    apply_suppressions();
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.check < b.check;
              });
    return std::move(findings);
  }
};

}  // namespace

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> kNames = {
      "coro-ref-param", "coro-lambda-capture", "coro-stale-ref",
      "coro-frame-escape", "lint-suppression", "hot-alloc", "hot-arg-copy",
      "hot-relookup", "det-unordered-iter", "det-pointer-order",
      "det-float-tiebreak", "det-entropy"};
  return kNames;
}

const char* check_description(const std::string& check) {
  if (check == "coro-ref-param")
    return "coroutine parameter passed by reference or as a view type";
  if (check == "coro-lambda-capture")
    return "coroutine lambda capturing by reference or 'this'";
  if (check == "coro-stale-ref")
    return "container reference/iterator bound before co_await, used after";
  if (check == "coro-frame-escape")
    return "address of a frame local escapes into a queue/callback sink";
  if (check == "lint-suppression")
    return "malformed, unjustified, or unused lint suppression";
  if (check == "hot-alloc")
    return "heap allocation on the hot path";
  if (check == "hot-arg-copy")
    return "expensive by-value parameter or deep copy in a hot function";
  if (check == "hot-relookup")
    return "same container looked up twice with the same key in one scope";
  if (check == "det-unordered-iter")
    return "iteration over an unordered container with observable effects";
  if (check == "det-pointer-order")
    return "ordered container, comparator, or sort keyed by raw pointer values";
  if (check == "det-float-tiebreak")
    return "sort/heap comparator whose only key is floating-point, no tiebreak";
  if (check == "det-entropy")
    return "wall-clock or hardware entropy outside util::Rng and the sim clock";
  return "chase_lint check";
}

bool glob_match(std::string_view glob, std::string_view path) {
  // Iterative wildcard match with single-star backtracking.
  auto match_impl = [](std::string_view g, std::string_view s) {
    std::size_t gi = 0, si = 0;
    std::size_t star_g = std::string_view::npos, star_s = 0;
    while (si < s.size()) {
      if (gi < g.size() && (g[gi] == '?' || g[gi] == s[si])) {
        ++gi;
        ++si;
      } else if (gi < g.size() && g[gi] == '*') {
        star_g = gi++;
        star_s = si;
      } else if (star_g != std::string_view::npos) {
        gi = star_g + 1;
        si = ++star_s;
      } else {
        return false;
      }
    }
    while (gi < g.size() && g[gi] == '*') ++gi;
    return gi == g.size();
  };
  if (match_impl(glob, path)) return true;
  if (glob.find('/') == std::string_view::npos) {
    const std::size_t slash = path.rfind('/');
    if (slash != std::string_view::npos && match_impl(glob, path.substr(slash + 1)))
      return true;
  } else if (!glob.empty() && glob.front() != '/' && glob.front() != '*') {
    // `src/viz/*` should match the path however the walk was rooted.
    std::string anchored = "*/";
    anchored += glob;
    return match_impl(anchored, path);
  }
  return false;
}

Config default_config() {
  Config cfg;
  cfg.guard_types = {"LiveGuard"};
  cfg.sink_names = {"push_back",  "emplace_back", "push_front", "emplace_front",
                    "push",       "emplace",      "insert",     "enqueue",
                    "schedule",   "subscribe",    "set_trace_hook",
                    "add_audit_hook", "set_callback", "register_callback"};
  return cfg;
}

bool load_config(const std::string& path, Config* cfg, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open config file: " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::stringstream ss(line);
    std::string key;
    std::string value;
    if (!(ss >> key)) continue;
    if (!(ss >> value)) {
      *error = path + ":" + std::to_string(line_no) + ": '" + key + "' needs a value";
      return false;
    }
    if (key == "allow-ref-type") {
      cfg->allow_ref_types.push_back(value);
    } else if (key == "guard-type") {
      cfg->guard_types.push_back(value);
    } else if (key == "sink") {
      cfg->sink_names.push_back(value);
    } else if (key == "exclude") {
      cfg->exclude_paths.push_back(value);
    } else if (key == "hot-path") {
      cfg->hot_paths.push_back(value);
    } else if (key == "hot-function") {
      cfg->hot_functions.push_back(value);
      cfg->hot_function_lines.push_back(line_no);
    } else if (key == "expensive-type") {
      cfg->expensive_types.push_back(value);
    } else if (key == "allow-copy-type") {
      cfg->allow_copy_types.push_back(value);
    } else if (key == "allow-file") {
      std::string check;
      if (!(ss >> check) || check.size() < 3 || check.front() != '(' ||
          check.back() != ')') {
        *error = path + ":" + std::to_string(line_no) +
                 ": allow-file needs '(<check>)' after the glob";
        return false;
      }
      check = check.substr(1, check.size() - 2);
      if (std::find(check_names().begin(), check_names().end(), check) ==
          check_names().end()) {
        *error = path + ":" + std::to_string(line_no) +
                 ": allow-file names unknown check '" + check + "'";
        return false;
      }
      std::string why;
      std::getline(ss, why);
      const std::size_t first = why.find_first_not_of(" \t");
      why = first == std::string::npos ? std::string() : why.substr(first);
      if (why.empty()) {
        *error = path + ":" + std::to_string(line_no) +
                 ": allow-file has no written justification; say *why* the "
                 "whole file/directory is exempt";
        return false;
      }
      cfg->allow_files.push_back(AllowFile{value, check, why, line_no});
    } else if (key == "allow-unordered") {
      std::string why;
      std::getline(ss, why);
      const std::size_t first = why.find_first_not_of(" \t");
      why = first == std::string::npos ? std::string() : why.substr(first);
      if (why.empty()) {
        *error = path + ":" + std::to_string(line_no) +
                 ": allow-unordered has no written justification; say *why* "
                 "iteration order over this container is unobservable";
        return false;
      }
      cfg->allow_unordered.push_back(AllowUnordered{value, why, line_no});
    } else if (key == "float-key") {
      cfg->float_keys.push_back(value);
    } else {
      *error = path + ":" + std::to_string(line_no) + ": unknown directive '" + key +
               "' (allow-ref-type | guard-type | sink | exclude | hot-path | "
               "hot-function | expensive-type | allow-copy-type | allow-file | "
               "allow-unordered | float-key)";
      return false;
    }
  }
  return true;
}

std::vector<Finding> analyze_source(const std::string& path, std::string_view source,
                                    const Config& cfg,
                                    std::vector<char>* allow_file_used,
                                    std::vector<char>* allow_unordered_used,
                                    std::vector<char>* hot_function_used) {
  Analyzer analyzer(path, lex(source), cfg);
  analyzer.allow_file_used = allow_file_used;
  analyzer.allow_unordered_used = allow_unordered_used;
  analyzer.hot_function_used = hot_function_used;
  return analyzer.run();
}

std::uint64_t fingerprint(const Finding& f) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      // Digits are skipped so line references inside messages do not churn
      // the baseline when unrelated code moves.
      if (c >= '0' && c <= '9') continue;
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  mix(f.check);
  mix(f.file);
  mix(f.function);
  mix(f.message);
  return h;
}

}  // namespace chase::lint
