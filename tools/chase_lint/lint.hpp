#pragma once
/// \file lint.hpp
/// chase_lint: a project-specific coroutine-lifetime static analyzer.
///
/// PR 2's worst bugs were one family: coroutine frames and the references
/// they hold outliving (or failing to outlive) a suspension point —
/// `blpop_impl` keeping a dangling `const std::string&` parameter across
/// `co_await`, and parked BLPOP waiters writing through pointers into
/// destroyed frames. clang-tidy 17+ has two checks in this space, but the
/// tidy gate needs clang installed and only covers src/; this analyzer is
/// dependency-free (own lexer, no LLVM) so it runs in every CI job and on
/// any dev box, and it knows this codebase's `sim::Task` idiom well enough
/// to also catch the two heuristic classes tidy has no check for.
///
/// Checks (see analyze.cpp for the exact heuristics):
///   coro-ref-param     coroutine (function or lambda) parameter passed by
///                      reference, std::string_view, or std::span
///   coro-lambda-capture  coroutine lambda capturing by reference or `this`
///   coro-stale-ref     reference/pointer/iterator into a container bound
///                      before a co_await and used after resumption
///   coro-frame-escape  address of a frame local handed to a queue/callback
///                      sink with no liveness guard in scope
///   lint-suppression   malformed or unused inline suppression
///
/// Perf family (PR 6) — fires only inside *hot* functions, i.e. functions
/// in a `hot-path` directory or named by a `hot-function` policy entry
/// (qualified `Class::name` or bare), plus every lambda nested in one:
///   hot-alloc          heap allocation on the hot path: `new`,
///                      make_shared/make_unique, std::function construction,
///                      string concatenation, push_back with no visible
///                      reserve() on the same receiver anywhere in the file
///   hot-arg-copy       by-value std::string/std::vector/expensive-type
///                      parameter of a hot non-coroutine function, or an
///                      expensive-type local copy-initialised from an lvalue
///                      (no move, no call). Coroutine parameters are exempt:
///                      the coro-* family *requires* owning by-value params,
///                      and lifetime beats a copy (see DESIGN.md)
///   hot-relookup       the same container indexed/found twice with the same
///                      single-token key in one scope with no rebind between
///
/// Determinism family (PR 8) — bit-identical seeded replay is this repo's
/// regression oracle (tools/determinism_check); these checks statically ban
/// the constructs that break it. They run everywhere, not just in hot or
/// coroutine code:
///   det-unordered-iter  range-for / .begin() iteration over an
///                       std::unordered_map/unordered_set whose loop body has
///                       observable effects (mutation of outer state, calls
///                       to effectful members, accumulation, output,
///                       co_await); bucket order is implementation-defined.
///                       Membership-only scans are silent; a container the
///                       policy names with `allow-unordered` is exempt
///   det-pointer-order   ordered containers keyed by raw pointers
///                       (map<T*,...>, set<T*>), std::less<T*>, comparator
///                       lambdas returning `a < b` on pointer parameters,
///                       and comparator-less sorts of vector<T*>: address
///                       order varies under ASLR and allocation history
///   det-float-tiebreak  sort/heap comparators whose single sort key is
///                       floating-point with no integral/id tiebreak — equal
///                       keys leave the final order input/implementation
///                       dependent (the bug class PRs 5/7 fixed by hand with
///                       (cap,fid) / (level,link id) total orders). Fields
///                       whose float-ness lives in another header are named
///                       with `float-key` in the policy file
///   det-entropy         std::random_device, rand()/srand(), time(nullptr),
///                       std::chrono {system,steady,high_resolution}_clock:
///                       wall-clock and hardware entropy outside util::Rng
///                       and the sim clock makes replay unreproducible
///
/// Inline suppression (same line as the finding, or the line above):
///   // chase-lint: allow(check-name) <written justification, required>
/// File-level exemption (in .chase-lint, for whole cold directories):
///   allow-file <glob> (check-name) <written justification, required>

#include <cstdint>
#include <string>
#include <vector>

namespace chase::lint {

// --- lexer -------------------------------------------------------------------

enum class TokKind : std::uint8_t { Ident, Number, Str, Chr, Punct };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Comment {
  int line;
  std::string text;  // without the // or /* */ markers, trimmed
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Tokenize one translation unit. Comments and preprocessor directives are
/// stripped from the token stream; comments are kept (with line numbers)
/// for suppression parsing.
LexResult lex(std::string_view source);

// --- configuration -----------------------------------------------------------

/// One `allow-file <glob> (check) why` policy entry: every finding of
/// `check` in a file whose path matches `glob` is suppressed. Unused
/// entries are reported like unused inline suppressions (see
/// `allow_file_used` below).
struct AllowFile {
  std::string glob;   // '*' matches any run of characters, '?' any one
  std::string check;  // a single check name
  std::string why;    // written justification, required
  int line = 0;       // line in the config file, for unused reporting
};

/// One `allow-unordered <name> <why>` policy entry: iterating a container
/// with this (unqualified) variable name is exempt from det-unordered-iter.
/// Reserved for containers whose iteration-order effects are provably
/// unobservable (e.g. Simulation::detached_, destroyed wholesale in the
/// destructor after the last trace hook has fired). Unused entries are
/// reported like unused allow-file policy.
struct AllowUnordered {
  std::string name;  // container variable name, e.g. detached_
  std::string why;   // written justification, required
  int line = 0;      // line in the config file, for unused reporting
};

struct Config {
  /// Lvalue-reference coroutine parameters of these (unqualified) types are
  /// accepted: the type must, by construction, outlive every coroutine
  /// frame (e.g. the Simulation that owns the frames). Keep this list short
  /// and justified in .chase-lint.
  std::vector<std::string> allow_ref_types;
  /// RAII types whose presence in a coroutine body marks frame-pointer
  /// escapes as guarded (the shared liveness-flag idiom from blpop_impl).
  std::vector<std::string> guard_types;
  /// Member/function names treated as escape sinks for coro-frame-escape.
  std::vector<std::string> sink_names;
  /// Path substrings excluded from tree walks (e.g. lint fixture corpora).
  std::vector<std::string> exclude_paths;

  // --- perf family -----------------------------------------------------------
  /// Path substrings: every function in a matching file is hot.
  std::vector<std::string> hot_paths;
  /// Function names, qualified (`Network::transfer`) or bare (`transfer`).
  /// Qualified entries only match definitions spelled `Class::name`; bare
  /// entries match any definition with that name.
  std::vector<std::string> hot_functions;
  /// Config-file line of each hot_functions entry (0 when set in code), for
  /// reporting entries that match no definition.
  std::vector<int> hot_function_lines;
  /// Extra by-value-expensive types for hot-arg-copy, beyond the built-in
  /// std:: containers (e.g. a big POD config struct).
  std::vector<std::string> expensive_types;
  /// Types exempted from hot-arg-copy (cheap to copy despite the name, or
  /// copied deliberately as policy).
  std::vector<std::string> allow_copy_types;
  /// File-level check exemptions (`allow-file` entries).
  std::vector<AllowFile> allow_files;

  // --- determinism family -----------------------------------------------------
  /// Containers exempt from det-unordered-iter (`allow-unordered` entries).
  std::vector<AllowUnordered> allow_unordered;
  /// Field/function names known to be floating-point across translation
  /// units (the declaring header is a different file than the comparator),
  /// so det-float-tiebreak can classify `a.iou < b.iou` without a compiler.
  std::vector<std::string> float_keys;
};

/// Match `glob` ('*' = any run, '?' = any one char) against a path. A glob
/// with no '/' is also tried against the basename, so `*_test.cpp` works.
bool glob_match(std::string_view glob, std::string_view path);

/// Built-in defaults: no allowed ref types, LiveGuard as guard, the usual
/// container/callback sinks, no excludes.
Config default_config();

/// Parse a `.chase-lint` config file into/over `cfg`. Lines:
///   allow-ref-type <Type>   guard-type <Type>   sink <name>   exclude <path>
///   hot-path <path-substr>  hot-function <name> expensive-type <Type>
///   allow-copy-type <Type>  allow-file <glob> (<check>) <why...>
///   allow-unordered <name> <why...>             float-key <name>
/// '#' starts a comment. Returns false and sets *error on malformed input.
bool load_config(const std::string& path, Config* cfg, std::string* error);

// --- analysis ----------------------------------------------------------------

struct Finding {
  std::string check;
  std::string file;
  int line = 0;
  std::string function;  // enclosing function name, or "<lambda>"
  std::string message;
};

/// Analyze one file's source text. Returned findings already have inline
/// suppressions applied; malformed or unused suppressions surface as
/// `lint-suppression` findings so every allow() stays justified and live.
/// If `allow_file_used` is non-null it must have cfg.allow_files.size()
/// entries; each entry that suppressed at least one finding is set to 1 so
/// the caller can report dead allow-file policy across the whole walk.
/// `allow_unordered_used` works the same way for cfg.allow_unordered, and
/// `hot_function_used` for cfg.hot_functions (set when the entry names a
/// function defined in this file).
std::vector<Finding> analyze_source(const std::string& path, std::string_view source,
                                    const Config& cfg,
                                    std::vector<char>* allow_file_used = nullptr,
                                    std::vector<char>* allow_unordered_used = nullptr,
                                    std::vector<char>* hot_function_used = nullptr);

/// All check names, for --list-checks and suppression validation.
const std::vector<std::string>& check_names();

/// One-line description of a check, for --list-checks and SARIF rule
/// metadata. Returns a generic string for unknown names.
const char* check_description(const std::string& check);

/// Stable fingerprint of a finding for the baseline file: FNV-1a over
/// check, file, function and message shape (line numbers excluded so the
/// baseline survives unrelated edits above the finding).
std::uint64_t fingerprint(const Finding& f);

}  // namespace chase::lint
