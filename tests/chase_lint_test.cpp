/// \file chase_lint_test.cpp
/// Golden-file tests for the coroutine-lifetime linter (tools/chase_lint).
/// Each fixture under tests/lint_fixtures/ is a small corpus annotated with
///   // LINT[check-name]      -- a finding of that check is expected HERE
///   // LINT+1[check-name]    -- ... on the NEXT line
/// The test lexes + analyzes every fixture and requires the (line, check)
/// multiset to match the annotations exactly: bad_* corpora prove each
/// check fires, good_* corpora prove the safe idioms stay silent, and
/// suppressions.cpp pins the allow() semantics.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace {

namespace fs = std::filesystem;
using chase::lint::Config;
using chase::lint::Finding;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The tree's analysis policy, mirrored from /.chase-lint so fixtures are
/// judged by the same rules as real sources. The perf-family entries are
/// fixture-specific: fixtures mark their hot functions `hot_fn` (or the
/// qualified `Fabric::hot_method`) instead of naming real tree functions.
Config tree_config() {
  Config cfg = chase::lint::default_config();
  cfg.allow_ref_types = {"Simulation", "PodContext"};
  cfg.hot_functions = {"hot_fn", "Fabric::hot_method"};
  cfg.hot_paths = {"hot_dir_"};
  cfg.expensive_types = {"CheapHandle", "BigConfig"};
  cfg.allow_copy_types = {"CheapHandle"};
  cfg.allow_files = {{"policy_exempt_hot.cpp", "hot-alloc",
                      "fixture: whole-file exemption for cold reporting code", 1}};
  // Determinism-family policy, fixture-specific names (the tree uses
  // detached_ and iou; see /.chase-lint).
  cfg.allow_unordered = {{"allowed_registry_",
                          "fixture: torn down wholesale, order unobservable", 1}};
  cfg.float_keys = {"xfile_score"};
  return cfg;
}

using LineCheck = std::multiset<std::pair<int, std::string>>;

LineCheck expectations(const std::string& source) {
  LineCheck want;
  static const std::regex kMarker(R"(LINT(\+1)?\[([a-z-]+)\])");
  std::istringstream lines(source);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    for (std::sregex_iterator it(line.begin(), line.end(), kMarker), end;
         it != end; ++it) {
      want.emplace(n + ((*it)[1].matched ? 1 : 0), (*it)[2].str());
    }
  }
  return want;
}

LineCheck actual(const std::vector<Finding>& findings) {
  LineCheck got;
  for (const Finding& f : findings) got.emplace(f.line, f.check);
  return got;
}

std::string render(const LineCheck& set) {
  std::string out;
  for (const auto& [line, check] : set) {
    out += "  line " + std::to_string(line) + ": " + check + "\n";
  }
  return out.empty() ? "  (none)\n" : out;
}

fs::path fixture_dir() { return fs::path(CHASE_LINT_FIXTURE_DIR); }

void check_fixture(const std::string& name) {
  const fs::path p = fixture_dir() / name;
  ASSERT_TRUE(fs::exists(p)) << p;
  const std::string src = read_file(p);
  const auto findings = chase::lint::analyze_source(name, src, tree_config());
  EXPECT_EQ(expectations(src), actual(findings))
      << "fixture " << name << "\nexpected:\n" << render(expectations(src))
      << "got:\n" << render(actual(findings));
}

TEST(LintFixtures, BadRefParamFires) { check_fixture("bad_coro_ref_param.cpp"); }
TEST(LintFixtures, GoodRefParamSilent) { check_fixture("good_coro_ref_param.cpp"); }
TEST(LintFixtures, BadLambdaCaptureFires) {
  check_fixture("bad_coro_lambda_capture.cpp");
}
TEST(LintFixtures, GoodLambdaCaptureSilent) {
  check_fixture("good_coro_lambda_capture.cpp");
}
TEST(LintFixtures, BadStaleRefFires) { check_fixture("bad_coro_stale_ref.cpp"); }
TEST(LintFixtures, GoodStaleRefSilent) { check_fixture("good_coro_stale_ref.cpp"); }
TEST(LintFixtures, BadFrameEscapeFires) { check_fixture("bad_coro_frame_escape.cpp"); }
TEST(LintFixtures, GoodFrameEscapeSilent) {
  check_fixture("good_coro_frame_escape.cpp");
}
TEST(LintFixtures, SuppressionSemantics) { check_fixture("suppressions.cpp"); }
TEST(LintFixtures, BadHotAllocFires) { check_fixture("bad_hot_alloc.cpp"); }
TEST(LintFixtures, GoodHotAllocSilent) { check_fixture("good_hot_alloc.cpp"); }
TEST(LintFixtures, BadHotArgCopyFires) { check_fixture("bad_hot_arg_copy.cpp"); }
TEST(LintFixtures, GoodHotArgCopySilent) { check_fixture("good_hot_arg_copy.cpp"); }
TEST(LintFixtures, BadHotRelookupFires) { check_fixture("bad_hot_relookup.cpp"); }
TEST(LintFixtures, GoodHotRelookupSilent) { check_fixture("good_hot_relookup.cpp"); }
TEST(LintFixtures, AllowFilePolicyExemptsOneCheck) {
  check_fixture("policy_exempt_hot.cpp");
}
TEST(LintFixtures, HotPathDirectoryMarksEveryFunction) {
  check_fixture("hot_dir_file.cpp");
}
TEST(LintFixtures, BadDetUnorderedIterFires) {
  check_fixture("bad_det_unordered_iter.cpp");
}
TEST(LintFixtures, GoodDetUnorderedIterSilent) {
  check_fixture("good_det_unordered_iter.cpp");
}
TEST(LintFixtures, BadDetPointerOrderFires) {
  check_fixture("bad_det_pointer_order.cpp");
}
TEST(LintFixtures, GoodDetPointerOrderSilent) {
  check_fixture("good_det_pointer_order.cpp");
}
TEST(LintFixtures, BadDetFloatTiebreakFires) {
  check_fixture("bad_det_float_tiebreak.cpp");
}
TEST(LintFixtures, GoodDetFloatTiebreakSilent) {
  check_fixture("good_det_float_tiebreak.cpp");
}
TEST(LintFixtures, BadDetEntropyFires) { check_fixture("bad_det_entropy.cpp"); }
TEST(LintFixtures, GoodDetEntropySilent) { check_fixture("good_det_entropy.cpp"); }

TEST(LintFixtures, EveryFixtureIsCovered) {
  // A fixture dropped into the directory but not wired up above would be
  // dead weight; require the corpus and the test list to agree.
  std::vector<std::string> known = {
      "bad_coro_ref_param.cpp",      "good_coro_ref_param.cpp",
      "bad_coro_lambda_capture.cpp", "good_coro_lambda_capture.cpp",
      "bad_coro_stale_ref.cpp",      "good_coro_stale_ref.cpp",
      "bad_coro_frame_escape.cpp",   "good_coro_frame_escape.cpp",
      "bad_hot_alloc.cpp",           "good_hot_alloc.cpp",
      "bad_hot_arg_copy.cpp",        "good_hot_arg_copy.cpp",
      "bad_hot_relookup.cpp",        "good_hot_relookup.cpp",
      "bad_det_unordered_iter.cpp",  "good_det_unordered_iter.cpp",
      "bad_det_pointer_order.cpp",   "good_det_pointer_order.cpp",
      "bad_det_float_tiebreak.cpp",  "good_det_float_tiebreak.cpp",
      "bad_det_entropy.cpp",         "good_det_entropy.cpp",
      "policy_exempt_hot.cpp",       "hot_dir_file.cpp",
      "suppressions.cpp"};
  std::sort(known.begin(), known.end());
  std::vector<std::string> present;
  for (const auto& e : fs::directory_iterator(fixture_dir())) {
    present.push_back(e.path().filename().string());
  }
  std::sort(present.begin(), present.end());
  EXPECT_EQ(known, present);
}

// --- unit tests for the supporting pieces -------------------------------------

TEST(LintLexer, RawStringsAndCommentsDoNotConfuseTheStream) {
  const auto lexed = chase::lint::lex(
      "auto s = R\"x(not a // comment \")x\"; // real comment\n"
      "int a = b && c; /* block\n comment */ int d;\n");
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].text, "real comment");
  EXPECT_EQ(lexed.comments[0].line, 1);
  // `&&` must stay one token: `&` starts a by-ref capture, `&&` does not.
  int amp_amp = 0, amp = 0;
  for (const auto& t : lexed.tokens) {
    amp_amp += t.text == "&&";
    amp += t.text == "&";
  }
  EXPECT_EQ(amp_amp, 1);
  EXPECT_EQ(amp, 0);
}

TEST(LintLexer, PrefixedRawStringsLexAsOneLiteral) {
  // LR/uR/UR/u8R raw strings must consume through their delimiter; if the
  // prefix is lexed as an identifier the `"(` opens an unterminated string
  // and the rest of the file turns to soup.
  const auto lexed = chase::lint::lex(
      "auto a = LR\"(wide \" raw)\";\n"
      "auto b = u8R\"x(utf8 )\" not the end)x\";\n"
      "auto c = uR\"(u16)\" UR\"(u32)\";\n"
      "int after = 1;\n");
  int strs = 0, after = 0;
  for (const auto& t : lexed.tokens) {
    strs += t.kind == chase::lint::TokKind::Str;
    if (t.text == "after") {
      after = t.line;
    }
  }
  EXPECT_EQ(strs, 4);
  EXPECT_EQ(after, 4);  // line counting survived the multi-literal lines
}

TEST(LintLexer, DigitSeparatorsStayOneNumberToken) {
  // 1'000'000 must be one Num token, not Num/Char/Num — a split number
  // turns the `'` into an unterminated char literal and desyncs the stream.
  const auto lexed = chase::lint::lex(
      "const int big = 1'000'000;\n"
      "const double d = 1'234.56'78e1'0;\n"
      "const int hex = 0xFF'FF;\n"
      "int after = 2;\n");
  int nums = 0, after = 0;
  for (const auto& t : lexed.tokens) {
    nums += t.kind == chase::lint::TokKind::Number;
    if (t.text == "after") {
      after = t.line;
    }
  }
  EXPECT_EQ(nums, 4);  // the three separated literals, plus `2`
  EXPECT_EQ(after, 4);
}

TEST(LintLexer, UserDefinedLiteralSuffixesDoNotLeakIdentifiers) {
  // `10s` / `"x"sv` glue their suffix to the literal; a stray `s`/`sv`
  // identifier token would look like a variable to every shape check.
  const auto lexed = chase::lint::lex(
      "auto t = 10s + 250ms;\n"
      "auto v = \"key\"sv;\n"
      "auto u = 0x10_units;\n");
  for (const auto& t : lexed.tokens) {
    if (t.kind == chase::lint::TokKind::Ident) {
      EXPECT_NE(t.text, "s");
      EXPECT_NE(t.text, "ms");
      EXPECT_NE(t.text, "sv");
      EXPECT_NE(t.text, "_units");
    }
  }
}

TEST(LintBaseline, FingerprintIgnoresLineNumbersAndDigits) {
  Finding a{"coro-stale-ref", "src/x.cpp", 10, "f",
            "'g' bound at line 12 used after the co_await at line 14"};
  Finding b = a;
  b.line = 99;  // the finding moved...
  b.message = "'g' bound at line 120 used after the co_await at line 140";
  EXPECT_EQ(chase::lint::fingerprint(a), chase::lint::fingerprint(b));
  Finding c = a;
  c.check = "coro-ref-param";
  EXPECT_NE(chase::lint::fingerprint(a), chase::lint::fingerprint(c));
  Finding d = a;
  d.function = "h";
  EXPECT_NE(chase::lint::fingerprint(a), chase::lint::fingerprint(d));
}

TEST(LintConfig, ParsesDirectivesAndRejectsGarbage) {
  const fs::path p = fs::temp_directory_path() / "chase_lint_test.cfg";
  {
    std::ofstream out(p);
    out << "# comment\n"
        << "allow-ref-type Simulation\n"
        << "guard-type LiveGuard\n"
        << "sink park\n"
        << "exclude tests/lint_fixtures/\n";
  }
  Config cfg;
  std::string error;
  ASSERT_TRUE(chase::lint::load_config(p.string(), &cfg, &error)) << error;
  EXPECT_EQ(cfg.allow_ref_types, std::vector<std::string>{"Simulation"});
  EXPECT_EQ(cfg.guard_types, std::vector<std::string>{"LiveGuard"});
  EXPECT_EQ(cfg.sink_names, std::vector<std::string>{"park"});
  EXPECT_EQ(cfg.exclude_paths, std::vector<std::string>{"tests/lint_fixtures/"});
  {
    std::ofstream out(p);
    out << "frobnicate everything\n";
  }
  EXPECT_FALSE(chase::lint::load_config(p.string(), &cfg, &error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  fs::remove(p);
}

TEST(LintChecks, CatalogIsStable) {
  const auto& names = chase::lint::check_names();
  EXPECT_EQ(names.size(), 12u);
  for (const char* expected :
       {"coro-ref-param", "coro-lambda-capture", "coro-stale-ref",
        "coro-frame-escape", "lint-suppression", "hot-alloc", "hot-arg-copy",
        "hot-relookup", "det-unordered-iter", "det-pointer-order",
        "det-float-tiebreak", "det-entropy"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(LintChecks, EveryCheckHasADescription) {
  for (const std::string& name : chase::lint::check_names()) {
    const std::string desc = chase::lint::check_description(name);
    EXPECT_FALSE(desc.empty()) << name;
    EXPECT_NE(desc, "chase_lint check") << name;  // the unknown-name fallback
  }
  EXPECT_STREQ(chase::lint::check_description("no-such-check"),
               "chase_lint check");
}

TEST(LintConfig, HotFunctionUseIsTrackedPerEntry) {
  // The tree walk reports hot-function entries no definition matched;
  // analyze_source marks the live ones, qualified and bare alike.
  Config cfg = tree_config();
  cfg.hot_functions = {"Fabric::hot_method", "renamed_away", "hot_fn"};
  std::vector<char> used(cfg.hot_functions.size(), 0);
  const std::string src =
      "struct Fabric { void hot_method(); };\n"
      "void Fabric::hot_method() {}\n"
      "void hot_fn() {}\n";
  chase::lint::analyze_source("hot_use.cpp", src, cfg, nullptr, nullptr, &used);
  EXPECT_EQ(used, (std::vector<char>{1, 0, 1}));
}

TEST(LintConfig, ParsesPerfDirectives) {
  const fs::path p = fs::temp_directory_path() / "chase_lint_perf.cfg";
  {
    std::ofstream out(p);
    out << "hot-path src/sim/\n"
        << "hot-function Network::recompute_rates\n"
        << "expensive-type BigConfig\n"
        << "allow-copy-type CheapHandle\n"
        << "allow-file src/viz/* (hot-alloc) rendering is cold reporting code\n";
  }
  Config cfg;
  std::string error;
  ASSERT_TRUE(chase::lint::load_config(p.string(), &cfg, &error)) << error;
  EXPECT_EQ(cfg.hot_paths, std::vector<std::string>{"src/sim/"});
  EXPECT_EQ(cfg.hot_functions,
            std::vector<std::string>{"Network::recompute_rates"});
  EXPECT_EQ(cfg.hot_function_lines, std::vector<int>{2});
  EXPECT_EQ(cfg.expensive_types, std::vector<std::string>{"BigConfig"});
  EXPECT_EQ(cfg.allow_copy_types, std::vector<std::string>{"CheapHandle"});
  ASSERT_EQ(cfg.allow_files.size(), 1u);
  EXPECT_EQ(cfg.allow_files[0].glob, "src/viz/*");
  EXPECT_EQ(cfg.allow_files[0].check, "hot-alloc");
  EXPECT_EQ(cfg.allow_files[0].why, "rendering is cold reporting code");
  EXPECT_EQ(cfg.allow_files[0].line, 5);

  // allow-file without a check or without a justification is a config error,
  // same contract as inline allows.
  {
    std::ofstream out(p);
    out << "allow-file src/viz/* hot-alloc missing parens\n";
  }
  EXPECT_FALSE(chase::lint::load_config(p.string(), &cfg, &error));
  {
    std::ofstream out(p);
    out << "allow-file src/viz/* (hot-alloc)\n";
  }
  EXPECT_FALSE(chase::lint::load_config(p.string(), &cfg, &error));
  EXPECT_NE(error.find("justification"), std::string::npos);
  {
    std::ofstream out(p);
    out << "allow-file src/viz/* (no-such-check) why\n";
  }
  EXPECT_FALSE(chase::lint::load_config(p.string(), &cfg, &error));
  fs::remove(p);
}

TEST(LintConfig, ParsesDeterminismDirectives) {
  const fs::path p = fs::temp_directory_path() / "chase_lint_det.cfg";
  {
    std::ofstream out(p);
    out << "allow-unordered detached_ destroyed wholesale; order unobservable\n"
        << "float-key iou\n";
  }
  Config cfg;
  std::string error;
  ASSERT_TRUE(chase::lint::load_config(p.string(), &cfg, &error)) << error;
  ASSERT_EQ(cfg.allow_unordered.size(), 1u);
  EXPECT_EQ(cfg.allow_unordered[0].name, "detached_");
  EXPECT_EQ(cfg.allow_unordered[0].why,
            "destroyed wholesale; order unobservable");
  EXPECT_EQ(cfg.allow_unordered[0].line, 1);
  EXPECT_EQ(cfg.float_keys, std::vector<std::string>{"iou"});

  // allow-unordered carries the same justification contract as allow-file:
  // a bare name with no why is a config error, not a silent exemption.
  {
    std::ofstream out(p);
    out << "allow-unordered detached_\n";
  }
  EXPECT_FALSE(chase::lint::load_config(p.string(), &cfg, &error));
  EXPECT_NE(error.find("justification"), std::string::npos);
  fs::remove(p);
}

TEST(LintGlob, MatchesPathsAndBasenames) {
  using chase::lint::glob_match;
  EXPECT_TRUE(glob_match("src/viz/*", "src/viz/chart.cpp"));
  EXPECT_TRUE(glob_match("src/viz/*", "/root/repo/src/viz/chart.cpp"));
  EXPECT_FALSE(glob_match("src/viz/*", "src/net/network.cpp"));
  EXPECT_TRUE(glob_match("*_test.cpp", "tests/alloc_stats_test.cpp"));
  EXPECT_FALSE(glob_match("*_test.cpp", "tests/alloc_stats.cpp"));
  EXPECT_TRUE(glob_match("table.?pp", "src/viz/table.hpp"));
  EXPECT_TRUE(glob_match("*", "anything/at/all.cc"));
}

}  // namespace
