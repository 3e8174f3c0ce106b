/// \file main.cpp
/// chase_lint CLI: walk the tree, run the checks, apply the baseline, and
/// report in human or JSON form.
///
///   $ chase_lint src tools bench tests examples
///   $ chase_lint --format=json --baseline tools/chase_lint_baseline.txt src
///   $ chase_lint --update-baseline src            # absorb current findings
///
/// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using chase::lint::Config;
using chase::lint::Finding;

namespace {

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

bool is_excluded(const std::string& path, const Config& cfg) {
  for (const std::string& ex : cfg.exclude_paths) {
    if (path.find(ex) != std::string::npos) return true;
  }
  // Never descend into build trees or VCS metadata.
  return path.find("/build") != std::string::npos ||
         path.find("/.git") != std::string::npos ||
         path.find("/_build") != std::string::npos;
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots,
                                       const Config& cfg) {
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        const std::string path = it->path().generic_string();
        if (it->is_directory() && is_excluded(path + "/", cfg)) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && has_source_extension(it->path()) &&
            !is_excluded(path, cfg)) {
          files.push_back(path);
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "chase_lint: no such file or directory: %s\n",
                   root.c_str());
      std::exit(2);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal SARIF 2.1.0 document, enough for GitHub code scanning: one run,
/// one rule per check (with its one-line description), one result per
/// finding, and the baseline fingerprint as a partial fingerprint so code
/// scanning can track findings across commits.
void print_sarif(const std::vector<Finding>& findings) {
  std::printf(
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"chase_lint\",\n"
      "          \"informationUri\": \"https://example.invalid/chase_lint\",\n"
      "          \"rules\": [\n");
  const auto& names = chase::lint::check_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf(
        "            {\"id\": \"%s\", \"shortDescription\": {\"text\": "
        "\"%s\"}}%s\n",
        names[i].c_str(), json_escape(chase::lint::check_description(names[i])).c_str(),
        i + 1 < names.size() ? "," : "");
  }
  std::printf(
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(chase::lint::fingerprint(f)));
    std::printf(
        "        {\n"
        "          \"ruleId\": \"%s\",\n"
        "          \"level\": \"error\",\n"
        "          \"message\": {\"text\": \"%s\"},\n"
        "          \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
        "{\"uri\": \"%s\"}, \"region\": {\"startLine\": %d}}}],\n"
        "          \"partialFingerprints\": {\"chaseLintFingerprint/v1\": "
        "\"%s\"}\n"
        "        }%s\n",
        f.check.c_str(), json_escape(f.message).c_str(),
        json_escape(f.file).c_str(), f.line > 0 ? f.line : 1, fp,
        i + 1 < findings.size() ? "," : "");
  }
  std::printf(
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "human";
  std::string baseline_path;
  std::string config_path;
  std::vector<std::string> check_globs;  // --checks: report only matching checks
  bool update_baseline = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::size_t len = std::strlen(flag);
      if (arg.size() > len && arg[len] == '=') return arg.substr(len + 1);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chase_lint: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg.rfind("--format", 0) == 0) {
      format = value("--format");
    } else if (arg.rfind("--baseline", 0) == 0 && arg.rfind("--baseline-", 0) != 0) {
      baseline_path = value("--baseline");
    } else if (arg.rfind("--config", 0) == 0) {
      config_path = value("--config");
    } else if (arg.rfind("--checks", 0) == 0) {
      std::stringstream ss(value("--checks"));
      std::string one;
      while (std::getline(ss, one, ',')) {
        if (!one.empty()) check_globs.push_back(one);
      }
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--list-checks") {
      for (const std::string& name : chase::lint::check_names()) {
        std::printf("%-20s %s\n", name.c_str(),
                    chase::lint::check_description(name));
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: chase_lint [--format=human|json|sarif] [--config FILE]\n"
          "                  [--baseline FILE] [--update-baseline]\n"
          "                  [--checks GLOB[,GLOB...]] [--list-checks] <paths...>\n"
          "Static analysis for the sim::Task idiom: coroutine lifetime,\n"
          "hot-path allocation, and determinism (det-*) check families.\n"
          "--checks filters which findings are *reported* (e.g. 'det-*');\n"
          "analysis always runs every check so suppression bookkeeping stays\n"
          "consistent.\n"
          "Suppress inline with: // chase-lint: allow(<check>) <why it is safe>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "chase_lint: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (format != "human" && format != "json" && format != "sarif") {
    std::fprintf(stderr,
                 "chase_lint: --format must be 'human', 'json' or 'sarif'\n");
    return 2;
  }
  if (roots.empty()) {
    std::fprintf(stderr, "chase_lint: no paths given (try --help)\n");
    return 2;
  }

  Config cfg = chase::lint::default_config();
  if (config_path.empty() && fs::exists(".chase-lint")) config_path = ".chase-lint";
  if (!config_path.empty()) {
    std::string error;
    if (!chase::lint::load_config(config_path, &cfg, &error)) {
      std::fprintf(stderr, "chase_lint: %s\n", error.c_str());
      return 2;
    }
  }

  // Baseline: multiset of finding fingerprints to tolerate (one each).
  std::map<std::uint64_t, int> baseline;
  if (!baseline_path.empty() && !update_baseline) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "chase_lint: cannot open baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::stringstream ss(line);
      std::uint64_t fp = 0;
      if (ss >> std::hex >> fp) baseline[fp] += 1;
    }
  }

  const std::vector<std::string> files = collect_files(roots, cfg);
  std::vector<Finding> findings;
  std::vector<char> allow_file_used(cfg.allow_files.size(), 0);
  std::vector<char> allow_unordered_used(cfg.allow_unordered.size(), 0);
  std::vector<char> hot_function_used(cfg.hot_functions.size(), 0);
  int baselined = 0;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "chase_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();
    for (Finding& f : chase::lint::analyze_source(file, source, cfg,
                                                  &allow_file_used,
                                                  &allow_unordered_used,
                                                  &hot_function_used)) {
      const auto fp = chase::lint::fingerprint(f);
      auto it = baseline.find(fp);
      if (it != baseline.end() && it->second > 0) {
        it->second -= 1;
        ++baselined;
        continue;
      }
      findings.push_back(std::move(f));
    }
  }

  // Dead allow-file policy is a finding, same as an unused inline allow():
  // an entry that suppresses nothing can only mask future regressions.
  for (std::size_t i = 0; i < cfg.allow_files.size(); ++i) {
    if (allow_file_used[i] != 0) continue;
    const chase::lint::AllowFile& af = cfg.allow_files[i];
    findings.push_back(Finding{
        "lint-suppression", config_path, af.line, "",
        "allow-file entry '" + af.glob + " (" + af.check +
            ")' suppressed nothing in this walk; delete it so dead policy "
            "cannot mask future regressions"});
  }
  for (std::size_t i = 0; i < cfg.allow_unordered.size(); ++i) {
    if (allow_unordered_used[i] != 0) continue;
    const chase::lint::AllowUnordered& au = cfg.allow_unordered[i];
    findings.push_back(Finding{
        "lint-suppression", config_path, au.line, "",
        "allow-unordered entry '" + au.name +
            "' exempted no loop in this walk; delete it so dead policy "
            "cannot mask future regressions"});
  }
  // A hot-function entry whose function was renamed or deleted silently
  // stops scoping anything; report it so the hot set tracks the code.
  for (std::size_t i = 0; i < cfg.hot_functions.size(); ++i) {
    if (hot_function_used[i] != 0) continue;
    const int line = i < cfg.hot_function_lines.size() ? cfg.hot_function_lines[i] : 0;
    findings.push_back(Finding{
        "lint-suppression", config_path, line, "",
        "hot-function entry '" + cfg.hot_functions[i] +
            "' matched no definition in this walk; delete or rename it so "
            "dead policy cannot hide an unchecked hot path"});
  }

  // --checks filters what is *reported* (and therefore the exit code);
  // analysis always runs everything so allow()/allow-file bookkeeping stays
  // consistent across invocations with different filters.
  if (!check_globs.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    for (const std::string& g : check_globs) {
                                      if (chase::lint::glob_match(g, f.check))
                                        return false;
                                    }
                                    return true;
                                  }),
                   findings.end());
  }

  if (update_baseline) {
    if (baseline_path.empty()) {
      std::fprintf(stderr, "chase_lint: --update-baseline needs --baseline FILE\n");
      return 2;
    }
    std::ofstream out(baseline_path);
    out << "# chase_lint baseline: one fingerprint per tolerated finding.\n"
           "# Regenerate with: chase_lint --baseline "
        << baseline_path
        << " --update-baseline <paths>\n"
           "# Prefer fixing or inline-suppressing (with a justification) over\n"
           "# baselining; this file exists to land the linter on a tree with\n"
           "# pre-existing findings, then shrink to empty.\n";
    for (const Finding& f : findings) {
      char buf2[32];
      std::snprintf(buf2, sizeof buf2, "%016llx",
                    static_cast<unsigned long long>(chase::lint::fingerprint(f)));
      out << buf2 << "  # " << f.check << " " << f.file << ":" << f.line << "\n";
    }
    std::printf("chase_lint: wrote %zu fingerprint(s) to %s\n", findings.size(),
                baseline_path.c_str());
    return 0;
  }

  for (const auto& [fp, remaining] : baseline) {
    if (remaining > 0) {
      std::fprintf(stderr,
                   "chase_lint: note: %d stale baseline entr%s (%016llx...) -- "
                   "regenerate with --update-baseline\n",
                   remaining, remaining == 1 ? "y" : "ies",
                   static_cast<unsigned long long>(fp));
      break;
    }
  }

  if (format == "sarif") {
    print_sarif(findings);
    return findings.empty() ? 0 : 1;
  }
  if (format == "json") {
    std::printf("{\n  \"files_scanned\": %zu,\n  \"baselined\": %d,\n"
                "  \"findings\": [\n",
                files.size(), baselined);
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::printf("    {\"check\": \"%s\", \"file\": \"%s\", \"line\": %d, "
                  "\"function\": \"%s\", \"message\": \"%s\"}%s\n",
                  f.check.c_str(), json_escape(f.file).c_str(), f.line,
                  json_escape(f.function).c_str(), json_escape(f.message).c_str(),
                  i + 1 < findings.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    for (const Finding& f : findings) {
      std::printf("%s:%d: [%s]%s%s\n    %s\n", f.file.c_str(), f.line,
                  f.check.c_str(), f.function.empty() ? "" : " in ",
                  f.function.c_str(), f.message.c_str());
    }
    std::printf("chase_lint: %zu file(s), %zu finding(s)%s\n", files.size(),
                findings.size(),
                baselined > 0
                    ? (" (" + std::to_string(baselined) + " baselined)").c_str()
                    : "");
  }
  return findings.empty() ? 0 : 1;
}
