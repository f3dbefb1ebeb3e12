// Seeded mutation fuzz of DML text through the compile front end: hostile
// scripts must never crash the process (a `lima_serve` request compiles
// whatever text it is sent). Each mutant of the builtins preamble or of a
// bundled script runs through ParseScript, CompileScript under Lima() with
// and without operator fusion, and VerifyProgram with the shape and
// redundancy checks; every call must come back with a status or a report.
// The programs are never executed. The seed list is fixed, so a failure
// reproduces by rerunning the test.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/scripts.h"
#include "analysis/verifier.h"
#include "lang/compiler.h"
#include "lang/parser.h"

namespace lima {
namespace {

constexpr uint64_t kSeedsPerSource = 100;

std::string ReadScript(const std::string& name) {
  std::ifstream in(std::string(LIMA_SOURCE_DIR) + "/scripts/" + name);
  EXPECT_TRUE(in.good()) << "cannot open scripts/" << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Splits DML text into tokens whose concatenation is the text: runs of
/// word characters, runs of whitespace, and single other characters.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    size_t j = i + 1;
    if (IsWordChar(text[i])) {
      while (j < text.size() && IsWordChar(text[j])) ++j;
    } else if (std::isspace(static_cast<unsigned char>(text[i]))) {
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// One mutation of `text`: delete, duplicate or swap tokens, put an
/// extreme number in place of a token, flip a character, or splice a copy
/// of one line in front of another.
std::string MutateOnce(const std::string& text, std::mt19937_64* rng) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  static const std::string kFlips =
      "(){}[],;=+-*/%<>!&|\"'0123456789.:^ \nXnT";
  static const std::vector<std::string> kNumbers = {
      "0", "-1", "0.5", "1e308", "9007199254740993", "9223372036854775807",
      "4294967296"};
  switch (pick(5)) {
    case 0:
    case 1:
    case 2: {
      std::vector<std::string> tokens = Tokenize(text);
      if (tokens.size() < 2) return text;
      const size_t i = pick(tokens.size());
      const size_t j = pick(tokens.size());
      switch (pick(4)) {
        case 0:
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                        tokens[i]);
          break;
        case 2:
          tokens[i] = kNumbers[pick(kNumbers.size())];
          break;
        default:
          std::swap(tokens[i], tokens[j]);
          break;
      }
      return Join(tokens, "");
    }
    case 3: {
      if (text.empty()) return text;
      std::string out = text;
      out[pick(out.size())] = kFlips[pick(kFlips.size())];
      return out;
    }
    default: {
      std::vector<std::string> lines = SplitLines(text);
      if (lines.empty()) return text;
      const std::string copy = lines[pick(lines.size())];
      const size_t at = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      return Join(lines, "\n") + "\n";
    }
  }
}

/// How far the mutants got; the fuzz is only worth its time when many of
/// them reach the analyses.
struct FuzzCounts {
  int mutants = 0;
  int parsed = 0;
  int compiled = 0;
};

void RunFrontEnd(const std::string& text, FuzzCounts* counts) {
  ++counts->mutants;
  if (!ParseScript(text).ok()) return;
  ++counts->parsed;
  LimaConfig fusion = LimaConfig::Lima();
  fusion.operator_fusion = true;
  for (const LimaConfig& config : {LimaConfig::Lima(), fusion}) {
    Result<std::unique_ptr<Program>> program = CompileScript(text, config);
    if (!program.ok()) continue;
    ++counts->compiled;
    VerifyOptions options;
    options.check_shapes = true;
    options.check_redundancy = true;
    VerifyReport report = VerifyProgram(**program, options);
    EXPECT_EQ(report.num_errors + report.num_warnings,
              static_cast<int>(report.diagnostics.size()));
  }
}

/// Mutants of `mutated`, each compiled as prefix + mutant + suffix, from
/// the seeds [first_seed, first_seed + kSeedsPerSource).
FuzzCounts Fuzz(const std::string& prefix, const std::string& mutated,
                const std::string& suffix, uint64_t first_seed) {
  FuzzCounts counts;
  for (uint64_t seed = first_seed; seed < first_seed + kSeedsPerSource;
       ++seed) {
    std::mt19937_64 rng(seed);
    std::string text = mutated;
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) text = MutateOnce(text, &rng);
    RunFrontEnd(prefix + text + suffix, &counts);
  }
  return counts;
}

TEST(DmlFuzzTest, MutatedScriptsNeverCrashTheFrontEnd) {
  FuzzCounts total;
  uint64_t seed = 1;
  for (const char* name : {"gridsearch.dml", "kmeans.dml", "pagerank.dml"}) {
    FuzzCounts counts = Fuzz(scripts::Builtins(), ReadScript(name), "", seed);
    seed += kSeedsPerSource;
    total.mutants += counts.mutants;
    total.parsed += counts.parsed;
    total.compiled += counts.compiled;
  }
  EXPECT_EQ(total.mutants, 3 * static_cast<int>(kSeedsPerSource));
  EXPECT_GT(total.compiled, total.mutants / 4)
      << "parsed " << total.parsed << " of " << total.mutants;
}

TEST(DmlFuzzTest, MutatedBuiltinsNeverCrashTheFrontEnd) {
  FuzzCounts total;
  uint64_t seed = 1001;
  for (const char* name : {"gridsearch.dml", "kmeans.dml", "pagerank.dml"}) {
    FuzzCounts counts = Fuzz("", scripts::Builtins(), ReadScript(name), seed);
    seed += kSeedsPerSource;
    total.mutants += counts.mutants;
    total.parsed += counts.parsed;
    total.compiled += counts.compiled;
  }
  EXPECT_EQ(total.mutants, 3 * static_cast<int>(kSeedsPerSource));
  EXPECT_GT(total.compiled, total.mutants / 4)
      << "parsed " << total.parsed << " of " << total.mutants;
}

}  // namespace
}  // namespace lima
