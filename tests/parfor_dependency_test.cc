// Compile-time parfor loop-dependency analysis (Sec. 3.3 task-parallel
// loops): verdict classification over a DML snippet corpus, explanation
// text, verifier integration, and the runtime fallback that serializes
// unproven loops so lineage stays deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/parfor_dependency.h"
#include "analysis/verifier.h"
#include "common/config.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "runtime/program.h"

namespace lima {
namespace {

// Compiles `source` and returns the dependency annotation of its single
// parfor block. The analysis runs inside CompileScript (phase 1 on the AST,
// phase 2 on the compiled instruction streams), so this exercises the full
// production path, not a test-only harness.
ParForDepInfo Analyze(const std::string& source,
                      LimaConfig config = LimaConfig::Lima()) {
  Result<std::unique_ptr<Program>> program = CompileScript(source, config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  std::vector<ParForBlockRef> blocks = CollectParForBlocks(**program);
  EXPECT_EQ(blocks.size(), 1u);
  if (blocks.size() != 1) return {};
  return blocks[0].block->dep_info();
}

bool HasFinding(const ParForDepInfo& info, const std::string& code,
                const std::string& substring) {
  for (const ParForFinding& finding : info.findings) {
    if (finding.code == code &&
        finding.message.find(substring) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<LimaSession> RunWith(const std::string& script,
                                     LimaConfig config) {
  auto session = std::make_unique<LimaSession>(std::move(config));
  Status status = session->Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return session;
}

LimaConfig Workers(int n, LimaConfig config = LimaConfig::Lima()) {
  config.parfor_workers = n;
  return config;
}

// Lineage item ids are allocated process-wide, so two sessions in one test
// binary produce the same log shifted by a constant. Renumbering ids by
// first occurrence makes the comparison exact on structure and order.
std::string CanonicalizeLineageIds(const std::string& log) {
  std::map<std::string, int> renumber;
  std::string out;
  size_t pos = 0;
  while (pos < log.size()) {
    size_t open = log.find('(', pos);
    if (open == std::string::npos) {
      out.append(log, pos, std::string::npos);
      break;
    }
    size_t close = log.find(')', open);
    if (close == std::string::npos) {
      out.append(log, pos, std::string::npos);
      break;
    }
    out.append(log, pos, open + 1 - pos);
    std::string id = log.substr(open + 1, close - open - 1);
    auto [it, inserted] =
        renumber.emplace(id, static_cast<int>(renumber.size()));
    out += std::to_string(it->second);
    out += ')';
    pos = close + 1;
  }
  return out;
}

// --- safe: the window test proves per-iteration slices disjoint ------------

TEST(ParforDependencyTest, DisjointRowWritesAreSafe) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 8, 3);
    parfor (i in 1:8) { X[i, ] = matrix(i, 1, 3); }
  )");
  ASSERT_TRUE(info.analyzed);
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, DisjointColumnWritesAreSafe) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 5, 8);
    parfor (i in 1:8) { X[, i] = matrix(i, 5, 1); }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, ReadAndWriteOfSameRowAreSafe) {
  // Read and write touch the same slice within one iteration only.
  ParForDepInfo info = Analyze(R"(
    X = matrix(1, 6, 2);
    parfor (i in 1:6) { X[i, ] = X[i, ] * 2; }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, InterleavedStrideWritesAreSafe) {
  // 2*i and 2*i+1 collide at distance 1/2: non-integral, hence disjoint.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 20, 1);
    parfor (i in 1:9) {
      X[2 * i, 1] = i;
      X[2 * i + 1, 1] = i;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, GcdCoprimeWritesAreSafe) {
  // gcd(2, 4) = 2 does not divide the offset 1: no integer solution.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 40, 1);
    parfor (i in 1:9) {
      X[2 * i, 1] = i;
      X[4 * i + 1, 1] = i;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, BanerjeeBoundsProveDisjoint) {
  // t1 - 2*t2 over [1,3]x[1,3] spans [-5, 1]; the offset 100 is outside.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 200, 1);
    parfor (i in 1:3) {
      X[i, 1] = i;
      X[2 * i + 100, 1] = i;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, SymbolicStrideWindowIsSafe) {
  // gridSearchLm-style flattened index (i-1)*m + j with symbolic stride m
  // and symbolic trip count n: per-iteration windows [m*i-m+1, m*i] are
  // disjoint because consecutive windows are separated by exactly the
  // stride (provable from the loop-header fact m >= 1).
  ParForDepInfo info = Analyze(R"(
    m = 4;
    n = 5;
    X = matrix(0, 20, 1);
    parfor (i in 1:n) {
      for (j in 1:m) {
        X[(i - 1) * m + j, 1] = i + j;
      }
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, IterationLocalTempsAreSafe) {
  // acc is defined before use every iteration: worker-local, never merged.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 5, 1);
    parfor (i in 1:5) {
      acc = 0;
      for (j in 1:3) { acc = acc + j * i; }
      X[i, 1] = acc;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, SeededRandIsSafe) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 4, 3);
    parfor (i in 1:4) { X[i, ] = rand(rows=1, cols=3, seed=7); }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

TEST(ParforDependencyTest, ReversedLiteralInnerRangeIsSafe) {
  // A literal downward range has a provable value hull [1, 3]; the row
  // writes stay disjoint in the parfor dimension.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 8, 3);
    parfor (i in 1:8) {
      for (j in 3:1) { X[i, j] = i + j; }
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSafe);
  EXPECT_TRUE(info.findings.empty()) << info.ToString();
}

// --- reject: a cross-iteration dependence is proven ------------------------

TEST(ParforDependencyTest, CarriedReadWriteIsRejected) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(1, 10, 1);
    parfor (i in 1:9) { X[i + 1, 1] = X[i, 1] + 1; }
  )");
  ASSERT_TRUE(info.analyzed);
  EXPECT_EQ(info.verdict, ParForSafety::kReject);
  EXPECT_TRUE(HasFinding(info, "carried-dependence",
                         "result 'X': cross-iteration dependence between"))
      << info.ToString();
  EXPECT_TRUE(HasFinding(info, "carried-dependence", "(distance -1)"))
      << info.ToString();
  ASSERT_FALSE(info.findings.empty());
  EXPECT_TRUE(info.findings[0].blocking);
  EXPECT_NE(info.ToString().find("reject: carried-dependence:"),
            std::string::npos)
      << info.ToString();
}

TEST(ParforDependencyTest, SameCellWriteIsRejected) {
  // Every iteration writes X[1,1]: collision at every pair, distance 0.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 2, 2);
    parfor (i in 1:4) { X[1, 1] = i; }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kReject);
  EXPECT_TRUE(HasFinding(info, "carried-dependence",
                         "cross-iteration dependence between write"))
      << info.ToString();
  EXPECT_FALSE(HasFinding(info, "carried-dependence", "(distance"))
      << "distance 0 must not be printed: " << info.ToString();
}

// --- serialize: unproven, the runtime falls back to one worker -------------

TEST(ParforDependencyTest, ScalarAccumulationSerializes) {
  ParForDepInfo info = Analyze(R"(
    X = rand(rows=6, cols=1, seed=3);
    s = 0;
    parfor (i in 1:6) { s = s + as.scalar(X[i, 1]); }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "scalar-accumulation",
                         "shared variable 's' is accumulated across "
                         "iterations"))
      << info.ToString();
  ASSERT_FALSE(info.findings.empty());
  EXPECT_FALSE(info.findings[0].blocking);
}

TEST(ParforDependencyTest, WholeMatrixReadSerializes) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(1, 4, 1);
    parfor (i in 1:4) {
      X[i, 1] = i;
      t = sum(X);
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "whole-read",
                         "result 'X' is read whole at line"))
      << info.ToString();
}

TEST(ParforDependencyTest, NonAffineSubscriptSerializes) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 30, 1);
    parfor (i in 1:5) { X[i * i, 1] = i; }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  // The quadratic index extracts as a polynomial but has no linear window
  // in the loop variable, so the pair test falls back to "cannot prove".
  EXPECT_TRUE(HasFinding(info, "possible-dependence",
                         "cannot prove write at line"))
      << info.ToString();
}

TEST(ParforDependencyTest, DataDependentIndexSerializes) {
  // The write index is read from a matrix: statically unknowable.
  ParForDepInfo info = Analyze(R"(
    Y = matrix(1, 5, 1);
    X = matrix(0, 5, 1);
    parfor (i in 1:5) {
      k = as.scalar(Y[i, 1]);
      X[k, 1] = i;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "possible-dependence",
                         "(subscript not affine in the loop variable)"))
      << info.ToString();
}

TEST(ParforDependencyTest, MixedWriteSerializes) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 4, 1);
    parfor (i in 1:4) {
      X[i, 1] = i;
      X = matrix(0, 4, 1);
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "mixed-write",
                         "result 'X' is both indexed-written and "
                         "whole-assigned"))
      << info.ToString();
}

TEST(ParforDependencyTest, ReadThenOverwriteSerializes) {
  ParForDepInfo info = Analyze(R"(
    v = 5;
    X = matrix(0, 4, 1);
    parfor (i in 1:4) {
      X[i, 1] = v + i;
      v = i * 2;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "read-overwritten",
                         "shared variable 'v' is read at line"))
      << info.ToString();
}

TEST(ParforDependencyTest, LoopVariableWriteSerializes) {
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 4, 1);
    parfor (i in 1:4) {
      i = 1;
      X[i, 1] = i;
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "loop-var-write",
                         "loop variable 'i' is assigned inside the body"))
      << info.ToString();
}

TEST(ParforDependencyTest, UnseededRandSerializes) {
  // Phase 2: the instruction scan flags the nondeterministic datagen op.
  ParForDepInfo info = Analyze(R"(
    X = matrix(0, 4, 3);
    parfor (i in 1:4) { X[i, ] = rand(rows=1, cols=3); }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "nondet-op",
                         "nondeterministic operation 'rand' without a "
                         "literal seed"))
      << info.ToString();
}

TEST(ParforDependencyTest, ReversedSymbolicInnerRangeSerializes) {
  // `for (j in n:1)` runs n..1 downward, so j spans [1, n] and the window
  // [i+1, i+n] overlaps between parfor iterations. The hull must not be
  // inverted into [n, 1] — that made the disjointness gap come out as
  // `n >= 1` and let the racy loop run parallel.
  ParForDepInfo info = Analyze(R"(
    n = 5;
    X = matrix(1, 10, 1);
    parfor (i in 1:n) {
      for (j in n:1) { X[i + j, 1] = as.scalar(X[i + j, 1]) * 2; }
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "possible-dependence", "cannot prove"))
      << info.ToString();
}

TEST(ParforDependencyTest, UnknownDirectionInnerRangeSerializes) {
  // `for (j in 5:k)`: k >= 5 is not provable, so the range direction — and
  // with it the value hull of j — is unknown and the subscript degrades
  // to the conservative bottom.
  ParForDepInfo info = Analyze(R"(
    k = 9;
    X = matrix(0, 20, 1);
    parfor (i in 1:5) {
      for (j in 5:k) { X[i + j, 1] = i; }
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "possible-dependence", "cannot prove"))
      << info.ToString();
}

TEST(ParforDependencyTest, SiblingLoopFactsStaySiteLocal) {
  // Two sibling loops reuse the variable name j: the first establishes
  // j >= 1 at its site, the second runs j through negative values. The
  // first site's fact must not leak into the second site's window
  // extremization (the sign of j, coefficient of l, is unknown there), so
  // the loop serializes instead of "proving" the windows disjoint.
  ParForDepInfo info = Analyze(R"(
    m = 2;
    X = matrix(0, 100, 1);
    parfor (i in 1:4) {
      for (j in 1:5) { X[5 * i + j, 1] = i; }
      for (j in (0 - 5):(0 - 1)) {
        for (l in 1:m) { X[60 + 5 * i + j * l, 1] = i; }
      }
    }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "possible-dependence", "cannot prove"))
      << info.ToString();
}

TEST(ParforDependencyTest, NondeterministicCalleeSerializes) {
  // Function determinism comes from AnalyzeProgram; phase 2 folds it in.
  ParForDepInfo info = Analyze(R"(
    noise = function() return (Matrix R) {
      R = rand(rows=1, cols=1);
    }
    X = matrix(0, 4, 1);
    parfor (i in 1:4) { X[i, ] = noise(); }
  )");
  EXPECT_EQ(info.verdict, ParForSafety::kSerialize);
  EXPECT_TRUE(HasFinding(info, "nondet-call",
                         "call to nondeterministic function 'noise'"))
      << info.ToString();
}

// --- configuration and verifier integration --------------------------------

TEST(ParforDependencyTest, VerifierSurfacesFindingsAsDiagnostics) {
  LimaConfig config = LimaConfig::Lima();
  Result<std::unique_ptr<Program>> program = CompileScript(R"(
    X = matrix(1, 10, 1);
    s = 0;
    parfor (i in 1:9) {
      X[i + 1, 1] = X[i, 1] + 1;
      s = s + i;
    }
  )", config);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  VerifyReport report = VerifyProgram(**program);
  bool saw_error = false;
  bool saw_warning = false;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.code == "parfor-carried-dependence") {
      saw_error = true;
      EXPECT_EQ(diag.severity, Diagnostic::Severity::kError);
    }
    if (diag.code == "parfor-scalar-accumulation") {
      saw_warning = true;
      EXPECT_EQ(diag.severity, Diagnostic::Severity::kWarning);
    }
  }
  EXPECT_TRUE(saw_error) << report.ToString();
  EXPECT_TRUE(saw_warning) << report.ToString();
  EXPECT_GE(report.num_errors, 1);
}

// --- runtime fallback: unproven loops run with one worker ------------------

TEST(ParforDependencyTest, CarriedDependenceLoopRunsSerialized) {
  const char* script = R"(
    X = matrix(1, 10, 1);
    parfor (i in 1:9) { X[i + 1, 1] = as.scalar(X[i, 1]) + 1; }
    s = sum(X);
  )";
  auto seq = RunWith(script, Workers(1));
  auto par = RunWith(script, Workers(4));
  // Sequential semantics: X becomes 1..10, so the sum is 55 — and the
  // parallel session must match because the loop is forced onto one worker.
  EXPECT_DOUBLE_EQ(*seq->GetDouble("s"), 55.0);
  EXPECT_DOUBLE_EQ(*par->GetDouble("s"), 55.0);
  EXPECT_EQ(seq->stats()->parfor_serialized.load(), 0);
  EXPECT_EQ(par->stats()->parfor_serialized.load(), 1);
}

TEST(ParforDependencyTest, SerializedLineageMatchesSingleWorker) {
  const char* script = R"(
    X = rand(rows=6, cols=1, seed=3);
    s = 0;
    parfor (i in 1:6) { s = s + as.scalar(X[i, 1]); }
  )";
  auto one = RunWith(script, Workers(1));
  auto many = RunWith(script, Workers(4));
  EXPECT_DOUBLE_EQ(*one->GetDouble("s"), *many->GetDouble("s"));
  Result<std::string> lineage_one = one->GetLineage("s");
  Result<std::string> lineage_many = many->GetLineage("s");
  ASSERT_TRUE(lineage_one.ok()) << lineage_one.status().ToString();
  ASSERT_TRUE(lineage_many.ok()) << lineage_many.status().ToString();
  // Identical lineage (modulo process-global id offsets): the serialized
  // loop reuses the sequential execution path, so worker count cannot leak
  // into the trace.
  EXPECT_EQ(CanonicalizeLineageIds(*lineage_one),
            CanonicalizeLineageIds(*lineage_many));
  EXPECT_EQ(many->stats()->parfor_serialized.load(), 1);
}

TEST(ParforDependencyTest, ReversedInnerRangeLoopRunsSerialized) {
  // Runtime companion to ReversedSymbolicInnerRangeSerializes: the loop
  // carries real cross-iteration read/write overlap, so the parallel
  // session must fall back to one worker and match the sequential result.
  const char* script = R"(
    n = 5;
    X = matrix(1, 10, 1);
    parfor (i in 1:n) {
      for (j in n:1) { X[i + j, 1] = as.scalar(X[i + j, 1]) * 2; }
    }
    s = sum(X);
  )";
  auto seq = RunWith(script, Workers(1));
  auto par = RunWith(script, Workers(4));
  EXPECT_DOUBLE_EQ(*par->GetDouble("s"), *seq->GetDouble("s"));
  EXPECT_EQ(par->stats()->parfor_serialized.load(), 1);
}

TEST(ParforDependencyTest, WholeMatrixOverwriteMergesLastWriter) {
  // M is whole-assigned every iteration and never read: the loop stays
  // parallel (verdict safe) and the merge must reproduce the sequential
  // last-iteration value even though iteration 4 writes cells equal to
  // M's initial value — a cell-wise diff merge would keep an earlier
  // worker's value and make the result depend on the worker count.
  const char* script = R"(
    M = matrix(4, 2, 2);
    parfor (i in 1:4) { M = matrix(i, 2, 2); }
    s = sum(M);
  )";
  auto seq = RunWith(script, Workers(1));
  auto par = RunWith(script, Workers(4));
  EXPECT_DOUBLE_EQ(*seq->GetDouble("s"), 16.0);
  EXPECT_DOUBLE_EQ(*par->GetDouble("s"), 16.0);
  EXPECT_EQ(par->stats()->parfor_serialized.load(), 0);
}

TEST(ParforDependencyTest, SafeLoopStaysParallel) {
  auto session = RunWith(R"(
    X = matrix(0, 5, 8);
    parfor (i in 1:8) { X[, i] = matrix(i, 5, 1); }
    s = sum(X);
  )", Workers(4));
  EXPECT_DOUBLE_EQ(*session->GetDouble("s"), 5 * 36.0);
  EXPECT_EQ(session->stats()->parfor_serialized.load(), 0);
}

}  // namespace
}  // namespace lima
