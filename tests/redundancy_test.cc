// Compile-time redundancy & cost analysis (analysis/redundancy.h): the
// lineage-aware GVN must assign equal value numbers exactly to operations a
// lineage-cache probe could deduplicate at runtime — availability, loop, and
// merge-join handling mirror the runtime's actual reuse opportunities — and
// the planner built on top (probe verdicts, redundant-computation warnings,
// cost-based fusion decisions) must never change results or lineage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/redundancy.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "matrix/matrix_io.h"

namespace lima {
namespace {

/// Compiles `script` without planning passes and analyzes the raw
/// instruction stream.
RedundancyAnalysis Analyze(const std::string& script) {
  LimaConfig config = LimaConfig::Base();
  config.redundancy_check = false;
  config.operator_fusion = false;
  Result<std::unique_ptr<Program>> program = CompileScript(script, config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return AnalyzeRedundancy(**program);
}

std::vector<const StaticPlanInstr*> Rows(const RedundancyAnalysis& analysis,
                                         const std::string& opcode) {
  std::vector<const StaticPlanInstr*> rows;
  for (const StaticPlanInstr& row : analysis.plan.instrs) {
    if (row.opcode == opcode) rows.push_back(&row);
  }
  return rows;
}

int CountDiagnostics(const RedundancyAnalysis& analysis,
                     const std::string& code) {
  int n = 0;
  for (const Diagnostic& diag : analysis.diagnostics) n += diag.code == code;
  return n;
}

// ---------------------------------------------------------------------------
// Value numbering
// ---------------------------------------------------------------------------

TEST(RedundancyTest, SameExpressionSharesValueNumber) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=500, cols=100, seed=1);
    A = t(X) %*% X;
    B = t(X) %*% X;
    result = sum(A) + sum(B);
  )");
  std::vector<const StaticPlanInstr*> tsmm = Rows(analysis, "tsmm");
  ASSERT_EQ(tsmm.size(), 2u);
  EXPECT_EQ(tsmm[0]->value_number, tsmm[1]->value_number);
  EXPECT_FALSE(tsmm[0]->redundant);
  EXPECT_TRUE(tsmm[1]->redundant);
  EXPECT_EQ(CountDiagnostics(analysis, "redundant-computation"), 2)
      << "tsmm + the second sum (A and B share a value number)";
}

TEST(RedundancyTest, DifferentLiteralsGetDifferentValueNumbers) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=10, cols=10, seed=1);
    A = X + 1;
    B = X + 2;
    result = sum(A) + sum(B);
  )");
  std::vector<const StaticPlanInstr*> adds = Rows(analysis, "+");
  ASSERT_GE(adds.size(), 2u);
  EXPECT_NE(adds[0]->value_number, adds[1]->value_number);
  EXPECT_FALSE(adds[1]->redundant);
}

TEST(RedundancyTest, NoCommutativityAssumed) {
  // The runtime lineage hash distinguishes operand order, so the static
  // hash must too — X - Y and Y - X never collide, and even X + Y vs Y + X
  // stay distinct (the cache would miss as well).
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=8, cols=8, seed=1);
    Y = rand(rows=8, cols=8, seed=2);
    A = X - Y;
    B = Y - X;
    C = X + Y;
    D = Y + X;
    result = sum(A) + sum(B) + sum(C) + sum(D);
  )");
  std::vector<const StaticPlanInstr*> subs = Rows(analysis, "-");
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_NE(subs[0]->value_number, subs[1]->value_number);
  std::vector<const StaticPlanInstr*> adds = Rows(analysis, "+");
  ASSERT_GE(adds.size(), 2u);
  EXPECT_NE(adds[0]->value_number, adds[1]->value_number);
}

TEST(RedundancyTest, CopyPropagatesValueNumbers) {
  // U = T is a variable copy: downstream uses of U must resolve to T's
  // value number, so T * 2 and U * 2 are provably the same computation.
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=300, cols=300, seed=1);
    T = X %*% X;
    U = T;
    B = T %*% X;
    C = U %*% X;
    result = sum(B) + sum(C);
  )");
  std::vector<const StaticPlanInstr*> mms = Rows(analysis, "mm");
  ASSERT_EQ(mms.size(), 3u);
  EXPECT_EQ(mms[1]->value_number, mms[2]->value_number);
  EXPECT_TRUE(mms[2]->redundant);
}

TEST(RedundancyTest, RebindingInvalidatesValueNumbers) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=10, cols=10, seed=1);
    A = X + 1;
    s1 = sum(A);
    A = X + 2;
    s2 = sum(A);
    result = s1 + s2;
  )");
  std::vector<const StaticPlanInstr*> sums = Rows(analysis, "sum");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NE(sums[0]->value_number, sums[1]->value_number);
  EXPECT_FALSE(sums[1]->redundant);
}

TEST(RedundancyTest, UnseededRandNeverMatches) {
  RedundancyAnalysis analysis = Analyze(R"(
    A = rand(rows=4, cols=4);
    B = rand(rows=4, cols=4);
    result = sum(A) + sum(B);
  )");
  std::vector<const StaticPlanInstr*> rands = Rows(analysis, "rand");
  ASSERT_EQ(rands.size(), 2u);
  EXPECT_NE(rands[0]->value_number, rands[1]->value_number);
  EXPECT_FALSE(rands[1]->redundant);
  // The downstream sums must not match either.
  std::vector<const StaticPlanInstr*> sums = Rows(analysis, "sum");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NE(sums[0]->value_number, sums[1]->value_number);
  EXPECT_EQ(CountDiagnostics(analysis, "redundant-computation"), 0);
}

TEST(RedundancyTest, SeededRandIsDeterministic) {
  // A literal non-negative seed makes rand deterministic — exactly the
  // condition under which the runtime caches it — so two identical seeded
  // rands share a value number.
  RedundancyAnalysis analysis = Analyze(R"(
    A = rand(rows=4, cols=4, seed=7);
    B = rand(rows=4, cols=4, seed=7);
    C = rand(rows=4, cols=4, seed=8);
    result = sum(A) + sum(B) + sum(C);
  )");
  std::vector<const StaticPlanInstr*> rands = Rows(analysis, "rand");
  ASSERT_EQ(rands.size(), 3u);
  EXPECT_EQ(rands[0]->value_number, rands[1]->value_number);
  EXPECT_NE(rands[0]->value_number, rands[2]->value_number);
  EXPECT_TRUE(rands[1]->redundant);
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

TEST(RedundancyTest, AvailableOnBothBranchesWarnsAfterMerge) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=400, cols=100, seed=1);
    c = 1;
    if (c > 0) { A = t(X) %*% X; r = sum(A); }
    else       { B = t(X) %*% X; r = mean(B); }
    C = t(X) %*% X;
    result = r + sum(C);
  )");
  std::vector<const StaticPlanInstr*> tsmm = Rows(analysis, "tsmm");
  ASSERT_EQ(tsmm.size(), 3u);
  EXPECT_EQ(tsmm[0]->value_number, tsmm[2]->value_number);
  EXPECT_TRUE(tsmm[2]->redundant);
  EXPECT_TRUE(tsmm[2]->cross_block);
}

TEST(RedundancyTest, AvailableOnOneBranchOnlyIsNotRedundant) {
  // The then-branch may not execute, so the post-merge tsmm is not provably
  // redundant (the runtime cache would still probe — verdict stays
  // redundant-in-program via the shared value number — but no warning).
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=400, cols=100, seed=1);
    c = 1;
    r = 0;
    if (c > 0) { A = t(X) %*% X; r = sum(A); }
    C = t(X) %*% X;
    result = r + sum(C);
  )");
  std::vector<const StaticPlanInstr*> tsmm = Rows(analysis, "tsmm");
  ASSERT_EQ(tsmm.size(), 2u);
  EXPECT_EQ(tsmm[0]->value_number, tsmm[1]->value_number);
  EXPECT_FALSE(tsmm[1]->redundant);
}

TEST(RedundancyTest, BranchDependentValueGetsPhiNumber) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=10, cols=10, seed=1);
    c = 1;
    if (c > 0) { Y = X + 1; } else { Y = X + 2; }
    A = sum(Y);
    B = sum(Y);
    result = A + B;
  )");
  // Y's phi value is stable, so the two sums of it still unify.
  std::vector<const StaticPlanInstr*> sums = Rows(analysis, "sum");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0]->value_number, sums[1]->value_number);
  EXPECT_TRUE(sums[1]->redundant);
}

TEST(RedundancyTest, LoopCarriedValuesInvalidateAtLoopHead) {
  // S changes each iteration: the in-loop product must NOT unify with the
  // pre-loop product of the initial S.
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=20, cols=20, seed=1);
    S = X + 0;
    P = X %*% S;
    for (i in 1:3) {
      S = S + 1;
      Q = X %*% S;
    }
    result = sum(P) + sum(Q);
  )");
  std::vector<const StaticPlanInstr*> mms = Rows(analysis, "mm");
  ASSERT_EQ(mms.size(), 2u);
  EXPECT_NE(mms[0]->value_number, mms[1]->value_number);
  EXPECT_FALSE(mms[1]->redundant);
}

TEST(RedundancyTest, LoopInvariantRedundancyIsFlagged) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=400, cols=100, seed=1);
    A = t(X) %*% X;
    s = 0;
    for (i in 1:3) {
      B = t(X) %*% X;
      s = s + sum(B);
    }
    result = s + sum(A);
  )");
  std::vector<const StaticPlanInstr*> tsmm = Rows(analysis, "tsmm");
  ASSERT_EQ(tsmm.size(), 2u);
  EXPECT_EQ(tsmm[0]->value_number, tsmm[1]->value_number);
  EXPECT_TRUE(tsmm[1]->redundant);
  EXPECT_TRUE(tsmm[1]->cross_block);
  EXPECT_GE(CountDiagnostics(analysis, "redundant-computation"), 1);
}

TEST(RedundancyTest, LoopBodyDefsNotAvailableAfterLoop) {
  // A while loop may run zero times, so values computed only inside it are
  // not available after it.
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=400, cols=100, seed=1);
    i = 10;
    s = 0;
    while (i < 3) {
      A = t(X) %*% X;
      s = s + sum(A);
      i = i + 1;
    }
    C = t(X) %*% X;
    result = s + sum(C);
  )");
  std::vector<const StaticPlanInstr*> tsmm = Rows(analysis, "tsmm");
  ASSERT_EQ(tsmm.size(), 2u);
  EXPECT_FALSE(tsmm[1]->redundant);
}

TEST(RedundancyTest, WhileLoopAnalysisConverges) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=10, cols=10, seed=1);
    i = 0;
    while (i < 5) {
      X = X %*% X;
      i = i + 1;
    }
    result = sum(X);
  )");
  EXPECT_TRUE(analysis.plan.analyzed);
  EXPECT_GT(analysis.plan.num_instructions, 0);
  EXPECT_EQ(analysis.plan.num_instructions,
            static_cast<int>(analysis.plan.instrs.size()));
}

// ---------------------------------------------------------------------------
// Interprocedural propagation
// ---------------------------------------------------------------------------

TEST(RedundancyTest, DeterministicCallsPropagateValueNumbers) {
  // f is pure: two calls on the same argument produce the same abstract
  // value, so the downstream products unify.
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = M %*% M; }
    X = rand(rows=200, cols=200, seed=1);
    A = f(X);
    B = f(X);
    P = A %*% X;
    Q = B %*% X;
    result = sum(P) + sum(Q);
  )");
  std::vector<const StaticPlanInstr*> main_mms;
  for (const StaticPlanInstr* row : Rows(analysis, "mm")) {
    if (row->function == "main") main_mms.push_back(row);
  }
  ASSERT_EQ(main_mms.size(), 2u);
  EXPECT_EQ(main_mms[0]->value_number, main_mms[1]->value_number);
  EXPECT_TRUE(main_mms[1]->redundant);
}

TEST(RedundancyTest, DifferentArgumentsGiveDifferentCallValues) {
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = M %*% M; }
    X = rand(rows=20, cols=20, seed=1);
    Y = rand(rows=20, cols=20, seed=2);
    A = f(X);
    B = f(Y);
    sa = sum(A);
    sb = sum(B);
    result = sa + sb;
  )");
  std::vector<const StaticPlanInstr*> sums;
  for (const StaticPlanInstr* row : Rows(analysis, "sum")) {
    if (row->function == "main") sums.push_back(row);
  }
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NE(sums[0]->value_number, sums[1]->value_number);
}

TEST(RedundancyTest, NondeterministicCalleePoisonsCallValues) {
  RedundancyAnalysis analysis = Analyze(R"(
    g = function(Matrix M) return (Matrix R) { R = M + rand(rows=20, cols=20); }
    X = rand(rows=20, cols=20, seed=1);
    A = g(X);
    B = g(X);
    sa = sum(A);
    sb = sum(B);
    result = sa + sb;
  )");
  std::vector<const StaticPlanInstr*> sums;
  for (const StaticPlanInstr* row : Rows(analysis, "sum")) {
    if (row->function == "main") sums.push_back(row);
  }
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NE(sums[0]->value_number, sums[1]->value_number);
  EXPECT_EQ(CountDiagnostics(analysis, "redundant-computation"), 0);
}

TEST(RedundancyTest, FunctionBodiesAreAnalyzed) {
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = (M + 1) * 2; }
    X = rand(rows=4, cols=4, seed=1);
    A = f(X);
    result = sum(A);
  )");
  bool saw_function_row = false;
  for (const StaticPlanInstr& row : analysis.plan.instrs) {
    if (row.function != "main") saw_function_row = true;
  }
  EXPECT_TRUE(saw_function_row);
}

// ---------------------------------------------------------------------------
// Planner verdicts and determinism
// ---------------------------------------------------------------------------

TEST(RedundancyTest, CheapOpsAreMustCompute) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=100, cols=50, seed=1);
    r = nrow(X);
    result = r + 0;
  )");
  std::vector<const StaticPlanInstr*> rows = Rows(analysis, "nrow");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->verdict, ProbeVerdict::kMustCompute);
}

TEST(RedundancyTest, ExpensiveOpsAreProbeWorthwhile) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=500, cols=100, seed=1);
    A = t(X) %*% X;
    result = sum(A);
  )");
  std::vector<const StaticPlanInstr*> rows = Rows(analysis, "tsmm");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->verdict, ProbeVerdict::kProbeWorthwhile);
  EXPECT_TRUE(rows[0]->cost_known);
  EXPECT_GT(rows[0]->est_flops, 1e6);
}

TEST(RedundancyTest, StaticallyRecurringValuesAreRedundantInProgram) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=500, cols=100, seed=1);
    A = t(X) %*% X;
    B = t(X) %*% X;
    result = sum(A) + sum(B);
  )");
  for (const StaticPlanInstr* row : Rows(analysis, "tsmm")) {
    EXPECT_EQ(row->verdict, ProbeVerdict::kRedundantInProgram);
  }
}

TEST(RedundancyTest, UnknownShapesStayProbeWorthwhile) {
  // The argument comes from a file that does not exist at compile time, so
  // its shape is unknown: no cost estimate, and the planner must not claim
  // must-compute inside the body.
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = M + 1; }
    X = read("no_such_matrix.bin");
    A = f(X);
    result = sum(A);
  )");
  int body_adds = 0;
  for (const StaticPlanInstr& row : analysis.plan.instrs) {
    if (row.function == "f" && row.opcode == "+") {
      ++body_adds;
      EXPECT_EQ(row.verdict, ProbeVerdict::kProbeWorthwhile);
      EXPECT_FALSE(row.cost_known);
    }
  }
  EXPECT_EQ(body_adds, 1);
}

// ---------------------------------------------------------------------------
// One rule set with shape inference: call contexts and file headers
// ---------------------------------------------------------------------------

/// The plan rows of `opcode` inside function `function`.
std::vector<const StaticPlanInstr*> RowsIn(const RedundancyAnalysis& analysis,
                                           const std::string& function,
                                           const std::string& opcode) {
  std::vector<const StaticPlanInstr*> rows;
  for (const StaticPlanInstr* row : Rows(analysis, opcode)) {
    if (row->function == function) rows.push_back(row);
  }
  return rows;
}

TEST(RedundancyTest, CallContextSuppliesArgumentShapes) {
  // f's only call passes a 4x4 matrix: the body's + has a known, cheap cost.
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = M + 1; }
    X = rand(rows=4, cols=4, seed=1);
    A = f(X);
    result = sum(A);
  )");
  std::vector<const StaticPlanInstr*> adds = RowsIn(analysis, "f", "+");
  ASSERT_EQ(adds.size(), 1u);
  EXPECT_TRUE(adds[0]->cost_known);
  EXPECT_EQ(adds[0]->verdict, ProbeVerdict::kMustCompute);
}

TEST(RedundancyTest, UncalledFunctionsHaveNoRows) {
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = (M + 1) * 2; }
    g = function(Matrix M) return (Matrix R) { R = M %*% M; }
    X = rand(rows=4, cols=4, seed=1);
    A = f(X);
    result = sum(A);
  )");
  int f_rows = 0;
  for (const StaticPlanInstr& row : analysis.plan.instrs) {
    EXPECT_NE(row.function, "g") << row.opcode << " @ " << row.location;
    f_rows += row.function == "f";
  }
  EXPECT_EQ(f_rows, 2);
}

TEST(RedundancyTest, ReadOfExistingFileGivesKnownCost) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lima_redundancy_test_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(WriteMatrixFile(path, Matrix(3, 5, 1.0)).ok());
  RedundancyAnalysis analysis = Analyze("X = read(\"" + path + "\");\n" +
                                        "Y = X * 2;\n" +
                                        "result = sum(Y);\n");
  std::filesystem::remove(path);
  std::vector<const StaticPlanInstr*> products = Rows(analysis, "*");
  ASSERT_EQ(products.size(), 1u);
  EXPECT_TRUE(products[0]->cost_known);
  // 15 cells in, one scalar, 15 cells out.
  EXPECT_EQ(products[0]->est_bytes, (15 + 1 + 15) * 8);
}

TEST(RedundancyTest, FileTheProgramWritesIsNotPeeked) {
  // A 3x3 file left by an earlier run is overwritten with a 2x5 matrix
  // before the read: the compile-time header is stale, so the analysis must
  // not take the read's shape from it (the run computes the product).
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lima_redundancy_stale_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(WriteMatrixFile(path, Matrix(3, 3, 1.0)).ok());
  const std::string script =
      "X = rand(rows=2, cols=5, seed=1);\n"
      "write(X, \"" + path + "\");\n"
      "Y = read(\"" + path + "\");\n"
      "Z = Y %*% rand(rows=5, cols=1, seed=2);\n"
      "print(sum(Z));\n";
  LimaSession session(LimaConfig::Lima());
  Result<VerifyReport> report = session.Verify(script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const Diagnostic& diag : report->diagnostics) {
    EXPECT_NE(diag.code, "shape-mismatch") << diag.message;
  }
  EXPECT_TRUE(report->ok()) << report->ToString();

  // A write whose path is not a literal may write any file.
  const std::string dynamic =
      "p = \"" + path + "\";\n"
      "write(rand(rows=2, cols=5, seed=1), p);\n"
      "Y = read(\"" + path + "\");\n"
      "Z = Y %*% rand(rows=5, cols=1, seed=2);\n"
      "print(sum(Z));\n";
  Result<VerifyReport> dynamic_report = session.Verify(dynamic);
  ASSERT_TRUE(dynamic_report.ok()) << dynamic_report.status().ToString();
  EXPECT_TRUE(dynamic_report->ok()) << dynamic_report->ToString();

  ASSERT_TRUE(session.Run(script).ok());
  EXPECT_FALSE(session.ConsumeOutput().empty());
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lineage");
}

TEST(RedundancyTest, FunctionCalledWithTwoShapesKeepsCostUnknown) {
  // The two call contexts give the body's + different costs (16 and 24
  // cells): joined, the cost is unknown and the verdict stays the default.
  RedundancyAnalysis analysis = Analyze(R"(
    f = function(Matrix M) return (Matrix R) { R = M + 1; }
    X = rand(rows=4, cols=4, seed=1);
    Y = rand(rows=8, cols=3, seed=2);
    A = f(X);
    B = f(Y);
    result = sum(A) + sum(B);
  )");
  std::vector<const StaticPlanInstr*> adds = RowsIn(analysis, "f", "+");
  ASSERT_EQ(adds.size(), 1u);
  EXPECT_FALSE(adds[0]->cost_known);
  EXPECT_EQ(adds[0]->verdict, ProbeVerdict::kProbeWorthwhile);
}

TEST(RedundancyTest, TooManyCallContextsLeaveCostUnknown) {
  // The analysis keeps the facts of at most 64 call contexts per
  // instruction (a call tree can multiply them exponentially); past that,
  // even agreeing contexts give up the cost.
  std::string script =
      "f = function(Matrix M) return (Matrix R) { R = M + 1; }\n"
      "X = rand(rows=4, cols=4, seed=1);\n"
      "s = 0;\n";
  for (int i = 0; i < 65; ++i) script += "s = s + sum(f(X));\n";
  RedundancyAnalysis analysis = Analyze(script);
  std::vector<const StaticPlanInstr*> adds = RowsIn(analysis, "f", "+");
  ASSERT_EQ(adds.size(), 1u);
  EXPECT_FALSE(adds[0]->cost_known);
  EXPECT_EQ(adds[0]->verdict, ProbeVerdict::kProbeWorthwhile);
}

/// A call tree `levels` deep: f1 calls f2 three times, f2 calls f3 three
/// times, and so on down to the leaf, whose multiply costs 4x4 cells.
std::string CallTree(int levels) {
  std::string script;
  for (int level = levels; level >= 1; --level) {
    const std::string fn = "f" + std::to_string(level);
    script += fn + " = function(Matrix M) return (Matrix R) {\n";
    if (level == levels) {
      script += "  R = M %*% M;\n";
    } else {
      const std::string next = "f" + std::to_string(level + 1);
      script += "  A = M * 2;\n  R = " + next + "(A) + " + next + "(A) + " +
                next + "(A);\n";
    }
    script += "}\n";
  }
  return script + "X = rand(rows=4, cols=4, seed=1);\nresult = sum(f1(X));\n";
}

/// The analysis of CallTree(levels), compiled without planning passes.
ProgramAnalysis AnalyzeCallTree(int levels) {
  LimaConfig config = LimaConfig::Base();
  config.redundancy_check = false;
  config.operator_fusion = false;
  Result<std::unique_ptr<Program>> program =
      CompileScript(CallTree(levels), config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return AnalyzeShapesAndValues(**program, {});
}

TEST(RedundancyTest, CallTreePastTheWalkBudgetDegrades) {
  // 12 levels of three calls each would walk 265,720 bodies. The analysis
  // stops walking at kMaxBodyWalks, warns at the calls it does not walk, and
  // gives up the shape-derived facts of every body instruction: also of f1,
  // whose one context was walked before the budget ran out.
  ProgramAnalysis analysis = AnalyzeCallTree(12);
  EXPECT_EQ(analysis.body_walks, kMaxBodyWalks);
  int budget_warnings = 0;
  for (const Diagnostic& diag : analysis.shapes.diagnostics) {
    budget_warnings += diag.code == "shape-unknown-degraded" &&
                       diag.message.find("function-body walks") !=
                           std::string::npos;
  }
  EXPECT_GT(budget_warnings, 0);
  std::vector<const StaticPlanInstr*> leaf =
      RowsIn(analysis.redundancy, "f12", "mm");
  ASSERT_EQ(leaf.size(), 1u);
  EXPECT_FALSE(leaf[0]->cost_known);
  std::vector<const StaticPlanInstr*> top =
      RowsIn(analysis.redundancy, "f1", "*");
  ASSERT_EQ(top.size(), 1u);
  EXPECT_FALSE(top[0]->cost_known);
}

TEST(RedundancyTest, CallTreeWithinTheWalkBudgetKeepsItsFacts) {
  // 6 levels walk 364 bodies: no warning, and the one context of f1 keeps its
  // cost.
  ProgramAnalysis analysis = AnalyzeCallTree(6);
  EXPECT_EQ(analysis.body_walks, 364);
  EXPECT_TRUE(analysis.shapes.diagnostics.empty());
  std::vector<const StaticPlanInstr*> top =
      RowsIn(analysis.redundancy, "f1", "*");
  ASSERT_EQ(top.size(), 1u);
  EXPECT_TRUE(top[0]->cost_known);
}

TEST(RedundancyTest, CheapRedundancyIsNotWarned) {
  // nrow twice is redundant but far below the warning threshold: flagging
  // it would drown users in noise the reuse cache handles for free.
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=100, cols=50, seed=1);
    a = nrow(X);
    b = nrow(X);
    result = a + b;
  )");
  std::vector<const StaticPlanInstr*> rows = Rows(analysis, "nrow");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[1]->redundant);
  EXPECT_EQ(CountDiagnostics(analysis, "redundant-computation"), 0);
}

TEST(RedundancyTest, WarningCarriesProvenance) {
  RedundancyAnalysis analysis = Analyze(R"(
    X = rand(rows=500, cols=100, seed=1);
    A = t(X) %*% X;
    B = t(X) %*% X;
    result = sum(A) + sum(B);
  )");
  ASSERT_GE(analysis.diagnostics.size(), 1u);
  const Diagnostic& diag = analysis.diagnostics[0];
  EXPECT_EQ(diag.code, "redundant-computation");
  EXPECT_EQ(diag.severity, Diagnostic::Severity::kWarning);
  EXPECT_NE(diag.message.find("already produced at"), std::string::npos)
      << diag.message;
  EXPECT_GT(diag.source_line, 0);
}

TEST(RedundancyTest, AnalysisIsDeterministicAcrossRuns) {
  const char* script = R"(
    f = function(Matrix M) return (Matrix R) { R = M %*% M; }
    g = function(Matrix M) return (Matrix R) { R = M + rand(rows=8, cols=8); }
    X = rand(rows=8, cols=8, seed=1);
    A = f(X);
    B = g(X);
    c = 1;
    if (c > 0) { Y = A + B; } else { Y = A - B; }
    s = 0;
    for (i in 1:3) { s = s + sum(Y + i); }
    result = s;
  )";
  RedundancyAnalysis first = Analyze(script);
  RedundancyAnalysis second = Analyze(script);
  ASSERT_EQ(first.plan.instrs.size(), second.plan.instrs.size());
  for (size_t i = 0; i < first.plan.instrs.size(); ++i) {
    EXPECT_EQ(first.plan.instrs[i].value_number,
              second.plan.instrs[i].value_number)
        << first.plan.instrs[i].opcode << " @ "
        << first.plan.instrs[i].location;
    EXPECT_EQ(first.plan.instrs[i].verdict, second.plan.instrs[i].verdict);
  }
  EXPECT_EQ(first.plan.num_value_numbers, second.plan.num_value_numbers);
  EXPECT_EQ(first.diagnostics.size(), second.diagnostics.size());
}

// ---------------------------------------------------------------------------
// Planning must never change observable behavior
// ---------------------------------------------------------------------------

struct PlannedRun {
  double result;
  LineageItemPtr lineage;  // lineage IDs are process-global; compare by hash
  int64_t probes;
  int64_t hits;
  int64_t probe_skips;
};

PlannedRun RunPlanned(const std::string& script, bool redundancy, int workers,
                      ReuseMode mode = ReuseMode::kHybrid) {
  LimaConfig config = LimaConfig::Lima();
  config.reuse_mode = mode;
  config.redundancy_check = redundancy;
  config.operator_fusion = true;
  config.parfor_workers = workers;
  LimaSession session(config);
  Status status = session.Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  LineageItemPtr lineage = session.GetLineageItem("result");
  EXPECT_NE(lineage, nullptr);
  return {*session.GetDouble("result"), std::move(lineage),
          session.stats()->cache_probes.load(),
          session.stats()->cache_hits.load(),
          session.stats()->probe_disabled_static.load()};
}

TEST(RedundancyTest, ResultsAndLineageIdenticalAcrossPlanningAndWorkers) {
  const char* script = R"(
    X = rand(rows=100, cols=20, seed=1);
    R = matrix(0, 8, 1);
    parfor (i in 1:8) {
      Y = ((X + i) * 2 - X) / (i + 1);
      R[i, 1] = sum(Y) + sum(t(X) %*% X);
    }
    result = sum(R);
  )";
  // Parallel parfor merges worker-local traces into a parfor-merge item, so
  // lineage is only comparable at a fixed worker count: at each count the
  // planner must be invisible, and results must agree everywhere.
  PlannedRun baseline = RunPlanned(script, false, 1);
  for (int workers : {1, 8}) {
    PlannedRun off = RunPlanned(script, false, workers);
    PlannedRun on = RunPlanned(script, true, workers);
    EXPECT_EQ(off.result, baseline.result) << "workers=" << workers;
    EXPECT_EQ(on.result, baseline.result) << "workers=" << workers;
    EXPECT_EQ(on.lineage->hash(), off.lineage->hash())
        << "workers=" << workers;
    EXPECT_TRUE(on.lineage->Equals(*off.lineage)) << "workers=" << workers;
  }
}

TEST(RedundancyTest, MustComputeSkipsProbesWithoutLosingHits) {
  // Every X + i / sum is far below the probe threshold: with planning on,
  // probes drop and probe_disabled_static records the skips; the (zero)
  // hits and the results are unchanged.
  const char* script = R"(
    X = rand(rows=2, cols=2, seed=1);
    s = 0;
    for (i in 1:40) { s = s + sum(X + i); }
    result = s;
  )";
  // Full-only reuse: under kHybrid the partial-rewrite path still probes,
  // which is exactly what the skip must not disable.
  PlannedRun off = RunPlanned(script, false, 1, ReuseMode::kFull);
  PlannedRun on = RunPlanned(script, true, 1, ReuseMode::kFull);
  EXPECT_EQ(on.result, off.result);
  EXPECT_GT(on.probe_skips, 0);
  EXPECT_EQ(off.probe_skips, 0);
  EXPECT_LT(on.probes, off.probes);
  EXPECT_EQ(on.hits, off.hits);
}

TEST(RedundancyTest, MustComputeValuesAreNotCached) {
  // Recomputing a must-compute value is cheaper than looking it up, so the
  // runtime neither probes nor puts it: with planning on, the 40 cheap
  // X + i results never enter the cache.
  const char* script = R"(
    X = rand(rows=2, cols=2, seed=1);
    s = 0;
    for (i in 1:40) { s = s + sum(X + i); }
    result = s;
  )";
  for (bool planned : {false, true}) {
    LimaConfig config = LimaConfig::Lima();
    config.reuse_mode = ReuseMode::kFull;
    config.redundancy_check = planned;
    LimaSession session(config);
    ASSERT_TRUE(session.Run(script).ok());
    if (planned) {
      EXPECT_EQ(session.cache()->NumEntries(), 0);
    } else {
      EXPECT_GE(session.cache()->NumEntries(), 40);
    }
  }
}

TEST(RedundancyTest, RedundantInProgramStillProbesAndHits) {
  // The planner's redundant-in-program verdict predicts a runtime hit; the
  // probe must stay enabled so the cache can serve it.
  const char* script = R"(
    X = rand(rows=100, cols=40, seed=1);
    A = t(X) %*% X;
    B = t(X) %*% X;
    result = sum(A) + sum(B);
  )";
  PlannedRun on = RunPlanned(script, true, 1);
  EXPECT_GE(on.hits, 1);
}

// ---------------------------------------------------------------------------
// Cost-based fusion planning
// ---------------------------------------------------------------------------

const StaticPlan& CompilePlanned(std::unique_ptr<Program>* keep,
                                 const std::string& script,
                                 bool reuse = false) {
  LimaConfig config = reuse ? LimaConfig::Lima() : LimaConfig::Base();
  config.redundancy_check = true;
  config.operator_fusion = true;
  Result<std::unique_ptr<Program>> program = CompileScript(script, config);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  *keep = std::move(*program);
  return (*keep)->static_plan();
}

TEST(RedundancyTest, ProfitableChainsAreFusedWithPredictedSaving) {
  std::unique_ptr<Program> program;
  const StaticPlan& plan = CompilePlanned(&program, R"(
    X = rand(rows=500, cols=100, seed=1);
    Y = ((X + X) * 3 - X) / 5 + 1;
    result = sum(Y);
  )");
  int applied = 0;
  for (const StaticFusionSite& site : plan.fusion_sites) {
    if (site.applied) {
      ++applied;
      EXPECT_EQ(site.decision, "profitable");
      EXPECT_GT(site.predicted_saving_nanos, 0);
      EXPECT_GT(site.saved_bytes, 0);
      EXPECT_GE(site.num_steps, 2);
    }
  }
  EXPECT_GE(applied, 1);
}

TEST(RedundancyTest, ScalarChainsAreCostRejected) {
  std::unique_ptr<Program> program;
  const StaticPlan& plan = CompilePlanned(&program, R"(
    a = 2;
    b = 3;
    c = (a + b) * (a - b) / 2;
    result = c;
  )");
  bool saw_scalar_rejection = false;
  for (const StaticFusionSite& site : plan.fusion_sites) {
    if (site.decision == "cost-rejected:scalar") saw_scalar_rejection = true;
    EXPECT_FALSE(site.applied);
  }
  EXPECT_TRUE(saw_scalar_rejection);
}

TEST(RedundancyTest, BroadcastChainsAreCostRejected) {
  // colMeans(X) is 1 x c against X's r x c: fusing would force the fused
  // kernel's materialized stepwise fallback, losing the dedicated
  // broadcast kernels.
  std::unique_ptr<Program> program;
  const StaticPlan& plan = CompilePlanned(&program, R"(
    X = rand(rows=300, cols=80, seed=1);
    Y = (X - colMeans(X)) / 2;
    result = sum(Y);
  )");
  bool saw_broadcast_rejection = false;
  for (const StaticFusionSite& site : plan.fusion_sites) {
    if (site.decision == "cost-rejected:broadcast") {
      saw_broadcast_rejection = true;
    }
  }
  EXPECT_TRUE(saw_broadcast_rejection);
}

TEST(RedundancyTest, RecurringIntermediatesStayMaterializedUnderReuse) {
  // exp(X) occurs twice statically: with the lineage cache on, fusing it
  // away would destroy the reuse opportunity, so the planner keeps it.
  std::unique_ptr<Program> program;
  const StaticPlan& plan = CompilePlanned(&program, R"(
    X = rand(rows=400, cols=100, seed=1);
    A = exp(X) + 1;
    B = exp(X) + 2;
    result = sum(A) + sum(B);
  )", /*reuse=*/true);
  int cse_rejections = 0;
  for (const StaticFusionSite& site : plan.fusion_sites) {
    if (site.decision == "cost-rejected:cse") ++cse_rejections;
  }
  EXPECT_GE(cse_rejections, 2);
}

TEST(RedundancyTest, FusionPlanDeterministicAcrossCompiles) {
  const char* script = R"(
    X = rand(rows=300, cols=60, seed=1);
    Y = ((X + X) * 3 - X) / 5 + 1;
    Z = (X - colMeans(X)) / 2;
    result = sum(Y) + sum(Z);
  )";
  std::unique_ptr<Program> p1, p2;
  const StaticPlan& a = CompilePlanned(&p1, script);
  const StaticPlan& b = CompilePlanned(&p2, script);
  ASSERT_EQ(a.fusion_sites.size(), b.fusion_sites.size());
  for (size_t i = 0; i < a.fusion_sites.size(); ++i) {
    EXPECT_EQ(a.fusion_sites[i].decision, b.fusion_sites[i].decision);
    EXPECT_EQ(a.fusion_sites[i].output, b.fusion_sites[i].output);
    EXPECT_EQ(a.fusion_sites[i].applied, b.fusion_sites[i].applied);
    EXPECT_EQ(a.fusion_sites[i].predicted_saving_nanos,
              b.fusion_sites[i].predicted_saving_nanos);
  }
}

// ---------------------------------------------------------------------------
// Report formats
// ---------------------------------------------------------------------------

TEST(RedundancyTest, PlanReportsRenderBothFormats) {
  std::unique_ptr<Program> program;
  const StaticPlan& plan = CompilePlanned(&program, R"(
    X = rand(rows=100, cols=20, seed=1);
    A = t(X) %*% X;
    B = t(X) %*% X;
    Y = ((X + X) * 3 - X) / 5;
    result = sum(A) + sum(B) + sum(Y);
  )");
  std::string text = StaticPlanToText(plan);
  EXPECT_NE(text.find("static plan"), std::string::npos);
  EXPECT_NE(text.find("redundant"), std::string::npos);
  std::string json = StaticPlanToJson(plan);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion_sites\""), std::string::npos);
  // Braces balance (cheap structural sanity; full parse happens in ci.sh).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace lima
