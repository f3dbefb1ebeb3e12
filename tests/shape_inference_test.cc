// Interprocedural shape inference: the snippet corpus exercises constant
// and symbolic dimension propagation, loop widening, context-sensitive
// function calls, the shape-mismatch / shape-unknown-degraded diagnostics,
// the static memory estimator, and the registry's rule-coverage gate.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "analysis/opcode_registry.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "lang/compiler.h"
#include "lang/session.h"

namespace lima {
namespace {

std::unique_ptr<Program> Compile(const std::string& script) {
  Result<std::unique_ptr<Program>> program =
      CompileScript(script, LimaConfig::Base());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).ValueOrDie();
}

ShapeAnalysis Analyze(const std::string& script,
                      std::vector<ShapeAssumption> assumptions = {}) {
  std::unique_ptr<Program> program = Compile(script);
  return InferShapes(*program, assumptions);
}

// Final shape of `name` at main-scope exit, or Unknown when untracked.
ShapeInfo FinalShape(const ShapeAnalysis& analysis, const std::string& name) {
  auto it = analysis.final_shapes.find(name);
  return it == analysis.final_shapes.end() ? ShapeInfo::Unknown() : it->second;
}

void ExpectMatrix(const ShapeAnalysis& analysis, const std::string& name,
                  int64_t rows, int64_t cols) {
  ShapeInfo shape = FinalShape(analysis, name);
  ASSERT_TRUE(shape.is_matrix()) << name << ": " << shape.ToString();
  EXPECT_EQ(shape.rows, Dim::Const(rows)) << name << ": " << shape.ToString();
  EXPECT_EQ(shape.cols, Dim::Const(cols)) << name << ": " << shape.ToString();
}

int CountCode(const ShapeAnalysis& analysis, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

// ---- Constant dimension propagation ---------------------------------------

TEST(ShapeInferenceTest, RandHasConstDims) {
  ShapeAnalysis a = Analyze("X = rand(rows=10, cols=5, seed=1);");
  ExpectMatrix(a, "X", 10, 5);
  EXPECT_FALSE(a.has_errors());
  EXPECT_EQ(a.num_instructions, a.num_fully_known);
}

TEST(ShapeInferenceTest, ScalarConstFeedsDatagen) {
  ShapeAnalysis a = Analyze("n = 4 * 5; X = matrix(0, n, n + 1);");
  ExpectMatrix(a, "X", 20, 21);
}

TEST(ShapeInferenceTest, OverflowingConstantsAreUnknown) {
  // Each product or sum leaves int64: no constant, and no wrapped one.
  ShapeAnalysis mul = Analyze("n = 3037000500; m = n * n;");
  EXPECT_TRUE(FinalShape(mul, "n").value.is_const());
  EXPECT_FALSE(FinalShape(mul, "m").value.is_const());
  ShapeAnalysis add = Analyze("a = 3000000000; b = a * a; c = b + b;");
  EXPECT_FALSE(FinalShape(add, "b").value.is_const());  // past 2^53
  EXPECT_FALSE(FinalShape(add, "c").value.is_const());
  ShapeAnalysis seq = Analyze(
      "s = seq(-9000000000000000000, 9000000000000000000, 1);\n"
      "l = length(matrix(0, 4294967296, 4294967296));");
  EXPECT_FALSE(FinalShape(seq, "s").rows.is_const());
  EXPECT_FALSE(FinalShape(seq, "l").value.is_const());
}

TEST(ShapeInferenceTest, ConstantsPastDoublePrecisionAreUnknown) {
  // Scalars are doubles at run time, exact only within 2^53: the run rounds
  // 3037000499^2 to 9223372030926248960, and computes m = 0 below (a 0-row
  // X), so neither product is a constant the run is sure to compute.
  ShapeAnalysis square = Analyze("a = 3037000499; b = a * a;");
  EXPECT_TRUE(FinalShape(square, "a").value.is_const());
  EXPECT_FALSE(FinalShape(square, "b").value.is_const());
  ShapeAnalysis sized = Analyze(
      "a = 94906267; b = a * a; m = b - 9007199515875288;\n"
      "X = matrix(1, m, 1000); print(sum(X));");
  EXPECT_FALSE(FinalShape(sized, "b").value.is_const());
  EXPECT_FALSE(FinalShape(sized, "m").value.is_const());
  EXPECT_FALSE(FinalShape(sized, "X").rows.is_const());
  EXPECT_FALSE(sized.exact);
  // 2^53 itself and its negation are exact doubles and stay constants.
  ShapeAnalysis edge = Analyze(
      "p = 4194304 * 2147483648; n = 0 - p; q = p + 1;");
  EXPECT_EQ(FinalShape(edge, "p").value, Dim::Const(int64_t{1} << 53));
  EXPECT_EQ(FinalShape(edge, "n").value, Dim::Const(-(int64_t{1} << 53)));
  EXPECT_FALSE(FinalShape(edge, "q").value.is_const());
}

TEST(ShapeInferenceTest, IntegerDivisionFoldsLikeTheRuntime) {
  // %/% and %% floor, as R and the runtime do; C++'s / and % truncate.
  ShapeAnalysis a = Analyze(
      "a = -7; b = 2; q = a %/% b; r = a %% b;\n"
      "c = 7; d = -2; q2 = c %/% d; r2 = c %% d;");
  ASSERT_TRUE(FinalShape(a, "q").value.is_const());
  EXPECT_EQ(FinalShape(a, "q").value.value, -4);
  ASSERT_TRUE(FinalShape(a, "r").value.is_const());
  EXPECT_EQ(FinalShape(a, "r").value.value, 1);
  ASSERT_TRUE(FinalShape(a, "q2").value.is_const());
  EXPECT_EQ(FinalShape(a, "q2").value.value, -4);
  ASSERT_TRUE(FinalShape(a, "r2").value.is_const());
  EXPECT_EQ(FinalShape(a, "r2").value.value, -1);
}

TEST(ShapeInferenceTest, MatmulComposesDims) {
  ShapeAnalysis a = Analyze(R"(
    A = rand(rows=10, cols=5, seed=1);
    B = rand(rows=5, cols=3, seed=2);
    C = A %*% B;
  )");
  ExpectMatrix(a, "C", 10, 3);
  EXPECT_FALSE(a.has_errors());
}

TEST(ShapeInferenceTest, TransposeSwapsDims) {
  ShapeAnalysis a = Analyze("X = rand(rows=7, cols=2, seed=1); Y = t(X);");
  ExpectMatrix(a, "Y", 2, 7);
}

TEST(ShapeInferenceTest, ElementwiseAndBroadcast) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=6, cols=4, seed=1);
    Y = X * 2 + X;
    s = colSums(X);
    Z = X - s;
  )");
  ExpectMatrix(a, "Y", 6, 4);
  ExpectMatrix(a, "s", 1, 4);
  ExpectMatrix(a, "Z", 6, 4);
}

TEST(ShapeInferenceTest, AggregatesAndReductions) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=8, cols=3, seed=1);
    v = sum(X);
    r = rowSums(X);
    n = nrow(X);
  )");
  EXPECT_TRUE(FinalShape(a, "v").is_scalar());
  ExpectMatrix(a, "r", 8, 1);
  ShapeInfo n = FinalShape(a, "n");
  ASSERT_TRUE(n.is_scalar());
  EXPECT_EQ(n.value, Dim::Const(8)) << n.ToString();
}

TEST(ShapeInferenceTest, CbindRbindAddDims) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=5, cols=2, seed=1);
    Y = rand(rows=5, cols=3, seed=2);
    C = cbind(X, Y);
    R = rbind(X, X);
  )");
  ExpectMatrix(a, "C", 5, 5);
  ExpectMatrix(a, "R", 10, 2);
}

TEST(ShapeInferenceTest, SlicingYieldsConstDims) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=10, cols=6, seed=1);
    S = X[2:9, 1:3];
  )");
  ExpectMatrix(a, "S", 8, 3);
}

TEST(ShapeInferenceTest, SymbolicSlicingOverUnknownRows) {
  // nrow of an unknown-shaped matrix is symbolic; slicing from 2 to nrow
  // collapses to a same-symbol subtraction.
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=9, cols=4, seed=1);
    S = X[2:nrow(X), ];
  )");
  ExpectMatrix(a, "S", 8, 4);
}

// ---- Control flow ----------------------------------------------------------

TEST(ShapeInferenceTest, IfJoinKeepsEqualShapes) {
  ShapeAnalysis a = Analyze(R"(
    c = 1;
    if (c > 0) { X = rand(rows=4, cols=4, seed=1); }
    else { X = matrix(0, 4, 4); }
    Y = X + 1;
  )");
  ExpectMatrix(a, "Y", 4, 4);
}

TEST(ShapeInferenceTest, IfJoinWidensMismatchedShapes) {
  // The predicate is opaque (not constant-foldable), so both branches join.
  ShapeAnalysis a = Analyze(R"(
    c = sum(rand(rows=1, cols=1, seed=1));
    if (c > 0) { X = rand(rows=4, cols=4, seed=1); }
    else { X = matrix(0, 9, 9); }
    Y = X + 1;
  )");
  ShapeInfo y = FinalShape(a, "Y");
  ASSERT_TRUE(y.is_matrix()) << y.ToString();
  // The 4x4/9x9 join loses the constants; the engine re-mints a symbolic
  // dimension, so the shape is structurally known but no longer sized.
  EXPECT_FALSE(y.rows.is_const()) << y.ToString();
  EXPECT_FALSE(y.fully_known());
  EXPECT_FALSE(a.has_errors());  // join is imprecision, not a violation
}

TEST(ShapeInferenceTest, ForLoopGrowingMatrixWidens) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=5, cols=1, seed=1);
    for (i in 1:3) { X = cbind(X, rand(rows=5, cols=1, seed=i)); }
  )");
  ShapeInfo x = FinalShape(a, "X");
  ASSERT_TRUE(x.is_matrix());
  EXPECT_EQ(x.rows, Dim::Const(5)) << x.ToString();  // rows stay invariant
  EXPECT_FALSE(x.cols.known()) << x.ToString();      // cols widen
}

TEST(ShapeInferenceTest, LoopStableShapeStaysKnown) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=6, cols=6, seed=1);
    i = 0;
    while (i < 4) { X = X %*% X; i = i + 1; }
    for (j in 1:3) { X = X + j; }
  )");
  ExpectMatrix(a, "X", 6, 6);
}

TEST(ShapeInferenceTest, ParForConstsAreRecorded) {
  std::unique_ptr<Program> program = Compile(R"(
    n = 8;
    R = matrix(0, n, 1);
    parfor (i in 1:n) { R[i, 1] = i * 2; }
  )");
  ShapeAnalysis a = InferShapes(*program);
  ASSERT_EQ(a.parfor_consts.size(), 1u);
  const auto& facts = a.parfor_consts.begin()->second;
  auto it = facts.find("n");
  ASSERT_TRUE(it != facts.end());
  EXPECT_EQ(it->second, 8);
}

TEST(ShapeInferenceTest, ParForConstsSurviveRepeatedVisits) {
  // Each pass of the outer loop visits the parfor again; a constant that
  // every visit proves stays proven.
  std::unique_ptr<Program> program = Compile(R"(
    n = 8;
    R = matrix(0, n, 1);
    for (k in 1:3) {
      parfor (i in 1:n) { R[i, 1] = i * k; }
    }
  )");
  ShapeAnalysis a = InferShapes(*program);
  ASSERT_EQ(a.parfor_consts.size(), 1u);
  const auto& facts = a.parfor_consts.begin()->second;
  auto it = facts.find("n");
  ASSERT_TRUE(it != facts.end());
  EXPECT_EQ(it->second, 8);
}

// ---- Functions -------------------------------------------------------------

TEST(ShapeInferenceTest, FcallPropagatesDims) {
  ShapeAnalysis a = Analyze(R"(
    flip = function(Matrix X) return (Matrix Y) { Y = t(X); }
    A = rand(rows=3, cols=11, seed=1);
    B = flip(A);
  )");
  ExpectMatrix(a, "B", 11, 3);
}

TEST(ShapeInferenceTest, FcallIsContextSensitive) {
  ShapeAnalysis a = Analyze(R"(
    gram = function(Matrix X) return (Matrix G) { G = t(X) %*% X; }
    A = gram(rand(rows=10, cols=4, seed=1));
    B = gram(rand(rows=20, cols=7, seed=2));
  )");
  ExpectMatrix(a, "A", 4, 4);
  ExpectMatrix(a, "B", 7, 7);
}

TEST(ShapeInferenceTest, RecursionDegradesGracefully) {
  ShapeAnalysis a = Analyze(R"(
    rec = function(Matrix X, Double d) return (Matrix Y) {
      if (d > 0) { Y = rec(X, d - 1); } else { Y = X; }
    }
    R = rec(rand(rows=4, cols=4, seed=1), 3);
  )");
  EXPECT_FALSE(a.has_errors());  // degraded, never wrong
  EXPECT_GE(CountCode(a, "shape-unknown-degraded"), 1);
}

TEST(ShapeInferenceTest, IllShapedMatmulBehindFcallIsError) {
  ShapeAnalysis a = Analyze(R"(
    mult = function(Matrix A, Matrix B) return (Matrix C) { C = A %*% B; }
    X = rand(rows=10, cols=5, seed=1);
    Y = rand(rows=4, cols=3, seed=2);
    Z = mult(X, Y);
  )");
  EXPECT_TRUE(a.has_errors());
  ASSERT_GE(CountCode(a, "shape-mismatch"), 1);
  // Provenance points into the callee.
  bool has_provenance = false;
  for (const Diagnostic& d : a.diagnostics) {
    if (d.code == "shape-mismatch" && d.function == "mult" &&
        d.source_line > 0) {
      has_provenance = true;
    }
  }
  EXPECT_TRUE(has_provenance);
}

// ---- Diagnostics and degradation -------------------------------------------

TEST(ShapeInferenceTest, DirectMismatchIsError) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=10, cols=5, seed=1);
    Y = rand(rows=6, cols=5, seed=2);
    Z = X + Y;
  )");
  EXPECT_TRUE(a.has_errors());
  EXPECT_GE(CountCode(a, "shape-mismatch"), 1);
}

TEST(ShapeInferenceTest, UnknownOpcodeDegradesWithWarning) {
  ShapeAnalysis a = Analyze(R"dml(
    mk = function(Double n) return (Matrix Y) { Y = matrix(n, 3, 3); }
    X = eval("mk", list(3));
    s = 1 + 2;
  )dml");
  EXPECT_FALSE(a.has_errors());
  EXPECT_GE(CountCode(a, "shape-unknown-degraded"), 1);
  EXPECT_TRUE(FinalShape(a, "X").is_unknown());
}

TEST(ShapeInferenceTest, AssumptionsSeedTheEnvironment) {
  std::unique_ptr<Program> program = Compile("Y = t(X) %*% X;");
  std::vector<ShapeAssumption> assumptions = {
      {"X", ShapeInfo::Matrix(Dim::Const(100), Dim::Const(12))}};
  ShapeAnalysis a = InferShapes(*program, assumptions);
  ExpectMatrix(a, "Y", 12, 12);
  EXPECT_FALSE(a.has_errors());
}

// ---- Static memory estimator -----------------------------------------------

TEST(ShapeInferenceTest, MemEstimateIsExactForConstShapes) {
  ShapeAnalysis a = Analyze(R"(
    X = rand(rows=100, cols=50, seed=1);
    Y = t(X);
  )");
  EXPECT_TRUE(a.exact);
  // Peak: X (100*50*8) + Y alive together.
  EXPECT_EQ(a.peak_bytes, 2 * 100 * 50 * 8);
  EXPECT_FALSE(a.block_mem.empty());
  EXPECT_NE(a.MemReport().find("program peak"), std::string::npos);
}

TEST(ShapeInferenceTest, MemEstimateCoversActualPeak) {
  const char* kScript = R"(
    X = rand(rows=200, cols=100, seed=1);
    G = t(X) %*% X;
    s = sum(G);
  )";
  LimaSession session(LimaConfig::Base());
  Result<ShapeAnalysis> analysis = session.AnalyzeShapes(kScript);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->exact);
  ASSERT_TRUE(session.Run(kScript).ok());
  int64_t actual = session.stats()->peak_live_bytes.load();
  EXPECT_GT(actual, 0);
  EXPECT_GE(analysis->peak_bytes, actual);
}

// ---- Verifier integration --------------------------------------------------

TEST(ShapeInferenceTest, StrictSessionRejectsIllShapedProgram) {
  LimaConfig config = LimaConfig::Base();
  config.verify_mode = VerifyMode::kStrict;
  LimaSession session(config);
  Status status = session.Run(R"(
    mult = function(Matrix A, Matrix B) return (Matrix C) { C = A %*% B; }
    X = rand(rows=10, cols=5, seed=1);
    Y = rand(rows=4, cols=3, seed=2);
    Z = mult(X, Y);
  )");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("shape-mismatch"), std::string::npos)
      << status.ToString();
}

TEST(ShapeInferenceTest, StrictSessionAcceptsWellShapedProgram) {
  LimaConfig config = LimaConfig::Base();
  config.verify_mode = VerifyMode::kStrict;
  LimaSession session(config);
  session.BindMatrix("X", Matrix(30, 4, 1.0));
  Status status = session.Run("G = t(X) %*% X; print(sum(G));");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ---- Coverage gates --------------------------------------------------------

TEST(ShapeInferenceTest, EveryCatalogOpcodeHasShapeRule) {
  std::vector<std::string> missing = VerifyShapeRuleCoverage();
  EXPECT_TRUE(missing.empty()) << [&] {
    std::string out = "opcodes without shape rules:";
    for (const std::string& op : missing) out += " " + op;
    return out;
  }();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ShapeInferenceTest, BundledScriptsAreMostlyFullyKnown) {
  for (const char* name : {"gridsearch.dml", "kmeans.dml", "pagerank.dml"}) {
    std::string source =
        ReadFileOrDie(std::string(LIMA_SOURCE_DIR) + "/scripts/" + name);
    ShapeAnalysis a = Analyze(scripts::Builtins() + source);
    EXPECT_FALSE(a.has_errors()) << name;
    EXPECT_GE(a.known_ratio(), 0.8)
        << name << ": " << a.num_fully_known << "/" << a.num_instructions;
  }
}

}  // namespace
}  // namespace lima
