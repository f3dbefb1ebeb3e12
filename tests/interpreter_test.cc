// Interpreter/DSL semantics beyond the quickstart coverage of
// session_test.cc: scalar typing, control flow corner cases, errors.
#include <gtest/gtest.h>

#include "lang/session.h"

namespace lima {
namespace {

double RunFor(const std::string& script, const std::string& var) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << script;
  return *session.GetDouble(var);
}

Status RunStatus(const std::string& script) {
  LimaSession session(LimaConfig::Base());
  return session.Run(script);
}

TEST(InterpreterTest, IntegerArithmeticStaysIntegral) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("a = 3 + 4; b = 7 / 2; c = 2 ^ 10;").ok());
  EXPECT_EQ(session.GetScalar("a")->kind(), ScalarKind::kInt);
  EXPECT_EQ(session.GetScalar("b")->kind(), ScalarKind::kDouble);
  EXPECT_DOUBLE_EQ(*session.GetDouble("b"), 3.5);
  EXPECT_DOUBLE_EQ(*session.GetDouble("c"), 1024);
}

TEST(InterpreterTest, IntegersOutsideInt64AreDoubles) {
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session
                  .Run("a = 3000000000; b = a * a; c = b + b; d = -c;\n"
                       "x = 99999999999999999999;\n"
                       "print(b); print(c); print(x);")
                  .ok());
  // a * a fits in int64; b + b and the literal do not.
  EXPECT_EQ(session.GetScalar("b")->kind(), ScalarKind::kInt);
  EXPECT_EQ(session.GetScalar("c")->kind(), ScalarKind::kDouble);
  EXPECT_EQ(session.GetScalar("d")->kind(), ScalarKind::kDouble);
  EXPECT_EQ(session.GetScalar("x")->kind(), ScalarKind::kDouble);
  EXPECT_DOUBLE_EQ(*session.GetDouble("c"), 1.8e19);
  EXPECT_DOUBLE_EQ(*session.GetDouble("x"), 1e20);
  EXPECT_EQ(session.ConsumeOutput(), "9000000000000000000\n1.8e+19\n1e+20\n");
  // The literal traces as a double, not as a wrapped "I-9223372036854775808".
  EXPECT_EQ(session.GetLineageItem("x")->data(), "D1e+20");
}

TEST(InterpreterTest, BooleanLogic) {
  EXPECT_DOUBLE_EQ(RunFor("x = 0; if (TRUE & !FALSE) { x = 1; }", "x"), 1);
  EXPECT_DOUBLE_EQ(RunFor("x = 0; if (1 > 2 | 3 > 2) { x = 1; }", "x"), 1);
}

TEST(InterpreterTest, StringComparisonsAndConcat) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(
    s = "a" + "b" + 1 + TRUE;
    eq = 0;
    if ("x" == "x") { eq = 1; }
  )").ok());
  EXPECT_EQ(session.GetScalar("s")->AsString(), "ab1TRUE");
  EXPECT_DOUBLE_EQ(*session.GetDouble("eq"), 1);
}

TEST(InterpreterTest, NestedLoopsAndStep) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    s = 0;
    for (i in seq(10, 2, -2)) { s = s + i; }      # 10+8+6+4+2
  )", "s"), 30);
  EXPECT_DOUBLE_EQ(RunFor(R"(
    s = 0;
    for (i in 1:3) { for (j in 1:i) { s = s + j; } }
  )", "s"), 1 + 3 + 6);
}

TEST(InterpreterTest, EmptyForRangeRunsZeroIterations) {
  EXPECT_DOUBLE_EQ(RunFor("s = 5; for (i in 3:1) { s = s + i; }", "s"),
                   5 + 3 + 2 + 1);  // descending default increment
  EXPECT_DOUBLE_EQ(RunFor(
      "s = 5; for (i in seq(3, 1, 1)) { s = s + 1; }", "s"), 5);
}

TEST(InterpreterTest, WhileWithCompoundCondition) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    i = 0; s = 0;
    while (i < 10 & s < 12) { i = i + 1; s = s + i; }
  )", "s"), 15);  // 1+2+3+4+5 stops once s >= 12
}

TEST(InterpreterTest, StopAbortsWithMessage) {
  Status status = RunStatus(R"(stop("custom failure: " + 42);)");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("custom failure: 42"), std::string::npos);
}

TEST(InterpreterTest, UndefinedVariableReported) {
  Status status = RunStatus("y = x + 1;");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("undefined variable"), std::string::npos);
}

TEST(InterpreterTest, UndefinedFunctionIsCompileError) {
  Status status = RunStatus("y = noSuchFn(1);");
  EXPECT_EQ(status.code(), StatusCode::kCompileError);
}

TEST(InterpreterTest, DimensionMismatchSurfacesInstruction) {
  Status status = RunStatus("y = matrix(1, 2, 3) %*% matrix(1, 2, 3);");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mm"), std::string::npos);
}

TEST(InterpreterTest, FunctionDefaultsAndNamedArgs) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    f = function(Double a, Double b = 10, Double c = 100) return (Double r) {
      r = a + b * 2 + c * 3;
    }
    x = f(1);
    y = f(1, c = 5);
    z = f(c = 1, a = 2, b = 3);
  )", "x"), 1 + 20 + 300);
  EXPECT_DOUBLE_EQ(RunFor(R"(
    f = function(Double a, Double b = 10, Double c = 100) return (Double r) {
      r = a + b * 2 + c * 3;
    }
    y = f(1, c = 5);
  )", "y"), 1 + 20 + 15);
}

TEST(InterpreterTest, MissingRequiredArgumentFails) {
  Status status = RunStatus(R"(
    f = function(Matrix X, Double k) return (Double r) { r = sum(X) * k; }
    y = f(matrix(1, 2, 2));
  )");
  EXPECT_FALSE(status.ok());
}

TEST(InterpreterTest, RecursionDepthGuard) {
  Status status = RunStatus(R"(
    f = function(Double n) return (Double r) {
      r = n;
      if (n > 0) { r = f(n - 1); }
    }
    y = f(100000);
  )");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("depth"), std::string::npos);
}

TEST(InterpreterTest, BoundedRecursionWorks) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    fact = function(Double n) return (Double r) {
      r = 1;
      if (n > 1) { r = n * fact(n - 1); }
    }
    y = fact(6);
  )", "y"), 720);
}

TEST(InterpreterTest, ScalarIndexedCellAccess) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    X = matrix(0, 3, 3);
    X[2, 3] = 7;
    v = as.scalar(X[2, 3]) + as.scalar(X[1, 1]);
  )", "v"), 7);
}

TEST(InterpreterTest, VectorRowAndColumnSelect) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    X = matrix(1, 4, 4);
    X[2, ] = matrix(5, 1, 4);
    rows = X[seq(2, 3, 1), ];
    s = sum(rows);
  )", "s"), 4 * 5 + 4);
}

TEST(InterpreterTest, MinMaxDualUse) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    X = matrix(3, 2, 2);
    a = min(X);          # aggregate
    B = max(X, 5);       # elementwise with scalar
    s = a + sum(B);
  )", "s"), 3 + 20);
}

TEST(InterpreterTest, PrintMatrixRendersRows) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("print(matrix(2, 2, 2));").ok());
  EXPECT_EQ(session.ConsumeOutput(), "2 2\n2 2\n");
}

TEST(InterpreterTest, VariablesPersistAcrossRuns) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("x = 21;").ok());
  ASSERT_TRUE(session.Run("y = x * 2;").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("y"), 42);
  session.ClearVariables();
  EXPECT_FALSE(session.Run("z = x;").ok());
}

TEST(InterpreterTest, ListRoundTrip) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    l = list(matrix(1, 2, 2), 7, "tag");
    m = l[1];
    k = l[2];
    n = length(l);
    s = sum(m) + k + n;
  )", "s"), 4 + 7 + 3);
}

TEST(InterpreterTest, ListIndexOutOfRange) {
  EXPECT_FALSE(RunStatus("l = list(1, 2); x = l[3];").ok());
}

TEST(InterpreterTest, RevTraceCholeskyBuiltins) {
  EXPECT_DOUBLE_EQ(RunFor(R"(
    X = matrix(0, 3, 3);
    X[1, 1] = 4; X[2, 2] = 9; X[3, 3] = 16;
    L = cholesky(X);
    tr = trace(L);
    R = rev(seq(1, 3, 1));
    s = tr + as.scalar(R[1, 1]);
  )", "s"), 2 + 3 + 4 + 3);
}

TEST(InterpreterTest, ModuloAndIntegerDivision) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(
    a = 17 %% 5;
    b = 17 %/% 5;
    c = -7 %% 3;       # R semantics: sign of the divisor
    d = -7 %/% 3;
    M = seq(1, 6, 1) %% 3;
    s = sum(M);
  )").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("a"), 2);
  EXPECT_DOUBLE_EQ(*session.GetDouble("b"), 3);
  EXPECT_DOUBLE_EQ(*session.GetDouble("c"), 2);
  EXPECT_DOUBLE_EQ(*session.GetDouble("d"), -3);
  EXPECT_EQ(session.GetScalar("a")->kind(), ScalarKind::kInt);
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 1 + 2 + 0 + 1 + 2 + 0);
}

TEST(InterpreterTest, ModuloPrecedenceLikeMatMul) {
  // %% sits at the %special% level: 2 * 7 %% 4 == 2 * (7 %% 4).
  EXPECT_DOUBLE_EQ(RunFor("x = 2 * 7 %% 4;", "x"), 6);
}

TEST(InterpreterTest, IfElseCellwise) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(
    X = seq(1, 6, 1);
    Y = ifelse(X > 3, X * 10, 0 - X);
    s = sum(Y);
    t = ifelse(1 < 2, 7, 9);            # scalar form
    Z = ifelse(X > 3, 1, matrix(5, 6, 1));  # mixed scalar/matrix branches
    sz = sum(Z);
  )").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), -1 - 2 - 3 + 40 + 50 + 60);
  EXPECT_DOUBLE_EQ(*session.GetDouble("t"), 7);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sz"), 5 * 3 + 3);
}

TEST(InterpreterTest, IfElseShapeMismatchRejected) {
  EXPECT_FALSE(RunStatus(
      "Z = ifelse(matrix(1, 2, 2), matrix(1, 3, 3), 0);").ok());
}

// Generators and reshape size their output from operand values: hostile
// dimensions are a diagnosed error, never a wrapped cell count or an
// allocation the process cannot survive.
TEST(InterpreterTest, OversizedGeneratorDimensionsRejected) {
  for (const char* script : {
           "X = matrix(0, rows=3, cols=4611686018427387904);",
           "X = rand(rows=3, cols=4611686018427387904, seed=1);",
           "X = seq(1, 1e300);",
           "X = table(seq(1, 3), seq(1, 3), 4611686018427387904, 4);",
           "Y = matrix(matrix(0, rows=0, cols=0), rows=4611686018427387904,"
           " cols=4);\nZ = Y[1:2, 1:2];",
       }) {
    Status status = RunStatus(script);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString() << "\n" << script;
  }
}

TEST(InterpreterTest, WhileIterationBoundPreventsHang) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run("i = 0; while (i < 1) { x = 1; }");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("iteration bound"), std::string::npos);
}

}  // namespace
}  // namespace lima
