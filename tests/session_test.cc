#include "lang/session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "lineage/serialize.h"
#include "matrix/datagen.h"

namespace lima {
namespace {

TEST(SessionTest, ScalarArithmetic) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("x = 1 + 2 * 3; y = x ^ 2;").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("x"), 7.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("y"), 49.0);
}

TEST(SessionTest, MatrixOps) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(2, 3, 4);
    s = sum(X);
    Y = X * 3 + 1;
    sy = sum(Y);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 24.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sy"), 84.0);
}

TEST(SessionTest, MatMulAndTsmm) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = rand(rows=20, cols=5, seed=42);
    A = t(X) %*% X;
    tr = sum(A);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  MatrixPtr a = *session.GetMatrix("A");
  EXPECT_EQ(a->rows(), 5);
  EXPECT_EQ(a->cols(), 5);
  EXPECT_TRUE(a->IsSymmetric(1e-9));
}

TEST(SessionTest, ControlFlow) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    s = 0;
    for (i in 1:10) {
      if (i <= 5) { s = s + i; } else { s = s + 1; }
    }
    k = 0;
    while (k < 7) { k = k + 2; }
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 20.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("k"), 8.0);
}

TEST(SessionTest, FunctionsAndMultiReturn) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    stats = function(Matrix X) return (Double s, Double m) {
      s = sum(X);
      m = mean(X);
    }
    X = matrix(3, 2, 2);
    [a, b] = stats(X);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("a"), 12.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("b"), 3.0);
}

TEST(SessionTest, IndexingAndLeftIndex) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(0, 4, 4);
    X[2:3, 2:3] = matrix(5, 2, 2);
    s = sum(X);
    Y = X[2, ];
    sy = sum(Y);
    c = X[, 2];
    sc = sum(c);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 20.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sy"), 10.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sc"), 10.0);
}

TEST(SessionTest, PrintAndStringConcat) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(print("value: " + 3.5);)").ok());
  EXPECT_EQ(session.ConsumeOutput(), "value: 3.5\n");
}

TEST(SessionTest, SolveRecoversCoefficients) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = rand(rows=100, cols=3, min=-1, max=1, seed=7);
    bTrue = matrix(2, 3, 1);
    y = X %*% bTrue;
    A = t(X) %*% X;
    b = t(X) %*% y;
    beta = solve(A, b);
    err = sum(abs(beta - bTrue));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LT(*session.GetDouble("err"), 1e-8);
}

TEST(SessionTest, ParforComputesDisjointColumns) {
  LimaConfig config = LimaConfig::Base();
  config.parfor_workers = 4;
  LimaSession session(config);
  Status status = session.Run(R"(
    B = matrix(0, 3, 8);
    parfor (i in 1:8) {
      B[, i] = matrix(i, 3, 1);
    }
    s = sum(B);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 3 * 36.0);
}

TEST(SessionTest, ListsAndEval) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    addm = function(Matrix A, Matrix B) return (Matrix C) {
      C = A + B;
    }
    l = list(matrix(1, 2, 2), matrix(2, 2, 2));
    C = eval("addm", l);
    s = sum(C);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 12.0);
}

TEST(SessionTest, ReuseMatchesBaseResults) {
  // Property: identical script, identical results with and without reuse.
  const char* script = R"(
    X = rand(rows=50, cols=8, seed=11);
    y = rand(rows=50, cols=1, seed=12);
    acc = 0;
    for (i in 1:5) {
      A = t(X) %*% X;
      b = t(X) %*% y;
      beta = solve(A + diag(matrix(i * 0.1, 8, 1)), b);
      acc = acc + sum(abs(beta));
    }
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  LimaSession lima(LimaConfig::Lima());
  ASSERT_TRUE(lima.Run(script).ok());
  EXPECT_NEAR(*base.GetDouble("acc"), *lima.GetDouble("acc"), 1e-9);
  // The invariant parts (t(X)%*%X, t(X)%*%y) must have been reused.
  EXPECT_GT(lima.stats()->cache_hits.load(), 0);
}

TEST(SessionTest, BoundInputsAreTraced) {
  LimaSession session(LimaConfig::Lima());
  session.BindMatrix("X", Matrix(3, 3, 1.0));
  ASSERT_TRUE(session.Run("s = sum(X %*% X);").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 27.0);
  ASSERT_NE(session.GetLineageItem("s"), nullptr);
  EXPECT_EQ(session.GetLineageItem("s")->opcode(), "sum");
}

TEST(SessionTest, RebindingInputsInvalidatesReuse) {
  // Re-binding a different matrix under the same name must not alias in the
  // reuse cache (the session-API analogue of the paper's immutable-files
  // assumption, enforced via content fingerprints).
  LimaSession session(LimaConfig::Lima());
  session.BindMatrix("X", Matrix(4, 4, 1.0));
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  double first = *session.GetDouble("s");
  session.BindMatrix("X", Matrix(4, 4, 2.0));
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  double second = *session.GetDouble("s");
  EXPECT_DOUBLE_EQ(first, 4.0 * 4.0 * 4.0);
  EXPECT_DOUBLE_EQ(second, 4.0 * 4.0 * 16.0);  // not the stale cached value
  // And binding the identical content again DOES reuse.
  session.BindMatrix("X", Matrix(4, 4, 2.0));
  int64_t hits_before = session.stats()->cache_hits.load();
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  EXPECT_GT(session.stats()->cache_hits.load(), hits_before);
}

TEST(SessionTest, LineageBuiltinReturnsLog) {
  LimaSession session(LimaConfig::TracingOnly());
  Status status = session.Run(R"(
    X = rand(rows=3, cols=3, seed=5);
    s = sum(X %*% X);
    log = lineage(s);
    print(log);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string out = session.ConsumeOutput();
  EXPECT_NE(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("mm"), std::string::npos);
  EXPECT_NE(out.find("sum"), std::string::npos);
}

// The non-computation opcodes end to end: a write/read round trip with its
// lineage log and the read leaf, the text of lineage(X), list and listidx
// lineage, eval's result and stop's error text. None of them counts as an
// executed instruction.
TEST(SessionTest, NonComputeOpcodesRunAndTraceAsPinned) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lima_session_noncompute.bin")
          .string();
  LimaSession session(LimaConfig::TracingOnly());
  Status status = session.Run(R"(
    f = function(Matrix A) return (Matrix B) { B = A + 1; }
    X = rand(rows=2, cols=2, seed=3);
    write(X, ")" + path + R"(");
    Y = read(")" + path + R"(");
    txt = lineage(X);
    l = list(X, 7);
    e = l[1];
    k = l[2];
    r = eval("f", list(X));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();

  LineageItemPtr x = session.GetLineageItem("X");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(session.GetScalar("txt")->AsString(), SerializeLineage(x));
  EXPECT_EQ(SerializeLineage(x),
            "(0) L \"I2\"\n(1) L \"D0\"\n(2) L \"D1\"\n"
            "(3) L \"Suniform\"\n(4) L \"I3\"\n"
            "(5) rand (0) (0) (1) (2) (2) (3) (4)\n");
  std::ifstream log(path + ".lineage");
  std::ostringstream log_text;
  log_text << log.rdbuf();
  EXPECT_EQ(log_text.str(), SerializeLineage(x));

  MatrixPtr xm = *session.GetMatrix("X");
  MatrixPtr ym = *session.GetMatrix("Y");
  ASSERT_EQ(ym->rows(), 2);
  ASSERT_EQ(ym->cols(), 2);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_EQ(ym->At(i, j), xm->At(i, j));
      EXPECT_EQ((*session.GetMatrix("r"))->At(i, j), xm->At(i, j) + 1);
    }
  }
  LineageItemPtr y = session.GetLineageItem("Y");
  EXPECT_EQ(y->opcode(), "read");
  EXPECT_EQ(y->data(), path);
  EXPECT_TRUE(y->inputs().empty());

  LineageItemPtr l = session.GetLineageItem("l");
  EXPECT_EQ(l->opcode(), "list");
  ASSERT_EQ(l->inputs().size(), 2u);
  EXPECT_EQ(l->inputs()[0], x);
  EXPECT_EQ(l->inputs()[1]->opcode(), "L");
  EXPECT_EQ(l->inputs()[1]->data(), "I7");
  EXPECT_EQ(session.GetLineageItem("e"), x);
  EXPECT_EQ(session.GetLineageItem("k"), l->inputs()[1]);
  EXPECT_DOUBLE_EQ(*session.GetDouble("k"), 7.0);

  const int64_t executed = session.stats()->instructions_executed.load();
  ASSERT_TRUE(session.Run(R"(print("hi");)").ok());
  EXPECT_EQ(session.ConsumeOutput(), "hi\n");
  EXPECT_EQ(session.stats()->instructions_executed.load(), executed);

  Status stopped = session.Run(R"(stop("halt " + 1);)");
  EXPECT_EQ(stopped.code(), StatusCode::kRuntimeError);
  EXPECT_EQ(stopped.message(), "halt 1 [in stop]");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lineage");
}

TEST(SessionTest, LineageBuiltinFailsWithoutTracing) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run("x = 1 + 1; l = lineage(x);");
  EXPECT_FALSE(status.ok());
}

TEST(SessionTest, AnalyzedProgramsStayOutOfThePlanReports) {
  // --mem-report analyses its own compile of the script before the run;
  // only the executed program belongs in the plan and profile reports.
  const char* script = "X = rand(rows=4, cols=4, seed=1); s = sum(X + 1);";
  LimaSession session(LimaConfig::Lima());
  ASSERT_TRUE(session.AnalyzeShapes(script).ok());
  ASSERT_TRUE(session.Run(script).ok());

  const std::string json = session.StaticPlanReport("json");
  int plans = 0;
  for (size_t at = json.find("\"analyzed\""); at != std::string::npos;
       at = json.find("\"analyzed\"", at + 1)) {
    ++plans;
  }
  EXPECT_EQ(plans, 1) << json;
  int64_t programs = -1;
  for (const auto& [name, value] : session.ProfileReport().static_plan) {
    if (name == "programs") programs = value;
  }
  EXPECT_EQ(programs, 1);
}

}  // namespace
}  // namespace lima
