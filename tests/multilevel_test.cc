// Multi-level (function-level) reuse (Sec. 4.1): fcall lineage items bundle
// all outputs; deterministic functions are answered without execution;
// nondeterministic functions never are.
#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "lang/session.h"

namespace lima {
namespace {

std::unique_ptr<LimaSession> RunMlr(const std::string& script) {
  auto session = std::make_unique<LimaSession>(LimaConfig::LimaMultiLevel());
  Status status = session->Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return session;
}

TEST(MultiLevelTest, RepeatedDeterministicCallReused) {
  auto session = RunMlr(R"(
    heavy = function(Matrix X) return (Matrix A) {
      A = t(X) %*% X;
      A = A + diag(matrix(1, ncol(X), 1));
    }
    X = rand(rows=100, cols=10, seed=1);
    A1 = heavy(X);
    A2 = heavy(X);
    A3 = heavy(X);
    s = sum(A1) + sum(A2) + sum(A3);
  )");
  EXPECT_EQ(session->stats()->function_reuse_hits.load(), 2);
}

TEST(MultiLevelTest, DifferentArgumentsMiss) {
  auto session = RunMlr(R"(
    f = function(Matrix X, Double k) return (Double r) { r = sum(X) * k; }
    X = rand(rows=10, cols=4, seed=2);
    a = f(X, 1);
    b = f(X, 2);
    c = f(X, 1);
  )");
  EXPECT_EQ(session->stats()->function_reuse_hits.load(), 1);  // only c
  EXPECT_DOUBLE_EQ(*session->GetDouble("a"), *session->GetDouble("c"));
}

TEST(MultiLevelTest, MultipleOutputsBundled) {
  auto session = RunMlr(R"(
    stats2 = function(Matrix X) return (Double s, Matrix C) {
      s = sum(X);
      C = t(X) %*% X;
    }
    X = rand(rows=50, cols=6, seed=3);
    [s1, C1] = stats2(X);
    [s2, C2] = stats2(X);
    check = sum(C1 - C2) + (s1 - s2);
  )");
  EXPECT_EQ(session->stats()->function_reuse_hits.load(), 1);
  EXPECT_DOUBLE_EQ(*session->GetDouble("check"), 0.0);
}

TEST(MultiLevelTest, NondeterministicFunctionsNeverReused) {
  auto session = RunMlr(R"(
    noisy = function(Matrix X) return (Matrix Y) {
      Y = X + rand(rows=nrow(X), cols=ncol(X));
    }
    X = matrix(1, 5, 5);
    a = sum(noisy(X));
    b = sum(noisy(X));
  )");
  EXPECT_EQ(session->stats()->function_reuse_hits.load(), 0);
  // And the two calls genuinely differ (fresh system seeds).
  EXPECT_NE(*session->GetDouble("a"), *session->GetDouble("b"));

  // Nondeterminism that only reaches the result through control flow: an
  // unseeded rand in an if or while predicate, or a call to a
  // nondeterministic function from a predicate. Each function is called
  // repeatedly with identical arguments; none of the calls may be served
  // from the function cache.
  for (const char* script : {
           R"(
    coin = function(Matrix X) return (Matrix Y) {
      if (sum(rand(rows=1, cols=1)) > 0.5) { Y = X + 1; } else { Y = X - 1; }
    }
    X = matrix(1, 5, 5);
    a = sum(coin(X)) + sum(coin(X)) + sum(coin(X)) + sum(coin(X));
  )",
           R"(
    walk = function(Matrix X) return (Matrix Y) {
      Y = X;
      while (sum(rand(rows=1, cols=1)) > 0.5) { Y = Y + 1; }
    }
    X = matrix(1, 5, 5);
    a = sum(walk(X)) + sum(walk(X)) + sum(walk(X)) + sum(walk(X));
  )",
           R"(
    flip = function(Double p) return (Double b) {
      b = sum(rand(rows=1, cols=1)) < p;
    }
    pick = function(Matrix X) return (Matrix Y) {
      if (flip(0.5) == 1) { Y = X + 1; } else { Y = X - 1; }
    }
    X = matrix(1, 5, 5);
    a = sum(pick(X)) + sum(pick(X)) + sum(pick(X)) + sum(pick(X));
  )"}) {
    auto predicated = RunMlr(script);
    EXPECT_EQ(predicated->stats()->function_reuse_hits.load(), 0) << script;
  }
}

TEST(MultiLevelTest, ReusedOutputsKeepFineGrainedLineage) {
  // After a function-level hit, downstream operation-level reuse still works
  // because the bundle restores per-output lineage.
  auto session = RunMlr(R"(
    f = function(Matrix X) return (Matrix Y) { Y = exp(X / 10); }
    X = rand(rows=20, cols=5, seed=4);
    Y1 = f(X);
    a = t(Y1) %*% Y1;
    Y2 = f(X);
    b = t(Y2) %*% Y2;   # full operation-level reuse of tsmm
    s = sum(a - b);
  )");
  EXPECT_DOUBLE_EQ(*session->GetDouble("s"), 0.0);
  EXPECT_GE(session->stats()->function_reuse_hits.load(), 1);
  EXPECT_GE(session->stats()->cache_hits.load(), 1);
}

TEST(MultiLevelTest, PcaCalledTwiceHitsFunctionLevel) {
  auto session = std::make_unique<LimaSession>(LimaConfig::LimaMultiLevel());
  ASSERT_TRUE(session->Run(scripts::Builtins() + R"(
    A = rand(rows=100, cols=12, seed=5);
    [R1, V1] = pca(A, 4);
    [R2, V2] = pca(A, 4);
    d = sum(abs(R1 - R2));
  )").ok());
  EXPECT_DOUBLE_EQ(*session->GetDouble("d"), 0.0);
  EXPECT_GE(session->stats()->function_reuse_hits.load(), 1);
}

TEST(MultiLevelTest, EvalSharesTheFunctionCache) {
  auto session = RunMlr(R"(
    g = function(Matrix X) return (Matrix Y) { Y = t(X) %*% X; }
    X = rand(rows=60, cols=8, seed=6);
    A = g(X);
    B = eval("g", list(X));
    d = sum(abs(A - B));
  )");
  EXPECT_DOUBLE_EQ(*session->GetDouble("d"), 0.0);
  EXPECT_GE(session->stats()->function_reuse_hits.load(), 1);
}

TEST(MultiLevelTest, HybridModeDoesNotUseFunctionLevel) {
  LimaSession session(LimaConfig::Lima());  // hybrid, not multi-level
  ASSERT_TRUE(session.Run(R"(
    f = function(Matrix X) return (Double r) { r = sum(t(X) %*% X); }
    X = rand(rows=30, cols=5, seed=7);
    a = f(X);
    b = f(X);
  )").ok());
  EXPECT_EQ(session.stats()->function_reuse_hits.load(), 0);
  // Operation-level reuse inside the second call still applies.
  EXPECT_GE(session.stats()->cache_hits.load(), 1);
}

TEST(MultiLevelTest, BlockLevelReuseAcrossLoopIterations) {
  // The loop body is one deterministic block whose inputs (X) repeat: after
  // the first iteration it is answered at block level, skipping even the
  // per-operation probes (Sec. 4.1 "natural probing and reuse points").
  // The accumulator update sits in its own (if-guarded) block, so the
  // compute block's only input is the invariant X.
  const char* script = R"(
    X = rand(rows=80, cols=10, seed=8);
    s = 0;
    for (i in 1:6) {
      C = t(X) %*% X;
      d = diag(C);
      e = exp(d / 100);
      v = sum(e) + sum(C);
      if (i > 0) { s = s + v; }
    }
  )";
  auto session = RunMlr(script);
  EXPECT_GE(session->stats()->block_reuse_hits.load(), 4);
  // Correctness vs Base.
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  EXPECT_NEAR(*session->GetDouble("s"), *base.GetDouble("s"), 1e-9);
}

TEST(MultiLevelTest, BlocksWithPrintNotReused) {
  auto session = RunMlr(R"(
    X = rand(rows=20, cols=4, seed=9);
    for (i in 1:3) {
      C = t(X) %*% X;
      d = diag(C);
      e = exp(d);
      print("v=" + sum(e));
    }
  )");
  EXPECT_EQ(session->stats()->block_reuse_hits.load(), 0);
  // The print must have run every iteration.
  std::string output = session->ConsumeOutput();
  EXPECT_EQ(std::count(output.begin(), output.end(), 'v'), 3);
}

TEST(MultiLevelTest, NondeterministicBlocksNotReused) {
  auto session = RunMlr(R"(
    s = 0;
    for (i in 1:4) {
      R = rand(rows=10, cols=10);
      C = t(R) %*% R;
      d = diag(C);
      e = sum(exp(d / 1000));
      s = s + e;
    }
  )");
  EXPECT_EQ(session->stats()->block_reuse_hits.load(), 0);
}

}  // namespace
}  // namespace lima
