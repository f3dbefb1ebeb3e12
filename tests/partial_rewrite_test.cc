// Tests for the partial-rewrite reuse (Sec. 4.2): each meta-rewrite is
// exercised through scripts where the rewrite's source pattern appears after
// the target component was cached; results must match Base execution and
// the partial_reuse_hits counter must record the rewrite.
#include <gtest/gtest.h>

#include <cmath>

#include "lang/session.h"

namespace lima {
namespace {

struct RunResult {
  double value;
  int64_t partial_hits;
};

RunResult RunWithMode(const std::string& script, ReuseMode mode) {
  LimaConfig config = LimaConfig::Lima();
  config.reuse_mode = mode;
  LimaSession session(config);
  Status status = session.Run(script);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return {*session.GetDouble("result"),
          session.stats()->partial_reuse_hits.load()};
}

// Runs under Base and under partial reuse; expects identical results and at
// least `min_hits` partial rewrites.
void ExpectPartialReuse(const std::string& script, int64_t min_hits = 1) {
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  double expected = *base.GetDouble("result");
  RunResult lima = RunWithMode(script, ReuseMode::kHybrid);
  EXPECT_NEAR(lima.value, expected, 1e-8 * (1.0 + std::fabs(expected)));
  EXPECT_GE(lima.partial_hits, min_hits) << script;
}

TEST(PartialRewriteTest, TsmmOfCbind) {
  ExpectPartialReuse(R"(
    X = rand(rows=200, cols=12, min=-1, max=1, seed=1);
    y = rand(rows=200, cols=1, min=-1, max=1, seed=2);
    A = t(X) %*% X;
    Z = cbind(X, y);
    B = t(Z) %*% Z;
    result = sum(A) + sum(B);
  )");
}

TEST(PartialRewriteTest, TsmmOfRbind) {
  ExpectPartialReuse(R"(
    W = rand(rows=200, cols=8, min=-1, max=1, seed=3);
    X = W[1:150, ];
    D = W[151:200, ];
    A = t(X) %*% X;
    Z = rbind(X, D);
    B = t(Z) %*% Z;
    result = sum(A) + sum(B);
  )");
}

TEST(PartialRewriteTest, MatMulWithCbindRhs) {
  ExpectPartialReuse(R"(
    X = rand(rows=40, cols=60, min=-1, max=1, seed=5);
    Y = rand(rows=60, cols=10, min=-1, max=1, seed=6);
    D = rand(rows=60, cols=3, min=-1, max=1, seed=7);
    P = X %*% Y;
    Q = X %*% cbind(Y, D);
    result = sum(P) + sum(Q);
  )");
}

TEST(PartialRewriteTest, MatMulWithOnesColumn) {
  ExpectPartialReuse(R"(
    X = rand(rows=40, cols=60, min=-1, max=1, seed=8);
    Y = rand(rows=60, cols=10, min=-1, max=1, seed=9);
    P = X %*% Y;
    Q = X %*% cbind(Y, matrix(1, nrow(Y), 1));
    result = sum(P) + sum(Q);
  )");
}

TEST(PartialRewriteTest, MatMulWithRbindLhs) {
  ExpectPartialReuse(R"(
    X = rand(rows=50, cols=20, min=-1, max=1, seed=10);
    D = rand(rows=15, cols=20, min=-1, max=1, seed=11);
    Y = rand(rows=20, cols=6, min=-1, max=1, seed=12);
    P = X %*% Y;
    Q = rbind(X, D) %*% Y;
    result = sum(P) + sum(Q);
  )");
}

TEST(PartialRewriteTest, MatMulWithColumnSliceRhs) {
  ExpectPartialReuse(R"(
    X = rand(rows=30, cols=40, min=-1, max=1, seed=13);
    Y = rand(rows=40, cols=12, min=-1, max=1, seed=14);
    P = X %*% Y;
    Q = X %*% Y[, 1:5];
    result = sum(P) + sum(Q);
  )");
}

TEST(PartialRewriteTest, TransposedCbindTimesVector) {
  ExpectPartialReuse(R"(
    A = rand(rows=80, cols=10, min=-1, max=1, seed=15);
    B = rand(rows=80, cols=4, min=-1, max=1, seed=16);
    y = rand(rows=80, cols=1, min=-1, max=1, seed=17);
    p = t(A) %*% y;
    Z = cbind(A, B);
    q = t(Z) %*% y;
    result = sum(p) + sum(q);
  )");
}

TEST(PartialRewriteTest, CellwiseOfTwoCbinds) {
  ExpectPartialReuse(R"(
    X = rand(rows=20, cols=8, min=-1, max=1, seed=18);
    dX = rand(rows=20, cols=2, min=-1, max=1, seed=19);
    Y = rand(rows=20, cols=8, min=-1, max=1, seed=20);
    dY = rand(rows=20, cols=2, min=-1, max=1, seed=21);
    P = X * Y;
    Q = cbind(X, dX) * cbind(Y, dY);
    result = sum(P) + sum(Q);
  )");
}

TEST(PartialRewriteTest, ColAggOfCbind) {
  // The reused aggregate must cost more than a cache probe: the planner
  // neither probes nor caches a cheaper one (must-compute).
  for (const char* agg : {"colSums", "colMeans", "colMins", "colMaxs"}) {
    ExpectPartialReuse(std::string(R"(
      X = rand(rows=300, cols=6, min=-1, max=1, seed=22);
      D = rand(rows=300, cols=2, min=-1, max=1, seed=23);
      a = )") + agg + R"((X);
      b = )" + agg + R"((cbind(X, D));
      result = sum(a) + sum(b);
    )");
  }
}

TEST(PartialRewriteTest, RowAggOfRbind) {
  // As above: the reused aggregate costs more than a probe.
  for (const char* agg : {"rowSums", "rowMeans", "rowMins", "rowMaxs"}) {
    ExpectPartialReuse(std::string(R"(
      X = rand(rows=250, cols=6, min=-1, max=1, seed=24);
      D = rand(rows=100, cols=6, min=-1, max=1, seed=25);
      a = )") + agg + R"((X);
      b = )" + agg + R"((rbind(X, D));
      result = sum(a) + sum(b);
    )");
  }
}

TEST(PartialRewriteTest, StepLmChainReusesIncrementally) {
  // The stepLm pattern: growing cbind chains; each round's tsmm reuses the
  // previous round's via the block-partitioned compensation.
  const std::string script = R"(
    X = rand(rows=100, cols=3, min=-1, max=1, seed=26);
    Y = rand(rows=100, cols=5, min=-1, max=1, seed=27);
    A = t(X) %*% X;
    acc = sum(A);
    Z = X;
    for (i in 1:5) {
      Z = cbind(Z, Y[, i]);
      S = t(Z) %*% Z;
      acc = acc + sum(S);
    }
    result = acc;
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  RunResult lima = RunWithMode(script, ReuseMode::kHybrid);
  EXPECT_NEAR(lima.value, *base.GetDouble("result"), 1e-7);
  EXPECT_GE(lima.partial_hits, 5);  // every round rewrites
}

TEST(PartialRewriteTest, CrossValidationFoldChains) {
  // The cvLm pattern: per-fold tsmm and t(fold)yfold computed once, later
  // folds assembled from cached per-fold results via the recursive chain
  // rewrites.
  const std::string script = R"(
    X = rand(rows=120, cols=6, min=-1, max=1, seed=32);
    y = X %*% matrix(1, 6, 1);
    acc = 0;
    for (i in 1:4) {
      started = 0;
      Xtr = X;
      ytr = y;
      for (j in 1:4) {
        if (j != i) {
          lo = (j - 1) * 30 + 1;
          hi = j * 30;
          if (started == 0) {
            Xtr = X[lo:hi, ];
            ytr = y[lo:hi, ];
            started = 1;
          } else {
            Xtr = rbind(Xtr, X[lo:hi, ]);
            ytr = rbind(ytr, y[lo:hi, ]);
          }
        }
      }
      A = t(Xtr) %*% Xtr;
      b = t(Xtr) %*% ytr;
      beta = solve(A + diag(matrix(0.001, 6, 1)), b);
      acc = acc + sum(abs(beta));
    }
    result = acc;
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  RunResult lima = RunWithMode(script, ReuseMode::kHybrid);
  EXPECT_NEAR(lima.value, *base.GetDouble("result"), 1e-7);
  // Both the tsmm(rbind) and the t(chain)%*%chain rewrites fire.
  EXPECT_GE(lima.partial_hits, 4);
}

TEST(PartialRewriteTest, NoFalsePositivesOnUnrelatedShapes) {
  // A cached tsmm of an unrelated matrix must not be picked up.
  const std::string script = R"(
    X = rand(rows=50, cols=6, min=-1, max=1, seed=28);
    W = rand(rows=50, cols=9, min=-1, max=1, seed=29);
    A = t(W) %*% W;
    Z = cbind(X, rand(rows=50, cols=1, min=-1, max=1, seed=30));
    B = t(Z) %*% Z;
    result = sum(A) + sum(B);
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  RunResult lima = RunWithMode(script, ReuseMode::kHybrid);
  EXPECT_NEAR(lima.value, *base.GetDouble("result"), 1e-8);
}

TEST(PartialRewriteTest, PartialOnlyModeNeverFullReuses) {
  const std::string script = R"(
    X = rand(rows=40, cols=8, min=-1, max=1, seed=31);
    A = t(X) %*% X;
    B = t(X) %*% X;
    Z = cbind(X, X[, 1]);
    C = t(Z) %*% Z;
    result = sum(A) + sum(B) + sum(C);
  )";
  LimaConfig config = LimaConfig::Lima();
  config.reuse_mode = ReuseMode::kPartial;
  LimaSession session(config);
  ASSERT_TRUE(session.Run(script).ok());
  EXPECT_EQ(session.stats()->cache_hits.load(), 0);
  EXPECT_GE(session.stats()->partial_reuse_hits.load(), 1);
}

}  // namespace
}  // namespace lima
