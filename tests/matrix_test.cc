#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "matrix/aggregates.h"
#include "matrix/datagen.h"
#include "matrix/elementwise.h"
#include "matrix/factorize.h"
#include "matrix/indexing.h"
#include "matrix/matmul.h"
#include "matrix/reorg.h"

namespace lima {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  return *Rand(rows, cols, -1.0, 1.0, 1.0, RandPdf::kUniform, seed);
}

// Naive reference matmul for validation.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a.At(i, k) * b.At(k, j);
      out.At(i, j) = s;
    }
  }
  return out;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6);
  EXPECT_EQ(m.SizeInBytes(), 48);
}

TEST(MatrixTest, Sparsity) {
  Matrix m(2, 2, {0, 1, 0, 3});
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.5);
  EXPECT_DOUBLE_EQ(Matrix(3, 3).Sparsity(), 0.0);
}

TEST(MatrixTest, EqualsApprox) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {1, 2, 3, 4 + 1e-12});
  EXPECT_TRUE(a.EqualsApprox(b, 1e-9));
  EXPECT_FALSE(a.EqualsApprox(b, 1e-15));
  EXPECT_FALSE(a.EqualsApprox(Matrix(2, 3)));
}

TEST(MatrixTest, IsSymmetric) {
  Matrix s(2, 2, {1, 5, 5, 2});
  EXPECT_TRUE(s.IsSymmetric());
  Matrix n(2, 2, {1, 5, 4, 2});
  EXPECT_FALSE(n.IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

// ---- Elementwise -----------------------------------------------------------

TEST(ElementwiseTest, BinaryMatrixMatrix) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kAdd, a, b)
                  ->EqualsApprox(Matrix(2, 2, {6, 8, 10, 12})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kMul, a, b)
                  ->EqualsApprox(Matrix(2, 2, {5, 12, 21, 32})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kSub, b, a)
                  ->EqualsApprox(Matrix(2, 2, {4, 4, 4, 4})));
}

TEST(ElementwiseTest, ComparisonsProduceZeroOne) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {2, 2, 2});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kLt, a, b)
                  ->EqualsApprox(Matrix(1, 3, {1, 0, 0})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kEq, a, b)
                  ->EqualsApprox(Matrix(1, 3, {0, 1, 0})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kGe, a, b)
                  ->EqualsApprox(Matrix(1, 3, {0, 1, 1})));
}

TEST(ElementwiseTest, RowVectorBroadcast) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix row(1, 3, {10, 20, 30});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kAdd, a, row)
                  ->EqualsApprox(Matrix(2, 3, {11, 22, 33, 14, 25, 36})));
}

TEST(ElementwiseTest, ColVectorBroadcast) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix col(2, 1, {10, 100});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kMul, a, col)
                  ->EqualsApprox(Matrix(2, 3, {10, 20, 30, 400, 500, 600})));
}

TEST(ElementwiseTest, IncompatibleShapesRejected) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  EXPECT_FALSE(EwiseBinary(BinaryOp::kAdd, a, b).ok());
}

TEST(ElementwiseTest, ScalarVariants) {
  Matrix a(1, 3, {1, 2, 3});
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kSub, a, 1.0, false)
                  .EqualsApprox(Matrix(1, 3, {0, 1, 2})));
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kSub, a, 1.0, true)
                  .EqualsApprox(Matrix(1, 3, {0, -1, -2})));
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kPow, a, 2.0, false)
                  .EqualsApprox(Matrix(1, 3, {1, 4, 9})));
}

TEST(ElementwiseTest, UnaryOps) {
  Matrix a(1, 4, {-1.5, 0.0, 2.25, 4.0});
  EXPECT_TRUE(EwiseUnary(UnaryOp::kAbs, a)
                  .EqualsApprox(Matrix(1, 4, {1.5, 0, 2.25, 4})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kSign, a)
                  .EqualsApprox(Matrix(1, 4, {-1, 0, 1, 1})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kNeg, a)
                  .EqualsApprox(Matrix(1, 4, {1.5, 0, -2.25, -4})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kFloor, Matrix(1, 2, {1.7, -1.2}))
                  .EqualsApprox(Matrix(1, 2, {1, -2})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kCeil, Matrix(1, 2, {1.2, -1.7}))
                  .EqualsApprox(Matrix(1, 2, {2, -1})));
}

TEST(ElementwiseTest, ExpLogInverse) {
  Matrix a(1, 3, {0.5, 1.0, 2.0});
  Matrix roundtrip = EwiseUnary(UnaryOp::kLog, EwiseUnary(UnaryOp::kExp, a));
  EXPECT_TRUE(roundtrip.EqualsApprox(a, 1e-12));
}

TEST(ElementwiseTest, SigmoidRange) {
  Matrix a(1, 3, {-100, 0, 100});
  Matrix s = EwiseUnary(UnaryOp::kSigmoid, a);
  EXPECT_NEAR(s.At(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.At(0, 1), 0.5);
  EXPECT_NEAR(s.At(0, 2), 1.0, 1e-12);
}

// ---- Aggregates ------------------------------------------------------------

TEST(AggregateTest, FullAggregates) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(Sum(m), 21);
  EXPECT_DOUBLE_EQ(Mean(m), 3.5);
  EXPECT_DOUBLE_EQ(MinValue(m), 1);
  EXPECT_DOUBLE_EQ(MaxValue(m), 6);
  EXPECT_DOUBLE_EQ(Trace(m), 1 + 5);
}

TEST(AggregateTest, ColumnAggregates) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(ColSums(m).EqualsApprox(Matrix(1, 3, {5, 7, 9})));
  EXPECT_TRUE(ColMeans(m).EqualsApprox(Matrix(1, 3, {2.5, 3.5, 4.5})));
  EXPECT_TRUE(ColMins(m).EqualsApprox(Matrix(1, 3, {1, 2, 3})));
  EXPECT_TRUE(ColMaxs(m).EqualsApprox(Matrix(1, 3, {4, 5, 6})));
  EXPECT_TRUE(ColVars(m).EqualsApprox(Matrix(1, 3, {4.5, 4.5, 4.5})));
}

TEST(AggregateTest, RowAggregates) {
  Matrix m(2, 3, {1, 2, 3, 6, 5, 4});
  EXPECT_TRUE(RowSums(m).EqualsApprox(Matrix(2, 1, {6, 15})));
  EXPECT_TRUE(RowMeans(m).EqualsApprox(Matrix(2, 1, {2, 5})));
  EXPECT_TRUE(RowMins(m).EqualsApprox(Matrix(2, 1, {1, 4})));
  EXPECT_TRUE(RowMaxs(m).EqualsApprox(Matrix(2, 1, {3, 6})));
}

TEST(AggregateTest, RowIndexMaxFirstTie) {
  Matrix m(2, 3, {1, 3, 3, 9, 2, 9});
  Matrix idx = RowIndexMax(m);
  EXPECT_DOUBLE_EQ(idx.At(0, 0), 2);
  EXPECT_DOUBLE_EQ(idx.At(1, 0), 1);
}

TEST(AggregateTest, ColVarsSingleRowIsZero) {
  EXPECT_TRUE(ColVars(Matrix(1, 3, {1, 2, 3}))
                  .EqualsApprox(Matrix(1, 3, {0, 0, 0})));
}

// ---- MatMul ----------------------------------------------------------------

class MatMulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulSizes, MatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 1);
  Matrix b = RandomMatrix(k, n, 2);
  Result<Matrix> fast = MatMul(a, b);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast->EqualsApprox(ReferenceMatMul(a, b), 1e-9));
}

TEST_P(MatMulSizes, TsmmMatchesTransposedProduct) {
  auto [m, k, n] = GetParam();
  (void)n;
  Matrix x = RandomMatrix(m, k, 3);
  Matrix expected = ReferenceMatMul(Transpose(x), x);
  EXPECT_TRUE(Tsmm(x, true).EqualsApprox(expected, 1e-9));
}

TEST_P(MatMulSizes, TransposeMatMulMatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 4);
  Matrix b = RandomMatrix(m, n, 5);
  Result<Matrix> r = TransposeMatMul(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->EqualsApprox(ReferenceMatMul(Transpose(a), b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 4, 5),
                                           std::make_tuple(17, 9, 23),
                                           std::make_tuple(64, 32, 16),
                                           std::make_tuple(70, 128, 5)));

TEST(MatMulTest, InnerDimensionMismatchRejected) {
  EXPECT_FALSE(MatMul(Matrix(2, 3), Matrix(4, 2)).ok());
  EXPECT_FALSE(TransposeMatMul(Matrix(2, 3), Matrix(3, 2)).ok());
}

TEST(MatMulTest, MultithreadedMatchesSingle) {
  Matrix a = RandomMatrix(200, 40, 6);
  Matrix b = RandomMatrix(40, 30, 7);
  // Parallel execution (budget handle) must produce the same bytes as the
  // null-context sequential path — the kernels chunk identically either way.
  ParallelBudget budget(4);
  ParallelContext par(&budget);
  Result<Matrix> parallel = MatMul(a, b, &par);
  Result<Matrix> sequential = MatMul(a, b);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(0, std::memcmp(parallel->data(), sequential->data(),
                           sizeof(double) * parallel->size()));
  Matrix tp = Tsmm(a, true, &par);
  Matrix ts = Tsmm(a, true);
  EXPECT_EQ(0, std::memcmp(tp.data(), ts.data(), sizeof(double) * tp.size()));
}

// t(A) %*% B with a zero-width A: the input rows are split into chunks,
// but the k x n partials have no cells to reduce. The reduce split used to
// divide by its zero chunk count (SIGFPE).
TEST(MatMulTest, TransposeMatMulOfZeroWidthOperand) {
  Result<Matrix> out =
      TransposeMatMul(Matrix(2000, 0), Matrix(2000, 2000, 1.0));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rows(), 0);
  EXPECT_EQ(out->cols(), 2000);
}

TEST(MatMulTest, TsmmRightIsGramOfRows) {
  Matrix x = RandomMatrix(6, 4, 8);
  Matrix expected = ReferenceMatMul(x, Transpose(x));
  EXPECT_TRUE(Tsmm(x, false).EqualsApprox(expected, 1e-9));
}

// ---- Factorize -------------------------------------------------------------

TEST(SolveTest, SolvesKnownSystem) {
  Matrix a(2, 2, {2, 0, 0, 4});
  Matrix b(2, 1, {6, 8});
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(Matrix(2, 1, {3, 2}), 1e-12));
}

TEST(SolveTest, MultipleRhs) {
  Matrix a = RandomMatrix(8, 8, 9);
  for (int64_t i = 0; i < 8; ++i) a.At(i, i) += 10;  // well-conditioned
  Matrix x = RandomMatrix(8, 3, 10);
  Matrix b = ReferenceMatMul(a, x);
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(x, 1e-8));
}

TEST(SolveTest, RequiresPivoting) {
  Matrix a(2, 2, {0, 1, 1, 0});  // zero pivot without row exchange
  Matrix b(2, 1, {2, 3});
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(Matrix(2, 1, {3, 2}), 1e-12));
}

TEST(SolveTest, SingularRejected) {
  Matrix a(2, 2, {1, 2, 2, 4});
  EXPECT_EQ(Solve(a, Matrix(2, 1)).status().code(),
            StatusCode::kRuntimeError);
}

TEST(SolveTest, NonSquareRejected) {
  EXPECT_FALSE(Solve(Matrix(2, 3), Matrix(2, 1)).ok());
  EXPECT_FALSE(Solve(Matrix(2, 2), Matrix(3, 1)).ok());
}

TEST(CholeskyTest, FactorReproducesMatrix) {
  Matrix x = RandomMatrix(20, 5, 11);
  Matrix spd = Tsmm(x, true);
  for (int64_t i = 0; i < 5; ++i) spd.At(i, i) += 1.0;
  Result<Matrix> l = Cholesky(spd);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(ReferenceMatMul(*l, Transpose(*l)).EqualsApprox(spd, 1e-9));
  // Lower-triangular.
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(l->At(i, j), 0.0);
  }
}

TEST(CholeskyTest, IndefiniteRejected) {
  Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a.At(0, 0) = 1;
  a.At(1, 1) = 5;
  a.At(2, 2) = 3;
  auto result = EigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& [values, vectors] = *result;
  EXPECT_TRUE(values.EqualsApprox(Matrix(3, 1, {5, 3, 1}), 1e-10));
  (void)vectors;
}

TEST(EigenTest, ReconstructsMatrixAndOrthogonal) {
  Matrix x = RandomMatrix(30, 6, 12);
  Matrix a = Tsmm(x, true);
  auto result = EigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& [values, vectors] = *result;
  // A == V diag(w) V^T.
  Matrix vd(6, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      vd.At(i, j) = vectors.At(i, j) * values.At(j, 0);
    }
  }
  EXPECT_TRUE(ReferenceMatMul(vd, Transpose(vectors)).EqualsApprox(a, 1e-7));
  // V^T V == I.
  Matrix vtv = ReferenceMatMul(Transpose(vectors), vectors);
  Matrix eye(6, 6);
  for (int64_t i = 0; i < 6; ++i) eye.At(i, i) = 1;
  EXPECT_TRUE(vtv.EqualsApprox(eye, 1e-9));
  // Descending order.
  for (int64_t i = 1; i < 6; ++i) {
    EXPECT_GE(values.At(i - 1, 0), values.At(i, 0));
  }
}

TEST(EigenTest, NonSymmetricRejected) {
  Matrix a(2, 2, {1, 2, 3, 4});
  EXPECT_FALSE(EigenSymmetric(a).ok());
}

// ---- Reorg -----------------------------------------------------------------

TEST(ReorgTest, TransposeInvolution) {
  Matrix m = RandomMatrix(7, 13, 13);
  EXPECT_TRUE(Transpose(Transpose(m)).EqualsApprox(m));
  EXPECT_DOUBLE_EQ(Transpose(m).At(5, 3), m.At(3, 5));
}

TEST(ReorgTest, DiagBothDirections) {
  Matrix v(3, 1, {1, 2, 3});
  Matrix d = *Diag(v);
  EXPECT_EQ(d.rows(), 3);
  EXPECT_DOUBLE_EQ(d.At(1, 1), 2);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 0);
  EXPECT_TRUE(Diag(d)->EqualsApprox(v));
  EXPECT_FALSE(Diag(Matrix(2, 3)).ok());
}

TEST(ReorgTest, CBindRBind) {
  Matrix a(2, 1, {1, 2});
  Matrix b(2, 2, {3, 4, 5, 6});
  EXPECT_TRUE(CBind(a, b)->EqualsApprox(Matrix(2, 3, {1, 3, 4, 2, 5, 6})));
  Matrix c(1, 1, {9});
  EXPECT_TRUE(RBind(a, Matrix(1, 1, {9}))
                  ->EqualsApprox(Matrix(3, 1, {1, 2, 9})));
  EXPECT_FALSE(CBind(Matrix(2, 1), Matrix(3, 1)).ok());
  EXPECT_FALSE(RBind(Matrix(2, 2), Matrix(2, 3)).ok());
}

TEST(ReorgTest, ReshapeRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(Reshape(m, 3, 2)->EqualsApprox(Matrix(3, 2, {1, 2, 3, 4, 5, 6})));
  EXPECT_FALSE(Reshape(m, 4, 2).ok());
}

TEST(ReorgTest, OrderValuesAndIndices) {
  Matrix v(4, 1, {3, 1, 4, 1});
  EXPECT_TRUE(Order(v, false, false)->EqualsApprox(Matrix(4, 1, {1, 1, 3, 4})));
  // Stable: the first 1 (index 2) precedes the second (index 4).
  EXPECT_TRUE(Order(v, false, true)->EqualsApprox(Matrix(4, 1, {2, 4, 1, 3})));
  EXPECT_TRUE(Order(v, true, false)->EqualsApprox(Matrix(4, 1, {4, 3, 1, 1})));
  EXPECT_FALSE(Order(Matrix(2, 2), false, false).ok());
}

TEST(ReorgTest, TableContingency) {
  Matrix v1(4, 1, {1, 2, 2, 3});
  Matrix v2(4, 1, {2, 1, 1, 3});
  Matrix t = *Table(v1, v2);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 1);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 2);
  EXPECT_DOUBLE_EQ(t.At(2, 2), 1);
  EXPECT_DOUBLE_EQ(Sum(t), 4);
}

TEST(ReorgTest, TableWithExplicitDims) {
  Matrix v1(1, 1, {1});
  Matrix v2(1, 1, {1});
  Matrix t = *Table(v1, v2, 5, 7);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 7);
  EXPECT_FALSE(Table(Matrix(1, 1, {0.5}), v2).ok());
  EXPECT_FALSE(Table(Matrix(2, 1), Matrix(3, 1)).ok());
}

TEST(ReorgTest, ReverseRows) {
  Matrix m(3, 1, {1, 2, 3});
  EXPECT_TRUE(ReverseRows(m).EqualsApprox(Matrix(3, 1, {3, 2, 1})));
}

// ---- Indexing --------------------------------------------------------------

TEST(IndexingTest, RightIndexSlices) {
  Matrix m(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(RightIndex(m, 2, 3, 1, 2)
                  ->EqualsApprox(Matrix(2, 2, {4, 5, 7, 8})));
  EXPECT_TRUE(RightIndex(m, 1, 1, 1, 3)->EqualsApprox(Matrix(1, 3, {1, 2, 3})));
  EXPECT_FALSE(RightIndex(m, 0, 1, 1, 1).ok());
  EXPECT_FALSE(RightIndex(m, 1, 4, 1, 1).ok());
  EXPECT_FALSE(RightIndex(m, 2, 1, 1, 1).ok());
}

TEST(IndexingTest, LeftIndexProducesNewMatrix) {
  Matrix m(3, 3);
  Matrix src(2, 2, {1, 2, 3, 4});
  Matrix out = *LeftIndex(m, src, 1, 2, 2, 3);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 1);
  EXPECT_DOUBLE_EQ(out.At(1, 2), 4);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0);  // original untouched
  EXPECT_FALSE(LeftIndex(m, src, 1, 3, 1, 2).ok());  // shape mismatch
}

TEST(IndexingTest, SelectColumnsAndRows) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix idx(2, 1, {3, 1});
  EXPECT_TRUE(SelectColumns(m, idx)->EqualsApprox(Matrix(2, 2, {3, 1, 6, 4})));
  Matrix ridx(1, 1, {2});
  EXPECT_TRUE(SelectRows(m, ridx)->EqualsApprox(Matrix(1, 3, {4, 5, 6})));
  EXPECT_FALSE(SelectColumns(m, Matrix(1, 1, {4})).ok());
  EXPECT_FALSE(SelectRows(m, Matrix(1, 1, {0})).ok());
}

// ---- Datagen ---------------------------------------------------------------

TEST(DatagenTest, RandDeterministicPerSeed) {
  Matrix a = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 42);
  Matrix b = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 42);
  Matrix c = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 43);
  EXPECT_TRUE(a.EqualsApprox(b));
  EXPECT_FALSE(a.EqualsApprox(c));
}

TEST(DatagenTest, RandRespectsRange) {
  Matrix m = *Rand(50, 50, 2, 5, 1.0, RandPdf::kUniform, 1);
  EXPECT_GE(MinValue(m), 2.0);
  EXPECT_LT(MaxValue(m), 5.0);
}

TEST(DatagenTest, RandSparsityApproximate) {
  Matrix m = *Rand(100, 100, 1, 2, 0.3, RandPdf::kUniform, 2);
  EXPECT_NEAR(m.Sparsity(), 0.3, 0.03);
}

TEST(DatagenTest, RandNormalMoments) {
  Matrix m = *Rand(200, 200, 0, 0, 1.0, RandPdf::kNormal, 3);
  EXPECT_NEAR(Mean(m), 0.0, 0.02);
  double var = 0;
  for (int64_t i = 0; i < m.size(); ++i) var += m.data()[i] * m.data()[i];
  EXPECT_NEAR(var / m.size(), 1.0, 0.03);
}

TEST(DatagenTest, RandValidation) {
  EXPECT_FALSE(Rand(-1, 2, 0, 1, 1, RandPdf::kUniform, 1).ok());
  EXPECT_FALSE(Rand(2, 2, 0, 1, 1.5, RandPdf::kUniform, 1).ok());
}

TEST(DatagenTest, SampleDistinctInRange) {
  Matrix s = *Sample(50, 20, 7);
  EXPECT_EQ(s.rows(), 20);
  std::set<double> values(s.data(), s.data() + s.size());
  EXPECT_EQ(values.size(), 20u);
  EXPECT_GE(*values.begin(), 1.0);
  EXPECT_LE(*values.rbegin(), 50.0);
  EXPECT_FALSE(Sample(5, 10, 1).ok());
}

TEST(DatagenTest, SeqVariants) {
  EXPECT_TRUE(SeqMatrix(1, 5, 1)->EqualsApprox(Matrix(5, 1, {1, 2, 3, 4, 5})));
  EXPECT_TRUE(SeqMatrix(5, 1, -2)->EqualsApprox(Matrix(3, 1, {5, 3, 1})));
  EXPECT_TRUE(SeqMatrix(0, 1, 0.25)->EqualsApprox(
      Matrix(5, 1, {0, 0.25, 0.5, 0.75, 1})));
  EXPECT_FALSE(SeqMatrix(1, 5, 0).ok());
  EXPECT_FALSE(SeqMatrix(5, 1, 1).ok());
}

}  // namespace
}  // namespace lima
