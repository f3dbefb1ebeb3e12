#include "runtime/kernels.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lineage/serialize.h"
#include "matrix/aggregates.h"
#include "matrix/datagen.h"
#include "matrix/factorize.h"
#include "matrix/indexing.h"
#include "matrix/matmul.h"
#include "matrix/matrix_io.h"
#include "matrix/reorg.h"
#include "runtime/instruction.h"
#include "runtime/instructions_misc.h"
#include "runtime/program.h"

namespace lima {

namespace {

using Values = std::vector<DataPtr>;

Values One(Matrix&& m) { return Values{MakeMatrixData(std::move(m))}; }
Values One(MatrixPtr m) { return Values{MakeMatrixData(std::move(m))}; }

/// Matrix payload of a kMatrix Data without copying the MatrixPtr (a copy
/// would raise the handle's refcount and defeat the steal census below).
const Matrix& MatrixOf(const DataPtr& data) {
  return *static_cast<const MatrixData*>(data.get())->matrix();
}

/// Input `i` as a dimension or index, range-checked before the conversion.
Result<int64_t> AsIndex(const KernelCall& c, size_t i) {
  LIMA_ASSIGN_OR_RETURN(double v, AsNumber(c.in[i]));
  return CheckedInt64(v, c.self.opcode().c_str());
}

/// In-place eligibility gate: the liveness mask must mark operand `index`
/// as its variable's last use, then the refcount census in TryStealBuffer
/// proves the buffer unaliased. Returns the mutable buffer or nullptr.
std::shared_ptr<Matrix> TrySteal(const KernelCall& c, size_t index) {
  if (index >= 32 || (c.self.last_use_mask() & (uint32_t{1} << index)) == 0) {
    return nullptr;
  }
  const Operand& operand = c.self.operands()[index];
  if (operand.is_literal) return nullptr;
  return c.ctx->TryStealBuffer(operand.name, c.in, index);
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe:
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return true;
    default:
      return false;
  }
}

bool IsIntPreserving(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kMin:
    case BinaryOp::kMax:
    case BinaryOp::kMod:
    case BinaryOp::kIntDiv:
      return true;
    default:
      return false;
  }
}

// ---- Cell-wise operators ---------------------------------------------------

/// The one output choice of the cell-wise kernels: when every matrix
/// operand has the output's shape (none is broadcast), the first operand
/// whose buffer TrySteal grants; otherwise a fresh rows x cols matrix.
std::shared_ptr<Matrix> CellwiseOutput(const KernelCall& c, int64_t rows,
                                       int64_t cols) {
  const bool lendable =
      std::all_of(c.in.begin(), c.in.end(), [&](const DataPtr& in) {
        return in->type() != DataType::kMatrix ||
               (MatrixOf(in).rows() == rows && MatrixOf(in).cols() == cols);
      });
  for (size_t i = 0; lendable && i < c.in.size(); ++i) {
    if (auto stolen = TrySteal(c, i)) return stolen;
  }
  return std::make_shared<Matrix>(rows, cols);
}

/// Cell-wise binary operation over any scalar/matrix operand combination.
Result<Values> BinaryKernel(const KernelCall& c) {
  const BinaryOp op = c.self.kernel().binary;
  const ParallelContext* par = c.ctx->parallel();
  const DataPtr& a = c.in[0];
  const DataPtr& b = c.in[1];
  bool a_matrix = a->type() == DataType::kMatrix;
  bool b_matrix = b->type() == DataType::kMatrix;

  if (!a_matrix && !b_matrix) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue sa, AsScalar(a));
    LIMA_ASSIGN_OR_RETURN(ScalarValue sb, AsScalar(b));
    LIMA_ASSIGN_OR_RETURN(ScalarValue r, ScalarBinary(op, sa, sb));
    return Values{MakeScalarData(std::move(r))};
  }
  if (a_matrix && b_matrix) {
    const Matrix& ma = MatrixOf(a);
    const Matrix& mb = MatrixOf(b);
    LIMA_ASSIGN_OR_RETURN(auto shape, EwiseBinaryShape(op, ma, mb));
    std::shared_ptr<Matrix> out = CellwiseOutput(c, shape.first, shape.second);
    EwiseBinaryInto(op, ma, mb, out.get(), par);
    return One(std::move(out));
  }
  LIMA_ASSIGN_OR_RETURN(ScalarValue s, AsScalar(a_matrix ? b : a));
  if (!s.is_numeric()) {
    return Status::TypeError(a_matrix ? "matrix-string operation not supported"
                                      : "string-matrix operation not supported");
  }
  const Matrix& m = MatrixOf(a_matrix ? a : b);
  std::shared_ptr<Matrix> out = CellwiseOutput(c, m.rows(), m.cols());
  EwiseBinaryScalarInto(op, m, s.AsDouble(), /*scalar_is_left=*/!a_matrix,
                        out.get(), par);
  return One(std::move(out));
}

/// Cell-wise unary operation (matrix or scalar operand).
Result<Values> UnaryKernel(const KernelCall& c) {
  const UnaryOp op = c.self.kernel().unary;
  if (c.in[0]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(c.in[0]));
    LIMA_ASSIGN_OR_RETURN(ScalarValue r, ScalarUnary(op, v));
    return Values{MakeScalarData(std::move(r))};
  }
  if (c.in[0]->type() != DataType::kMatrix) {
    return Status::TypeError("unary operator requires a scalar or matrix");
  }
  const Matrix& m = MatrixOf(c.in[0]);
  std::shared_ptr<Matrix> out = CellwiseOutput(c, m.rows(), m.cols());
  EwiseUnaryInto(op, m, out.get(), c.ctx->parallel());
  return One(std::move(out));
}

/// ifelse(C, A, B): cell-wise ternary with R-style broadcasting across all
/// three operands; scalars broadcast fully.
Result<Values> IfElseKernel(const KernelCall& c) {
  // Resolve each operand into (matrix or broadcast scalar) form.
  struct Src {
    const Matrix* matrix = nullptr;
    double scalar = 0.0;
  };
  Src sources[3];
  int64_t rows = 1;
  int64_t cols = 1;
  for (int i = 0; i < 3; ++i) {
    if (c.in[i]->type() == DataType::kMatrix) {
      const Matrix* m = &MatrixOf(c.in[i]);
      sources[i].matrix = m;
      if (m->rows() != 1 || m->cols() != 1) {
        if ((rows != 1 && m->rows() != 1 && m->rows() != rows) ||
            (cols != 1 && m->cols() != 1 && m->cols() != cols)) {
          return Status::Invalid("ifelse: incompatible operand shapes");
        }
        rows = std::max(rows, m->rows());
        cols = std::max(cols, m->cols());
      }
    } else {
      LIMA_ASSIGN_OR_RETURN(double v, AsNumber(c.in[i]));
      sources[i].scalar = v;
    }
  }
  auto at = [&](const Src& src, int64_t i, int64_t j) -> double {
    if (src.matrix == nullptr) return src.scalar;
    int64_t r = src.matrix->rows() == 1 ? 0 : i;
    int64_t col = src.matrix->cols() == 1 ? 0 : j;
    return src.matrix->At(r, col);
  };
  if (rows == 1 && cols == 1 && sources[0].matrix == nullptr &&
      sources[1].matrix == nullptr && sources[2].matrix == nullptr) {
    // All-scalar form yields a scalar.
    double v = sources[0].scalar != 0.0 ? sources[1].scalar
                                        : sources[2].scalar;
    return Values{MakeDoubleData(v)};
  }
  Matrix out(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out.At(i, j) = at(sources[0], i, j) != 0.0 ? at(sources[1], i, j)
                                                 : at(sources[2], i, j);
    }
  }
  return One(std::move(out));
}

// ---- Aggregates -------------------------------------------------------------

double TraceOf(const Matrix& m, const ParallelContext*) { return Trace(m); }
Matrix ColVarsOf(const Matrix& m, const ParallelContext*) { return ColVars(m); }

struct NamedAggregate {
  const char* opcode;
  AggregateKernel kernel;
};

using enum AggregateAxis;

const NamedAggregate kAggregates[] = {
    {"sum", {kFull, Sum, nullptr}},
    {"mean", {kFull, Mean, nullptr}},
    {"ua_min", {kFull, MinValue, nullptr}},
    {"ua_max", {kFull, MaxValue, nullptr}},
    {"trace", {kFull, TraceOf, nullptr}},
    {"colSums", {kCols, nullptr, ColSums}},
    {"colMeans", {kCols, nullptr, ColMeans}},
    {"colMins", {kCols, nullptr, ColMins}},
    {"colMaxs", {kCols, nullptr, ColMaxs}},
    {"colVars", {kCols, nullptr, ColVarsOf}},
    {"rowSums", {kRows, nullptr, RowSums}},
    {"rowMeans", {kRows, nullptr, RowMeans}},
    {"rowMins", {kRows, nullptr, RowMins}},
    {"rowMaxs", {kRows, nullptr, RowMaxs}},
    {"rowIndexMax", {kRows, nullptr, RowIndexMax}},
};

Result<Values> AggregateOp(const KernelCall& c) {
  const AggregateKernel& agg = *c.self.kernel().aggregate;
  const ParallelContext* par = c.ctx->parallel();
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  if (agg.axis == AggregateAxis::kFull) {
    return Values{MakeDoubleData(agg.full(*m, par))};
  }
  return One(agg.partial(*m, par));
}

// ---- Metadata, casts, rendering --------------------------------------------

/// nrow/ncol: a matrix dimension (lists have none).
Result<Values> Dimension(const KernelCall& c, int64_t (Matrix::*dim)() const) {
  if (c.in[0]->type() == DataType::kList) {
    return Status::TypeError(c.self.opcode() + " not defined on lists");
  }
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  return Values{MakeIntData(((*m).*dim)())};
}

Result<Values> NRowKernel(const KernelCall& c) {
  return Dimension(c, &Matrix::rows);
}

Result<Values> NColKernel(const KernelCall& c) {
  return Dimension(c, &Matrix::cols);
}

/// length: matrix cell count or list length.
Result<Values> LengthKernel(const KernelCall& c) {
  if (c.in[0]->type() == DataType::kList) {
    LIMA_ASSIGN_OR_RETURN(auto list, AsList(c.in[0]));
    return Values{MakeIntData(list->size())};
  }
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  return Values{MakeIntData(m->size())};
}

/// castdts (as.scalar): 1x1 matrix -> scalar.
Result<Values> CastToScalarKernel(const KernelCall& c) {
  if (c.in[0]->type() == DataType::kScalar) return Values{c.in[0]};
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  if (m->rows() != 1 || m->cols() != 1) {
    return Status::Invalid("as.scalar: matrix is not 1x1");
  }
  return Values{MakeDoubleData(m->At(0, 0))};
}

/// castsdm (as.matrix): scalar -> 1x1 matrix.
Result<Values> CastToMatrixKernel(const KernelCall& c) {
  if (c.in[0]->type() == DataType::kMatrix) return Values{c.in[0]};
  LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(c.in[0]));
  if (!v.is_numeric()) {
    return Status::TypeError("as.matrix: string scalar");
  }
  return One(Matrix(1, 1, v.AsDouble()));
}

/// toString(X): renders a value into a string scalar.
Result<Values> ToStringKernel(const KernelCall& c) {
  if (c.in[0]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(c.in[0]));
    return Values{MakeStringData(v.ToDisplayString())};
  }
  if (c.in[0]->type() == DataType::kMatrix) {
    LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
    return Values{MakeStringData(m->ToString())};
  }
  return Values{MakeStringData("<list>")};
}

// ---- Matrix multiplications and factorizations ------------------------------

Result<Values> MatMulKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr b, AsMatrix(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, MatMul(*a, *b, c.ctx->parallel()));
  return One(std::move(r));
}

/// t(X) %*% X ("tsmm", `left`) or X %*% t(X) (legacy SystemDS "tmm").
Result<Values> SelfProduct(const KernelCall& c, bool left) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr x, AsMatrix(c.in[0]));
  return One(Tsmm(*x, left, c.ctx->parallel()));
}

Result<Values> TsmmKernel(const KernelCall& c) {
  return SelfProduct(c, /*left=*/true);
}

Result<Values> TmmKernel(const KernelCall& c) {
  return SelfProduct(c, /*left=*/false);
}

Result<Values> SolveKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr b, AsMatrix(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Solve(*a, *b));
  return One(std::move(r));
}

Result<Values> CholeskyKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Cholesky(*a));
  return One(std::move(r));
}

/// [values, vectors] = eigen(A) for symmetric A (two outputs).
Result<Values> EigenKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(auto pair, EigenSymmetric(*a));
  return Values{MakeMatrixData(std::move(pair.first)),
                MakeMatrixData(std::move(pair.second))};
}

/// Compiler-assisted fused tsmm(cbind(A, B)) (Sec. 4.4): computes the
/// block-partitioned result [[t(A)A, t(A)B], [t(B)A, t(B)B]] without
/// materializing cbind(A, B); the t(A)A block is probed from / put into the
/// lineage cache.
Result<Values> TsmmCbindKernel(const KernelCall& c) {
  ExecutionContext* ctx = c.ctx;
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr b, AsMatrix(c.in[1]));
  if (a->rows() != b->rows()) {
    return Status::Invalid("tsmm_cbind: row mismatch");
  }

  // Upper-left block t(A)A: probe the lineage cache when available.
  MatrixPtr taa;
  ReuseCache* cache = ctx->cache();
  LineageItemPtr taa_key;
  if (cache != nullptr && ctx->lineage_active()) {
    taa_key = LineageItem::Create(
        "tsmm", {ResolveOperandLineage(ctx, c.self.operands()[0])});
    DataPtr hit = cache->Peek(taa_key);
    if (hit != nullptr && hit->type() == DataType::kMatrix) {
      taa = static_cast<const MatrixData*>(hit.get())->matrix();
    }
  }
  if (taa == nullptr) {
    StopWatch watch;
    taa = MakeMatrixPtr(Tsmm(*a, /*left=*/true, ctx->parallel()));
    if (cache != nullptr && taa_key != nullptr && ctx->reuse_active()) {
      cache->Put(taa_key, MakeMatrixData(taa), watch.ElapsedSeconds());
    }
  }

  LIMA_ASSIGN_OR_RETURN(Matrix tab,
                        TransposeMatMul(*a, *b, ctx->parallel()));
  Matrix tbb = Tsmm(*b, /*left=*/true, ctx->parallel());

  return One(AssembleTsmmBlocks(*taa, tab, tbb));
}

/// Lineage equals the unrewritten tsmm(cbind(A, B)) trace, keeping cached
/// results interchangeable with normal execution.
LineageItemPtr TsmmCbindLineage(const std::vector<LineageItemPtr>& in) {
  LineageItemPtr cbind_item = LineageItem::Create("cbind", in);
  return LineageItem::Create("tsmm", {cbind_item});
}

// ---- Reorganizations and indexing ------------------------------------------

Result<Values> TransposeKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  return One(Transpose(*m));
}

/// rev: reverse rows.
Result<Values> RevKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  return One(ReverseRows(*m));
}

Result<Values> DiagKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Diag(*m));
  return One(std::move(r));
}

/// Row-major reshape: operands (X, rows, cols).
Result<Values> ReshapeKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(int64_t rows, AsIndex(c, 1));
  LIMA_ASSIGN_OR_RETURN(int64_t cols, AsIndex(c, 2));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Reshape(*m, rows, cols));
  return One(std::move(r));
}

/// cbind/rbind of two matrices.
Result<Values> Append(const KernelCall& c,
                      Result<Matrix> (*append)(const Matrix&, const Matrix&)) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr a, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr b, AsMatrix(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, append(*a, *b));
  return One(std::move(r));
}

Result<Values> CBindKernel(const KernelCall& c) { return Append(c, CBind); }

Result<Values> RBindKernel(const KernelCall& c) { return Append(c, RBind); }

/// Right indexing X[rl:ru, cl:cu]: operands (X, rl, ru, cl, cu), 1-based
/// inclusive.
Result<Values> RightIndexKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(int64_t rl, AsIndex(c, 1));
  LIMA_ASSIGN_OR_RETURN(int64_t ru, AsIndex(c, 2));
  LIMA_ASSIGN_OR_RETURN(int64_t cl, AsIndex(c, 3));
  LIMA_ASSIGN_OR_RETURN(int64_t cu, AsIndex(c, 4));
  LIMA_ASSIGN_OR_RETURN(Matrix r, RightIndex(*m, rl, ru, cl, cu));
  return One(std::move(r));
}

/// Left indexing out = X with X[rl:ru, cl:cu] = Y: operands
/// (X, Y, rl, ru, cl, cu).
Result<Values> LeftIndexKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(int64_t rl, AsIndex(c, 2));
  LIMA_ASSIGN_OR_RETURN(int64_t ru, AsIndex(c, 3));
  LIMA_ASSIGN_OR_RETURN(int64_t cl, AsIndex(c, 4));
  LIMA_ASSIGN_OR_RETURN(int64_t cu, AsIndex(c, 5));
  // Scalar sources are implicitly cast to 1x1 (DML X[i,j] = s).
  Matrix src(0, 0);
  if (c.in[1]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(double v, AsNumber(c.in[1]));
    src = Matrix(1, 1, v);
  } else {
    LIMA_ASSIGN_OR_RETURN(MatrixPtr s, AsMatrix(c.in[1]));
    src = *s;
  }
  LIMA_ASSIGN_OR_RETURN(Matrix r, LeftIndex(*m, src, rl, ru, cl, cu));
  return One(std::move(r));
}

/// Column/row gather by an index vector (selcols/selrows).
Result<Values> Select(const KernelCall& c,
                      Result<Matrix> (*select)(const Matrix&, const Matrix&)) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
  // Scalar indices select a single column/row (X[, k]).
  Matrix idx(1, 1);
  if (c.in[1]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(double v, AsNumber(c.in[1]));
    idx.At(0, 0) = v;
  } else {
    LIMA_ASSIGN_OR_RETURN(MatrixPtr im, AsMatrix(c.in[1]));
    idx = *im;
  }
  LIMA_ASSIGN_OR_RETURN(Matrix r, select(*m, idx));
  return One(std::move(r));
}

Result<Values> SelColsKernel(const KernelCall& c) {
  return Select(c, SelectColumns);
}

Result<Values> SelRowsKernel(const KernelCall& c) {
  return Select(c, SelectRows);
}

/// table(v1, v2 [, rows, cols]) contingency matrix.
Result<Values> TableKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr v1, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr v2, AsMatrix(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(int64_t rows, AsIndex(c, 2));
  LIMA_ASSIGN_OR_RETURN(int64_t cols, AsIndex(c, 3));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Table(*v1, *v2, rows, cols));
  return One(std::move(r));
}

/// order(V, decreasing, index_return).
Result<Values> OrderKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(MatrixPtr v, AsMatrix(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(ScalarValue dec, AsScalar(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(ScalarValue idx, AsScalar(c.in[2]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Order(*v, dec.AsBool(), idx.AsBool()));
  return One(std::move(r));
}

// ---- Data generators --------------------------------------------------------

/// The seed of rand/sample: the system seed drawn for this execution, or
/// the explicit seed operand.
Result<uint64_t> SeedOf(const KernelCall& c) {
  if (c.state.has_seed) return c.state.seed;
  LIMA_ASSIGN_OR_RETURN(double s, AsNumber(c.in[c.self.kernel().seed_operand]));
  return static_cast<uint64_t>(std::llround(s));
}

/// rand: operands (rows, cols, min, max, sparsity, pdf, seed).
Result<Values> RandKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(int64_t rows, AsIndex(c, 0));
  LIMA_ASSIGN_OR_RETURN(int64_t cols, AsIndex(c, 1));
  LIMA_ASSIGN_OR_RETURN(double min_v, AsNumber(c.in[2]));
  LIMA_ASSIGN_OR_RETURN(double max_v, AsNumber(c.in[3]));
  LIMA_ASSIGN_OR_RETURN(double sparsity, AsNumber(c.in[4]));
  LIMA_ASSIGN_OR_RETURN(ScalarValue pdf, AsScalar(c.in[5]));
  RandPdf kind = RandPdf::kUniform;
  if (pdf.is_string() && pdf.AsString() == "normal") {
    kind = RandPdf::kNormal;
  }
  LIMA_ASSIGN_OR_RETURN(uint64_t seed, SeedOf(c));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Rand(rows, cols, min_v, max_v, sparsity,
                                       kind, seed, c.ctx->parallel()));
  return One(std::move(r));
}

/// sample: operands (range, size, seed).
Result<Values> SampleKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(int64_t range, AsIndex(c, 0));
  LIMA_ASSIGN_OR_RETURN(int64_t size, AsIndex(c, 1));
  LIMA_ASSIGN_OR_RETURN(uint64_t seed, SeedOf(c));
  LIMA_ASSIGN_OR_RETURN(Matrix r, Sample(range, size, seed));
  return One(std::move(r));
}

/// seq: operands (from, to, incr).
Result<Values> SeqKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(double from, AsNumber(c.in[0]));
  LIMA_ASSIGN_OR_RETURN(double to, AsNumber(c.in[1]));
  LIMA_ASSIGN_OR_RETURN(double incr, AsNumber(c.in[2]));
  LIMA_ASSIGN_OR_RETURN(Matrix r, SeqMatrix(from, to, incr));
  return One(std::move(r));
}

/// fill: operands (value, rows, cols) — matrix(v, rows, cols).
Result<Values> FillKernel(const KernelCall& c) {
  LIMA_ASSIGN_OR_RETURN(int64_t rows, AsIndex(c, 1));
  LIMA_ASSIGN_OR_RETURN(int64_t cols, AsIndex(c, 2));
  LIMA_RETURN_NOT_OK(CheckedCellCount(rows, cols, "matrix()").status());
  // matrix(X, rows, cols) with a matrix argument is a row-major reshape.
  if (c.in[0]->type() == DataType::kMatrix) {
    LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(c.in[0]));
    LIMA_ASSIGN_OR_RETURN(Matrix r, Reshape(*m, rows, cols));
    return One(std::move(r));
  }
  LIMA_ASSIGN_OR_RETURN(double value, AsNumber(c.in[0]));
  return One(Matrix(rows, cols, value));
}

// ---- Non-computation rows --------------------------------------------------

/// Operand `i` as a string; `what` names it in the type error.
Result<std::string> StringOperand(const MiscInstruction& self,
                                  ExecutionContext* ctx, size_t i,
                                  const char* what) {
  LIMA_ASSIGN_OR_RETURN(DataPtr data, ResolveOperand(ctx, self.operands()[i]));
  LIMA_ASSIGN_OR_RETURN(ScalarValue value, AsScalar(data));
  if (!value.is_string()) {
    return Status::TypeError(std::string(what) + " must be a string");
  }
  return value.AsString();
}

/// print(x): writes the rendered value plus newline to the print stream.
Status PrintOp(const MiscInstruction& self, ExecutionContext* ctx) {
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, self.operands()[0]));
  std::ostream& out = ctx->print_stream();
  if (value->type() == DataType::kScalar) {
    out << static_cast<const ScalarData*>(value.get())
               ->value()
               .ToDisplayString()
        << "\n";
  } else if (value->type() == DataType::kMatrix) {
    out << static_cast<const MatrixData*>(value.get())->matrix()->ToString();
  } else {
    out << "<list of "
        << static_cast<const ListData*>(value.get())->size() << ">\n";
  }
  return Status::OK();
}

/// stop(msg): aborts script execution with a RuntimeError.
Status StopOp(const MiscInstruction& self, ExecutionContext* ctx) {
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, self.operands()[0]));
  std::string msg = "stop()";
  if (value->type() == DataType::kScalar) {
    msg = static_cast<const ScalarData*>(value.get())
              ->value()
              .ToDisplayString();
  }
  return Status::RuntimeError(msg);
}

/// list(e1, ..., en): bundles values, preserving each element's lineage so
/// later list indexing restores fine-grained lineage.
Status ListOp(const MiscInstruction& self, ExecutionContext* ctx) {
  std::vector<DataPtr> values;
  std::vector<LineageItemPtr> items;
  values.reserve(self.operands().size());
  items.reserve(self.operands().size());
  for (const Operand& op : self.operands()) {
    LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, op));
    values.push_back(std::move(value));
    items.push_back(ctx->lineage_active() ? ResolveOperandLineage(ctx, op)
                                          : nullptr);
  }
  LineageItemPtr list_item;
  if (ctx->lineage_active()) {
    std::vector<LineageItemPtr> inputs = items;
    list_item = LineageItem::Create("list", std::move(inputs));
  }
  ctx->SetVariable(
      self.outputs()[0],
      std::make_shared<const ListData>(std::move(values), std::move(items)),
      std::move(list_item));
  return Status::OK();
}

/// l[i]: extracts element i (1-based) of a list with its original lineage.
Status ListIndexOp(const MiscInstruction& self, ExecutionContext* ctx) {
  LIMA_ASSIGN_OR_RETURN(DataPtr list_data,
                        ResolveOperand(ctx, self.operands()[0]));
  LIMA_ASSIGN_OR_RETURN(auto list, AsList(list_data));
  LIMA_ASSIGN_OR_RETURN(DataPtr index_data,
                        ResolveOperand(ctx, self.operands()[1]));
  LIMA_ASSIGN_OR_RETURN(double index_value, AsNumber(index_data));
  int64_t index = static_cast<int64_t>(std::llround(index_value));
  if (index < 1 || index > list->size()) {
    return Status::OutOfRange("list index " + std::to_string(index) +
                              " out of range [1," +
                              std::to_string(list->size()) + "]");
  }
  ctx->SetVariable(self.outputs()[0], list->elements()[index - 1],
                   ctx->lineage_active()
                       ? list->element_lineage()[index - 1]
                       : nullptr);
  return Status::OK();
}

/// write(X, "path"): persists a matrix in the LIMA binary format (or CSV
/// when the path ends in .csv) and — when tracing is active — also writes
/// the lineage log to "<path>.lineage" (Sec. 3.1).
Status WriteOp(const MiscInstruction& self, ExecutionContext* ctx) {
  const Operand& input = self.operands()[0];
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, input));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr matrix, AsMatrix(value));
  LIMA_ASSIGN_OR_RETURN(std::string path,
                        StringOperand(self, ctx, 1, "write: path"));
  if (EndsWith(path, ".csv")) {
    LIMA_RETURN_NOT_OK(WriteMatrixCsv(path, *matrix));
  } else {
    LIMA_RETURN_NOT_OK(WriteMatrixFile(path, *matrix));
  }
  // Persist the lineage log alongside the data (Sec. 3.1).
  if (ctx->lineage_active() && !input.is_literal) {
    LineageItemPtr item = ctx->lineage().Get(input.name);
    if (item != nullptr) {
      std::ofstream log(path + ".lineage");
      if (!log) return Status::IoError("cannot write " + path + ".lineage");
      log << SerializeLineage(item);
    }
  }
  return Status::OK();
}

/// read("path"): loads a matrix written by write(). Files are assumed
/// immutable (Sec. 3.4), so the lineage is a "read" leaf identified by the
/// path — repeated reads of one file share lineage and reuse.
Status ReadFileOp(const MiscInstruction& self, ExecutionContext* ctx) {
  LIMA_ASSIGN_OR_RETURN(std::string path,
                        StringOperand(self, ctx, 0, "read: path"));
  Result<Matrix> matrix = EndsWith(path, ".csv") ? ReadMatrixCsv(path)
                                                 : ReadMatrixFile(path);
  LIMA_RETURN_NOT_OK(matrix.status());
  ctx->SetVariable(self.outputs()[0],
                   MakeMatrixData(std::move(matrix).ValueOrDie()),
                   ctx->lineage_active() ? LineageItem::Create("read", {}, path)
                                         : nullptr);
  return Status::OK();
}

/// lineage(X): serializes the lineage DAG of a variable into a string
/// scalar (Sec. 3.1, the user-facing lineage builtin). Fails when tracing
/// is disabled.
Status LineageOfOp(const MiscInstruction& self, ExecutionContext* ctx) {
  const Operand& input = self.operands()[0];
  if (input.is_literal) {
    ctx->SetVariable(self.outputs()[0],
                     MakeStringData(LineageItem::CreateLiteral(
                                        input.literal.EncodeLineageLiteral())
                                        ->ToString()),
                     nullptr);
    return Status::OK();
  }
  LineageItemPtr item = ctx->lineage().Get(input.name);
  if (item == nullptr) {
    return Status::RuntimeError("lineage(" + input.name +
                                "): no lineage traced (tracing disabled?)");
  }
  ctx->SetVariable(self.outputs()[0], MakeStringData(SerializeLineage(item)),
                   nullptr);
  return Status::OK();
}

/// eval(fname, list(args...)): dynamic function dispatch by name, as used by
/// the paper's generic gridSearch builtin (Example 1). Single output.
Status EvalOp(const MiscInstruction& self, ExecutionContext* ctx) {
  if (ctx->program() == nullptr) {
    return Status::RuntimeError("no program registered for eval()");
  }
  LIMA_ASSIGN_OR_RETURN(std::string name,
                        StringOperand(self, ctx, 0, "eval: function name"));
  const Function* fn = ctx->program()->GetFunction(name);
  if (fn == nullptr) {
    return Status::RuntimeError("eval: undefined function: " + name);
  }
  LIMA_ASSIGN_OR_RETURN(DataPtr args_data,
                        ResolveOperand(ctx, self.operands()[1]));
  LIMA_ASSIGN_OR_RETURN(auto args, AsList(args_data));
  return CallFunction(ctx, *fn, args->elements(), args->element_lineage(),
                      self.outputs());
}

// ---- The table --------------------------------------------------------------

struct NamedKernel {
  const char* opcode;
  KernelRow row;
};

// Every catalog compute/datagen opcode except the elementwise operators
// (rows derived from ParseBinaryOp/ParseUnaryOp), the aggregates
// (kAggregates) and "fused"; then the non-computation opcodes.
const NamedKernel kKernels[] = {
    {"ifelse", {.compute = IfElseKernel}},
    {"mm", {.compute = MatMulKernel}},
    {"tsmm", {.compute = TsmmKernel}},
    {"tmm", {.compute = TmmKernel}},
    {"solve", {.compute = SolveKernel}},
    {"cholesky", {.compute = CholeskyKernel}},
    {"eigen", {.compute = EigenKernel}},
    {"tsmm_cbind",
     {.compute = TsmmCbindKernel, .expand_lineage = TsmmCbindLineage}},
    {"t", {.compute = TransposeKernel}},
    {"rev", {.compute = RevKernel}},
    {"diag", {.compute = DiagKernel}},
    {"reshape", {.compute = ReshapeKernel}},
    {"cbind", {.compute = CBindKernel}},
    {"rbind", {.compute = RBindKernel}},
    {"rightindex", {.compute = RightIndexKernel}},
    {"leftindex", {.compute = LeftIndexKernel}},
    {"selcols", {.compute = SelColsKernel}},
    {"selrows", {.compute = SelRowsKernel}},
    {"table", {.compute = TableKernel}},
    {"order", {.compute = OrderKernel}},
    {"nrow", {.compute = NRowKernel}},
    {"ncol", {.compute = NColKernel}},
    {"length", {.compute = LengthKernel}},
    {"castdts", {.compute = CastToScalarKernel}},
    {"castsdm", {.compute = CastToMatrixKernel}},
    {"toString", {.compute = ToStringKernel}},
    {"rand", {.compute = RandKernel, .seed_operand = 6}},
    {"sample", {.compute = SampleKernel, .seed_operand = 2}},
    {"seq", {.compute = SeqKernel}},
    {"fill", {.compute = FillKernel}},
    {"list", {.misc = ListOp}},
    {"listidx", {.misc = ListIndexOp}},
    {"eval", {.misc = EvalOp}},
    {"readfile", {.misc = ReadFileOp}},
    {"write", {.misc = WriteOp}},
    {"print", {.misc = PrintOp}},
    {"stop", {.misc = StopOp}},
    {"lineageof", {.misc = LineageOfOp}},
};

class KernelTable {
 public:
  KernelTable() : rows_(NumCatalogOpcodes()) {
    const std::vector<OpcodeEffect>& effects = AllOpcodeEffects();
    for (size_t id = 0; id < rows_.size(); ++id) {
      KernelRow& row = rows_[id];
      if (ParseBinaryOp(effects[id].opcode, &row.binary)) {
        row.compute = BinaryKernel;
      } else if (ParseUnaryOp(effects[id].opcode, &row.unary)) {
        row.compute = UnaryKernel;
      }
    }
    for (const NamedAggregate& agg : kAggregates) {
      KernelRow& row = Row(agg.opcode);
      row.compute = AggregateOp;
      row.aggregate = &agg.kernel;
    }
    for (const NamedKernel& kernel : kKernels) Row(kernel.opcode) = kernel.row;
  }

  const KernelRow& Find(OpcodeId id) const {
    static const KernelRow kNoKernel;
    if (!id.valid() || id.value() >= static_cast<int32_t>(rows_.size())) {
      return kNoKernel;
    }
    return rows_[id.value()];
  }

 private:
  KernelRow& Row(const char* opcode) {
    const int32_t id = InternOpcode(opcode).value();
    LIMA_CHECK(id < static_cast<int32_t>(rows_.size()))
        << "kernel row for uncatalogued opcode " << opcode;
    return rows_[id];
  }

  std::vector<KernelRow> rows_;
};

}  // namespace

const KernelRow& KernelRowOf(OpcodeId opcode) {
  static const auto* table = new KernelTable();
  return table->Find(opcode);
}

Result<ScalarValue> ScalarBinary(BinaryOp op, const ScalarValue& a,
                                 const ScalarValue& b) {
  if (a.is_string() || b.is_string()) {
    if (op == BinaryOp::kAdd) {
      return ScalarValue::String(a.ToDisplayString() + b.ToDisplayString());
    }
    if (a.is_string() && b.is_string()) {
      switch (op) {
        case BinaryOp::kEq:
          return ScalarValue::Bool(a.AsString() == b.AsString());
        case BinaryOp::kNeq:
          return ScalarValue::Bool(a.AsString() != b.AsString());
        case BinaryOp::kLt:
          return ScalarValue::Bool(a.AsString() < b.AsString());
        case BinaryOp::kGt:
          return ScalarValue::Bool(a.AsString() > b.AsString());
        default:
          break;
      }
    }
    return Status::TypeError(std::string("operator ") + BinaryOpName(op) +
                             " not defined on strings");
  }
  double r = ApplyBinary(op, a.AsDouble(), b.AsDouble());
  if (IsComparison(op)) return ScalarValue::Bool(r != 0.0);
  bool both_int = a.kind() == ScalarKind::kInt && b.kind() == ScalarKind::kInt;
  if (both_int && IsIntPreserving(op) && FitsInt64(r)) {
    return ScalarValue::Int(static_cast<int64_t>(r));
  }
  return ScalarValue::Double(r);
}

Result<ScalarValue> ScalarUnary(UnaryOp op, const ScalarValue& v) {
  if (v.is_string()) {
    return Status::TypeError(std::string("operator ") + UnaryOpName(op) +
                             " not defined on strings");
  }
  double r = ApplyUnary(op, v.AsDouble());
  if (op == UnaryOp::kNot) return ScalarValue::Bool(r != 0.0);
  if (v.kind() == ScalarKind::kInt &&
      (op == UnaryOp::kNeg || op == UnaryOp::kAbs) && FitsInt64(r)) {
    return ScalarValue::Int(static_cast<int64_t>(r));
  }
  return ScalarValue::Double(r);
}

}  // namespace lima
