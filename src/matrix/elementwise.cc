#include "matrix/elementwise.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/cost_model.h"
#include "common/check.h"

namespace lima {

namespace {

/// Runs range_fn(begin, end) over [0, n) in cost-model-sized chunks under
/// `par` (inline when par is null — same chunks, same bytes). Every cell-
/// wise kernel in this file writes each output cell independently, so any
/// chunking is byte-identical; the chunk count is still a pure function of
/// the problem size, for uniformity with the reduction kernels.
void ForCellChunks(const ParallelContext* par, int64_t n,
                   double bytes_per_cell,
                   const std::function<void(int64_t, int64_t)>& range_fn) {
  int chunks = PlanParallelChunks(static_cast<double>(n),
                                  bytes_per_cell * static_cast<double>(n));
  RunChunkRanges(par, n, std::min<int64_t>(chunks, n),
                 [&](int64_t, int64_t b, int64_t e) { range_fn(b, e); });
}

/// Calls `loop(f)` with `op` as a functor f(x, y): the four arithmetic
/// operators as plain expressions, so their cell loops vectorize; the rest
/// through ApplyBinary's per-cell switch.
template <typename Loop>
void WithBinaryOp(BinaryOp op, const Loop& loop) {
  switch (op) {
    case BinaryOp::kAdd:
      return loop([](double x, double y) { return x + y; });
    case BinaryOp::kSub:
      return loop([](double x, double y) { return x - y; });
    case BinaryOp::kMul:
      return loop([](double x, double y) { return x * y; });
    case BinaryOp::kDiv:
      return loop([](double x, double y) { return x / y; });
    default:
      return loop([op](double x, double y) { return ApplyBinary(op, x, y); });
  }
}

}  // namespace

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kPow:
      return "^";
    case BinaryOp::kMin:
      return "min";
    case BinaryOp::kMax:
      return "max";
    case BinaryOp::kEq:
      return "==";
    case BinaryOp::kNeq:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "&";
    case BinaryOp::kOr:
      return "|";
    case BinaryOp::kMod:
      return "%%";
    case BinaryOp::kIntDiv:
      return "%/%";
  }
  return "?";
}

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kExp:
      return "exp";
    case UnaryOp::kLog:
      return "log";
    case UnaryOp::kSqrt:
      return "sqrt";
    case UnaryOp::kAbs:
      return "abs";
    case UnaryOp::kRound:
      return "round";
    case UnaryOp::kFloor:
      return "floor";
    case UnaryOp::kCeil:
      return "ceil";
    case UnaryOp::kSign:
      return "sign";
    case UnaryOp::kNeg:
      return "uminus";
    case UnaryOp::kNot:
      return "!";
    case UnaryOp::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

bool ParseBinaryOp(std::string_view name, BinaryOp* op) {
  for (int i = 0; i <= static_cast<int>(BinaryOp::kIntDiv); ++i) {
    if (name == BinaryOpName(static_cast<BinaryOp>(i))) {
      *op = static_cast<BinaryOp>(i);
      return true;
    }
  }
  return false;
}

bool ParseUnaryOp(std::string_view name, UnaryOp* op) {
  for (int i = 0; i <= static_cast<int>(UnaryOp::kSigmoid); ++i) {
    if (name == UnaryOpName(static_cast<UnaryOp>(i))) {
      *op = static_cast<UnaryOp>(i);
      return true;
    }
  }
  return false;
}

double ApplyBinary(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      return a / b;
    case BinaryOp::kPow:
      return std::pow(a, b);
    case BinaryOp::kMin:
      return std::min(a, b);
    case BinaryOp::kMax:
      return std::max(a, b);
    case BinaryOp::kEq:
      return a == b ? 1.0 : 0.0;
    case BinaryOp::kNeq:
      return a != b ? 1.0 : 0.0;
    case BinaryOp::kLt:
      return a < b ? 1.0 : 0.0;
    case BinaryOp::kGt:
      return a > b ? 1.0 : 0.0;
    case BinaryOp::kLe:
      return a <= b ? 1.0 : 0.0;
    case BinaryOp::kGe:
      return a >= b ? 1.0 : 0.0;
    case BinaryOp::kAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case BinaryOp::kOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    case BinaryOp::kMod:
      return a - std::floor(a / b) * b;
    case BinaryOp::kIntDiv:
      return std::floor(a / b);
  }
  return 0.0;
}

double ApplyUnary(UnaryOp op, double v) {
  switch (op) {
    case UnaryOp::kExp:
      return std::exp(v);
    case UnaryOp::kLog:
      return std::log(v);
    case UnaryOp::kSqrt:
      return std::sqrt(v);
    case UnaryOp::kAbs:
      return std::fabs(v);
    case UnaryOp::kRound:
      return std::round(v);
    case UnaryOp::kFloor:
      return std::floor(v);
    case UnaryOp::kCeil:
      return std::ceil(v);
    case UnaryOp::kSign:
      return v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : 0.0);
    case UnaryOp::kNeg:
      return -v;
    case UnaryOp::kNot:
      return v == 0.0 ? 1.0 : 0.0;
    case UnaryOp::kSigmoid:
      return 1.0 / (1.0 + std::exp(-v));
  }
  return 0.0;
}

Result<std::pair<int64_t, int64_t>> EwiseBinaryShape(BinaryOp op,
                                                     const Matrix& a,
                                                     const Matrix& b) {
  bool rows_ok = a.rows() == b.rows() || a.rows() == 1 || b.rows() == 1;
  bool cols_ok = a.cols() == b.cols() || a.cols() == 1 || b.cols() == 1;
  if (!rows_ok || !cols_ok) {
    std::ostringstream msg;
    msg << "incompatible shapes for elementwise " << BinaryOpName(op) << ": "
        << a.rows() << "x" << a.cols() << " vs " << b.rows() << "x" << b.cols();
    return Status::Invalid(msg.str());
  }
  return std::make_pair(std::max(a.rows(), b.rows()),
                        std::max(a.cols(), b.cols()));
}

Result<Matrix> EwiseBinary(BinaryOp op, const Matrix& a, const Matrix& b,
                           const ParallelContext* par) {
  LIMA_ASSIGN_OR_RETURN(auto shape, EwiseBinaryShape(op, a, b));
  Matrix out(shape.first, shape.second);
  EwiseBinaryInto(op, a, b, &out, par);
  return out;
}

Matrix EwiseBinaryScalar(BinaryOp op, const Matrix& m, double scalar,
                         bool scalar_is_left, const ParallelContext* par) {
  Matrix out(m.rows(), m.cols());
  EwiseBinaryScalarInto(op, m, scalar, scalar_is_left, &out, par);
  return out;
}

Matrix EwiseUnary(UnaryOp op, const Matrix& m, const ParallelContext* par) {
  Matrix out(m.rows(), m.cols());
  EwiseUnaryInto(op, m, &out, par);
  return out;
}

// `out` may alias an operand under any chunking: cell i reads only the
// operands' cell i (or a broadcast cell of a smaller operand, which `out`
// cannot alias) before writing out[i], and chunks never share a cell.
void EwiseBinaryInto(BinaryOp op, const Matrix& a, const Matrix& b,
                     Matrix* out, const ParallelContext* par) {
  const int64_t rows = out->rows();
  const int64_t cols = out->cols();
  LIMA_CHECK(rows == std::max(a.rows(), b.rows()) &&
             cols == std::max(a.cols(), b.cols()));
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out->mutable_data();
  if (a.rows() == b.rows() && a.cols() == b.cols()) {
    ForCellChunks(par, out->size(), 24.0, [&](int64_t cb, int64_t ce) {
      WithBinaryOp(op, [&](auto f) {
        // The left cell is loaded first: GCC may commute + and *, and the
        // load order decides which of two NaN cells the result carries.
        for (int64_t i = cb; i < ce; ++i) {
          const double x = pa[i];
          po[i] = f(x, pb[i]);
        }
      });
    });
    return;
  }
  // Broadcasting: chunked over output rows.
  ForCellChunks(par, rows, 24.0 * static_cast<double>(cols),
                [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      int64_t ia = a.rows() == 1 ? 0 : i;
      int64_t ib = b.rows() == 1 ? 0 : i;
      for (int64_t j = 0; j < cols; ++j) {
        int64_t ja = a.cols() == 1 ? 0 : j;
        int64_t jb = b.cols() == 1 ? 0 : j;
        po[i * cols + j] = ApplyBinary(op, a.At(ia, ja), b.At(ib, jb));
      }
    }
  });
}

void EwiseBinaryScalarInto(BinaryOp op, const Matrix& m, double scalar,
                           bool scalar_is_left, Matrix* out,
                           const ParallelContext* par) {
  LIMA_CHECK(out->rows() == m.rows() && out->cols() == m.cols());
  const double* pm = m.data();
  double* po = out->mutable_data();
  ForCellChunks(par, m.size(), 16.0, [&](int64_t cb, int64_t ce) {
    // s op x has no fast path: a vectorized s + x or s * x may keep x's NaN
    // where ApplyBinary keeps the scalar's.
    if (scalar_is_left) {
      for (int64_t i = cb; i < ce; ++i) po[i] = ApplyBinary(op, scalar, pm[i]);
      return;
    }
    WithBinaryOp(op, [&](auto f) {
      for (int64_t i = cb; i < ce; ++i) po[i] = f(pm[i], scalar);
    });
  });
}

void EwiseUnaryInto(UnaryOp op, const Matrix& m, Matrix* out,
                    const ParallelContext* par) {
  LIMA_CHECK(out->rows() == m.rows() && out->cols() == m.cols());
  const double* pm = m.data();
  double* po = out->mutable_data();
  ForCellChunks(par, m.size(), 16.0, [&](int64_t cb, int64_t ce) {
    for (int64_t i = cb; i < ce; ++i) po[i] = ApplyUnary(op, pm[i]);
  });
}

}  // namespace lima
