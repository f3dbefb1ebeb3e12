#ifndef LIMA_MATRIX_ELEMENTWISE_H_
#define LIMA_MATRIX_ELEMENTWISE_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/parallel.h"
#include "common/result.h"
#include "matrix/matrix.h"

namespace lima {

/// Cell-wise binary operators. Comparison/logical operators produce 0/1
/// matrices; logical operators treat any non-zero as true.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kPow,
  kMin,
  kMax,
  kEq,
  kNeq,
  kLt,
  kGt,
  kLe,
  kGe,
  kAnd,
  kOr,
  kMod,     ///< R semantics: x - floor(x/y)*y (sign of the divisor)
  kIntDiv,  ///< R semantics: floor(x/y)
};

/// Cell-wise unary operators.
enum class UnaryOp {
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kRound,
  kFloor,
  kCeil,
  kSign,
  kNeg,
  kNot,
  kSigmoid,
};

/// Opcode names as used in runtime instructions and lineage logs
/// (e.g. "+", "*", "min", "exp").
const char* BinaryOpName(BinaryOp op);
const char* UnaryOpName(UnaryOp op);

/// The inverses of BinaryOpName/UnaryOpName: the one opcode -> operator
/// mapping. Return false when `name` names no such operator.
bool ParseBinaryOp(std::string_view name, BinaryOp* op);
bool ParseUnaryOp(std::string_view name, UnaryOp* op);

/// Applies `op` to a scalar pair.
double ApplyBinary(BinaryOp op, double a, double b);

/// Applies `op` to a scalar.
double ApplyUnary(UnaryOp op, double v);

/// Shape of cell-wise A op B under R-style broadcasting: each dimension of
/// A and B must match or be 1 (row/column vectors broadcast). Returns
/// InvalidArgument on incompatible shapes.
Result<std::pair<int64_t, int64_t>> EwiseBinaryShape(BinaryOp op,
                                                     const Matrix& a,
                                                     const Matrix& b);

/// Cell-wise A op B with R-style broadcasting into a fresh matrix (see
/// EwiseBinaryShape). Large outputs run as cost-model-sized cell chunks
/// under `par`'s budget lease; every cell is computed independently, so
/// results are byte-identical at any budget.
Result<Matrix> EwiseBinary(BinaryOp op, const Matrix& a, const Matrix& b,
                           const ParallelContext* par = nullptr);

/// Cell-wise matrix-scalar operation. If `scalar_is_left`, computes
/// s op M[i,j]; otherwise M[i,j] op s.
Matrix EwiseBinaryScalar(BinaryOp op, const Matrix& m, double scalar,
                         bool scalar_is_left,
                         const ParallelContext* par = nullptr);

/// Cell-wise unary operation.
Matrix EwiseUnary(UnaryOp op, const Matrix& m,
                  const ParallelContext* par = nullptr);

/// The same kernels writing into `*out`, which must already have the
/// result's shape. `out` may be an operand itself, or both (X + X): each
/// cell's operands are read before its slot is written. The runtime passes
/// an operand's buffer here when liveness and the refcount prove it dead
/// and unaliased.
void EwiseBinaryInto(BinaryOp op, const Matrix& a, const Matrix& b,
                     Matrix* out, const ParallelContext* par = nullptr);
void EwiseBinaryScalarInto(BinaryOp op, const Matrix& m, double scalar,
                           bool scalar_is_left, Matrix* out,
                           const ParallelContext* par = nullptr);
void EwiseUnaryInto(UnaryOp op, const Matrix& m, Matrix* out,
                    const ParallelContext* par = nullptr);

}  // namespace lima

#endif  // LIMA_MATRIX_ELEMENTWISE_H_
