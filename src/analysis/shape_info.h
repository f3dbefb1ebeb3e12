#ifndef LIMA_ANALYSIS_SHAPE_INFO_H_
#define LIMA_ANALYSIS_SHAPE_INFO_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "matrix/matrix.h"

namespace lima {

/// Abstract dimension value of the shape lattice used by interprocedural
/// shape inference (analysis/shape_inference.h):
///
///   kConst    — the dimension is a known compile-time constant,
///   kSym      — the dimension equals an (unknown) symbolic quantity plus a
///               constant offset: `s<id> + value`. Two kSym dims with the
///               same id provably agree up to their offsets, which is enough
///               to prove `t(X) %*% X` conformable without knowing nrow(X),
///   kUnknown  — top: nothing is known.
///
/// The lattice order is kConst/kSym below kUnknown; `JoinDim` is the least
/// upper bound (identical values survive, everything else widens to
/// kUnknown), which makes loop-head widening terminate in one extra pass
/// per loop nest level.
struct Dim {
  enum class Kind : uint8_t { kUnknown, kConst, kSym };

  Kind kind = Kind::kUnknown;
  int64_t value = 0;  ///< kConst: the dimension; kSym: the affine offset
  int32_t sym = -1;   ///< kSym: symbol id (minted by the inference engine)

  static Dim Unknown() { return Dim(); }
  static Dim Const(int64_t v) {
    Dim d;
    d.kind = Kind::kConst;
    d.value = v;
    return d;
  }
  static Dim Sym(int32_t id, int64_t offset = 0) {
    Dim d;
    d.kind = Kind::kSym;
    d.sym = id;
    d.value = offset;
    return d;
  }

  bool is_const() const { return kind == Kind::kConst; }
  bool is_sym() const { return kind == Kind::kSym; }
  bool known() const { return kind != Kind::kUnknown; }

  bool operator==(const Dim& other) const {
    if (kind != other.kind) return false;
    if (kind == Kind::kUnknown) return true;
    if (kind == Kind::kConst) return value == other.value;
    return sym == other.sym && value == other.value;
  }
  bool operator!=(const Dim& other) const { return !(*this == other); }

  std::string ToString() const {
    switch (kind) {
      case Kind::kUnknown:
        return "?";
      case Kind::kConst:
        return std::to_string(value);
      case Kind::kSym: {
        std::string s = "s" + std::to_string(sym);
        if (value > 0) s += "+" + std::to_string(value);
        if (value < 0) s += std::to_string(value);
        return s;
      }
    }
    return "?";
  }
};

/// Largest integer magnitude that a double, the run-time form of every
/// scalar, holds exactly together with all smaller integers. Past it the run
/// rounds integer arithmetic, so no scalar constant exceeds it.
inline constexpr int64_t kMaxExactInt = int64_t{1} << 53;

/// Least upper bound: equal dims survive, anything else widens to unknown.
inline Dim JoinDim(const Dim& a, const Dim& b) {
  return a == b ? a : Dim::Unknown();
}

/// `a + b` where both are interpreted as integer quantities. Defined when at
/// most one side is symbolic (sym + sym has no affine representation here)
/// and the sum fits in int64 (an overflowing sum is unknown, never wrapped).
inline Dim AddDims(const Dim& a, const Dim& b) {
  int64_t sum = 0;
  if (!a.known() || !b.known() ||
      __builtin_add_overflow(a.value, b.value, &sum)) {
    return Dim::Unknown();
  }
  if (a.is_const() && b.is_const()) return Dim::Const(sum);
  if (a.is_sym() && b.is_const()) return Dim::Sym(a.sym, sum);
  if (a.is_const() && b.is_sym()) return Dim::Sym(b.sym, sum);
  return Dim::Unknown();
}

/// `a - b`. Two dims over the *same* symbol collapse to a constant — this is
/// what proves `X[2:nrow(X), ]` has `nrow(X) - 1` rows symbolically.
inline Dim SubDims(const Dim& a, const Dim& b) {
  int64_t diff = 0;
  if (!a.known() || !b.known() ||
      __builtin_sub_overflow(a.value, b.value, &diff)) {
    return Dim::Unknown();
  }
  if (a.is_const() && b.is_const()) return Dim::Const(diff);
  if (a.is_sym() && b.is_const()) return Dim::Sym(a.sym, diff);
  if (a.is_sym() && b.is_sym() && a.sym == b.sym) return Dim::Const(diff);
  return Dim::Unknown();
}

/// Per-variable abstract shape: scalar / matrix / list kind, matrix
/// dimensions as `Dim`s, an optional integer value for scalars (constant
/// propagation feeds `n = nrow(X)` into `rand(rows=n, ...)`), and a dense
/// sparsity estimate for matrices.
struct ShapeInfo {
  enum class Kind : uint8_t { kUnknown, kScalar, kMatrix, kList };

  Kind kind = Kind::kUnknown;
  Dim rows;            ///< kMatrix only
  Dim cols;            ///< kMatrix only
  Dim value;           ///< kScalar only: integer value when derivable
  double sparsity = 1.0;  ///< kMatrix: nnz / (rows*cols) estimate, 1 = dense

  static ShapeInfo Unknown() { return ShapeInfo(); }
  static ShapeInfo Scalar() {
    ShapeInfo s;
    s.kind = Kind::kScalar;
    return s;
  }
  /// A literal or folded integer constant beyond ±kMaxExactInt is recorded
  /// as unknown: the run computes it in doubles and may not reach it.
  static ShapeInfo ScalarValue(Dim v) {
    ShapeInfo s;
    s.kind = Kind::kScalar;
    const bool exact = v.value >= -kMaxExactInt && v.value <= kMaxExactInt;
    if (!v.is_const() || exact) s.value = v;
    return s;
  }
  static ShapeInfo ScalarConst(int64_t v) { return ScalarValue(Dim::Const(v)); }
  static ShapeInfo Matrix(Dim r, Dim c, double sp = 1.0) {
    ShapeInfo s;
    s.kind = Kind::kMatrix;
    s.rows = r;
    s.cols = c;
    s.sparsity = sp;
    return s;
  }
  static ShapeInfo List() {
    ShapeInfo s;
    s.kind = Kind::kList;
    return s;
  }

  bool is_unknown() const { return kind == Kind::kUnknown; }
  bool is_scalar() const { return kind == Kind::kScalar; }
  bool is_matrix() const { return kind == Kind::kMatrix; }
  bool is_list() const { return kind == Kind::kList; }

  /// Cells of a matrix with constant dimensions; -1 when a dimension is not
  /// constant or no matrix could hold the shape (CellCount), which the
  /// runtime rejects, so it counts as unknown size.
  int64_t ConstCells() const {
    if (kind != Kind::kMatrix || !rows.is_const() || !cols.is_const()) {
      return -1;
    }
    return CellCount(rows.value, cols.value);
  }

  /// Fully known = the static memory planner can size it exactly: scalars
  /// and lists always, matrices only with a constant, allocatable shape.
  bool fully_known() const {
    if (kind == Kind::kUnknown) return false;
    if (kind != Kind::kMatrix) return true;
    return ConstCells() >= 0;
  }

  /// Dense payload bytes for the memory estimator; 0 when not fully known.
  /// Never overflows: ConstCells is at most kMaxMatrixCells.
  int64_t MatrixBytes() const {
    const int64_t cells = ConstCells();
    return cells < 0 ? 0 : cells * static_cast<int64_t>(sizeof(double));
  }

  bool operator==(const ShapeInfo& other) const {
    if (kind != other.kind) return false;
    switch (kind) {
      case Kind::kUnknown:
      case Kind::kList:
        return true;
      case Kind::kScalar:
        return value == other.value;
      case Kind::kMatrix:
        return rows == other.rows && cols == other.cols &&
               sparsity == other.sparsity;
    }
    return false;
  }
  bool operator!=(const ShapeInfo& other) const { return !(*this == other); }

  std::string ToString() const {
    switch (kind) {
      case Kind::kUnknown:
        return "unknown";
      case Kind::kScalar:
        return value.known() ? "scalar(" + value.ToString() + ")" : "scalar";
      case Kind::kMatrix:
        return "matrix[" + rows.ToString() + " x " + cols.ToString() + "]";
      case Kind::kList:
        return "list";
    }
    return "unknown";
  }
};

/// a + b for the static size estimates, saturating at the int64 maximum
/// instead of overflowing.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum;
  return __builtin_add_overflow(a, b, &sum)
             ? std::numeric_limits<int64_t>::max()
             : sum;
}

/// Least upper bound over shapes (used at if-joins and loop heads).
inline ShapeInfo JoinShape(const ShapeInfo& a, const ShapeInfo& b) {
  if (a.kind != b.kind) return ShapeInfo::Unknown();
  switch (a.kind) {
    case ShapeInfo::Kind::kUnknown:
    case ShapeInfo::Kind::kList:
      return a;
    case ShapeInfo::Kind::kScalar:
      return ShapeInfo::ScalarValue(JoinDim(a.value, b.value));
    case ShapeInfo::Kind::kMatrix:
      return ShapeInfo::Matrix(JoinDim(a.rows, b.rows),
                               JoinDim(a.cols, b.cols),
                               a.sparsity > b.sparsity ? a.sparsity
                                                       : b.sparsity);
  }
  return ShapeInfo::Unknown();
}

/// A variable whose shape is known before the program runs (session
/// bindings: BindMatrix/BindScalar provide exact dimensions).
struct ShapeAssumption {
  std::string name;
  ShapeInfo shape;
};

/// One operand of a shape-transfer rule: the abstract shape of the operand
/// plus — for literal operands and const-propagated scalars — its concrete
/// value, so rules like `rand(rows=, cols=)` can produce constant dims.
struct ShapeArg {
  ShapeInfo shape;
  bool is_literal = false;
  bool has_number = false;  ///< integral numeric value known statically
  int64_t number = 0;
  bool has_text = false;  ///< string literal value ("uniform", ...)
  std::string text;

  /// The operand as an abstract integer quantity: a concrete number when
  /// statically known, else the scalar's symbolic value dim.
  Dim AsDim() const {
    if (has_number) return Dim::Const(number);
    if (shape.is_scalar()) return shape.value;
    return Dim::Unknown();
  }
};

/// Result of one shape-transfer rule application: the output shapes, plus a
/// non-empty `error` when the input shapes are *provably* violated (both
/// sides constant and incompatible) — surfaced as a `shape-mismatch`
/// verifier error with instruction provenance.
struct ShapeRuleResult {
  std::vector<ShapeInfo> outputs;
  std::string error;
};

}  // namespace lima

#endif  // LIMA_ANALYSIS_SHAPE_INFO_H_
