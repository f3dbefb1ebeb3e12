#include "analysis/opcode_registry.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/check.h"

namespace lima {

namespace {

using Cat = OpcodeCategory;

// ---------------------------------------------------------------------------
// Shape-transfer rules (one per value-producing opcode; families share a
// function and branch on effect.opcode). Rules mirror the runtime's own
// validity checks exactly: an error is returned only when comparable (const
// or same-symbol) dimensions prove the runtime would reject the operands.
// ---------------------------------------------------------------------------

const ShapeInfo& ArgShape(const std::vector<ShapeArg>& args, size_t i) {
  static const ShapeInfo kUnknown;
  return i < args.size() ? args[i].shape : kUnknown;
}

ShapeRuleResult Out(ShapeInfo s) {
  ShapeRuleResult r;
  r.outputs.push_back(std::move(s));
  return r;
}

ShapeRuleResult ShapeError(std::string message) {
  ShapeRuleResult r;
  r.error = std::move(message);
  return r;
}

std::string DimPair(const Dim& a, const Dim& b) {
  return a.ToString() + " vs " + b.ToString();
}

// Two dimensions the runtime requires to be equal (cbind rows, mm inner
// dims, ...): a provable mismatch sets *error; otherwise the merged dim
// keeps whichever side is known.
Dim MergeEqualDims(const Dim& a, const Dim& b, const char* what,
                   std::string* error) {
  if (a.known() && b.known() && a != b) {
    // Distinct symbols may still be equal at runtime — only flag pairs the
    // runtime would provably reject: const-const, or same-symbol different
    // offsets (s+0 vs s+1 can never agree).
    if ((a.is_const() && b.is_const()) ||
        (a.is_sym() && b.is_sym() && a.sym == b.sym)) {
      *error = std::string(what) + " mismatch (" + DimPair(a, b) + ")";
      return Dim::Unknown();
    }
    return Dim::Unknown();
  }
  return a.known() ? a : b;
}

// Elementwise broadcast of one dimension pair: valid iff equal or either
// side is 1; the result is the max. With one side a known constant c != 1,
// every valid execution has result c (the other side is 1 or equals c).
Dim BroadcastDim(const Dim& a, const Dim& b, const char* what,
                 std::string* error) {
  if (a == b) return a;
  if (a.is_const() && a.value == 1) return b;
  if (b.is_const() && b.value == 1) return a;
  if (a.is_const() && b.is_const()) {
    *error = std::string(what) + " not broadcastable (" + DimPair(a, b) + ")";
    return Dim::Unknown();
  }
  if (a.is_sym() && b.is_sym() && a.sym == b.sym) {
    // Same symbol, different offsets: only valid if one side is 1, which a
    // symbolic value cannot be proven to be — stay unknown, no error.
    return Dim::Unknown();
  }
  if (a.is_const()) return a;
  if (b.is_const()) return b;
  return Dim::Unknown();
}

// Broadcast join of two operand shapes under elementwise semantics.
ShapeInfo BroadcastShapes(const ShapeInfo& a, const ShapeInfo& b,
                          std::string* error) {
  if (a.is_list() || b.is_list()) return ShapeInfo::Unknown();
  if (a.is_scalar() && b.is_scalar()) return ShapeInfo::Scalar();
  if (a.is_scalar()) return b.is_matrix() ? b : ShapeInfo::Unknown();
  if (b.is_scalar()) return a.is_matrix() ? a : ShapeInfo::Unknown();
  if (a.is_matrix() && b.is_matrix()) {
    Dim rows = BroadcastDim(a.rows, b.rows, "rows", error);
    if (!error->empty()) return ShapeInfo::Unknown();
    Dim cols = BroadcastDim(a.cols, b.cols, "cols", error);
    if (!error->empty()) return ShapeInfo::Unknown();
    return ShapeInfo::Matrix(rows, cols,
                             a.sparsity > b.sparsity ? a.sparsity
                                                     : b.sparsity);
  }
  // At least one side fully unknown: the result kind is unknowable (scalar
  // op scalar stays scalar, matrix op scalar is a matrix, ...).
  return ShapeInfo::Unknown();
}

ShapeRuleResult EwiseBinaryRule(const OpcodeEffect& effect,
                                const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  const ShapeInfo& b = ArgShape(args, 1);
  // Scalar constant folding feeds inferred loop bounds and datagen sizes:
  // +/- run full affine Dim arithmetic (nrow(X) - 1 stays symbolic).
  if (a.is_scalar() && b.is_scalar()) {
    std::string_view op = effect.opcode;
    const Dim va = args.size() > 0 ? args[0].AsDim() : Dim::Unknown();
    const Dim vb = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
    if (op == "+") return Out(ShapeInfo::ScalarValue(AddDims(va, vb)));
    if (op == "-") return Out(ShapeInfo::ScalarValue(SubDims(va, vb)));
    if (va.is_const() && vb.is_const()) {
      // An overflowing product or quotient is an unknown value, never a
      // wrapped constant.
      int64_t product = 0;
      if (op == "*" &&
          !__builtin_mul_overflow(va.value, vb.value, &product)) {
        return Out(ShapeInfo::ScalarConst(product));
      }
      const bool divisible =
          vb.value != 0 &&
          !(vb.value == -1 && va.value == std::numeric_limits<int64_t>::min());
      if ((op == "%/%" || op == "%%") && divisible) {
        // Floored, as ApplyBinary computes them at run time (R semantics):
        // -7 %/% 2 = -4 and -7 %% 2 = 1, where C++ truncates to -3 and -1.
        int64_t quotient = va.value / vb.value;
        int64_t remainder = va.value % vb.value;
        if (remainder != 0 && (remainder < 0) != (vb.value < 0)) {
          --quotient;
          remainder += vb.value;
        }
        return Out(ShapeInfo::ScalarConst(op == "%/%" ? quotient : remainder));
      }
      if (op == "min") {
        return Out(ShapeInfo::ScalarConst(std::min(va.value, vb.value)));
      }
      if (op == "max") {
        return Out(ShapeInfo::ScalarConst(std::max(va.value, vb.value)));
      }
    }
    return Out(ShapeInfo::Scalar());
  }
  std::string error;
  ShapeInfo out = BroadcastShapes(a, b, &error);
  if (!error.empty()) {
    return ShapeError(std::string(effect.opcode) + ": " + error);
  }
  return Out(out);
}

// Cellwise ternary / fused cellwise chain: output is the broadcast of all
// matrix/scalar operands.
ShapeRuleResult CellwiseFoldRule(const OpcodeEffect& effect,
                                 const std::vector<ShapeArg>& args) {
  ShapeInfo out = ShapeInfo::Scalar();
  for (const ShapeArg& arg : args) {
    std::string error;
    out = BroadcastShapes(out, arg.shape, &error);
    if (!error.empty()) {
      return ShapeError(std::string(effect.opcode) + ": " + error);
    }
  }
  return Out(out);
}

ShapeRuleResult EwiseUnaryRule(const OpcodeEffect& effect,
                               const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  if (a.is_scalar()) {
    std::string_view op = effect.opcode;
    Dim v = args.empty() ? Dim::Unknown() : args[0].AsDim();
    if (op == "uminus") return Out(ShapeInfo::ScalarValue(SubDims(Dim::Const(0), v)));
    if ((op == "round" || op == "floor" || op == "ceil" || op == "abs") &&
        v.known()) {
      // Integral quantities are fixed by round/floor/ceil; abs only when
      // provably nonnegative.
      if (op != "abs" || (v.is_const() && v.value >= 0)) {
        return Out(ShapeInfo::ScalarValue(v));
      }
    }
    return Out(ShapeInfo::Scalar());
  }
  if (a.is_matrix()) {
    double sp = effect.opcode[0] == 'e' || effect.opcode[0] == 's'
                    ? 1.0  // exp/sigmoid/sqrt densify zero cells (exp(0)=1)
                    : a.sparsity;
    return Out(ShapeInfo::Matrix(a.rows, a.cols, sp));
  }
  return Out(ShapeInfo::Unknown());
}

ShapeRuleResult AggregateRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  std::string_view op = effect.opcode;
  bool col_agg = op.rfind("col", 0) == 0;   // (1, cols)
  bool row_agg = op.rfind("row", 0) == 0;   // (rows, 1)
  if (!col_agg && !row_agg) {
    return Out(ShapeInfo::Scalar());  // full aggregate
  }
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  if (col_agg) return Out(ShapeInfo::Matrix(Dim::Const(1), a.cols));
  return Out(ShapeInfo::Matrix(a.rows, Dim::Const(1)));
}

ShapeRuleResult MatMulRule(const OpcodeEffect& effect,
                           const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  const ShapeInfo& b = ArgShape(args, 1);
  (void)effect;
  if (!a.is_matrix() || !b.is_matrix()) {
    if (a.is_scalar() || b.is_scalar()) {
      return ShapeError("mm: operands must be matrices");
    }
    return Out(ShapeInfo::Unknown());
  }
  std::string error;
  MergeEqualDims(a.cols, b.rows, "mm: inner dimensions", &error);
  if (!error.empty()) return ShapeError(error);
  return Out(ShapeInfo::Matrix(a.rows, b.cols));
}

ShapeRuleResult TsmmRule(const OpcodeEffect& effect,
                         const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  return Out(ShapeInfo::Matrix(a.cols, a.cols));  // t(X) %*% X
}

ShapeRuleResult TmmRule(const OpcodeEffect& effect,
                        const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  return Out(ShapeInfo::Matrix(a.rows, a.rows));  // X %*% t(X)
}

ShapeRuleResult SolveRule(const OpcodeEffect& effect,
                          const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  const ShapeInfo& b = ArgShape(args, 1);
  (void)effect;
  if (!a.is_matrix() || !b.is_matrix()) return Out(ShapeInfo::Unknown());
  std::string error;
  MergeEqualDims(a.rows, a.cols, "solve: coefficient matrix not square",
                 &error);
  if (error.empty()) {
    MergeEqualDims(a.rows, b.rows, "solve: rhs rows", &error);
  }
  if (!error.empty()) return ShapeError(error);
  return Out(ShapeInfo::Matrix(a.cols, b.cols));
}

ShapeRuleResult CholeskyRule(const OpcodeEffect& effect,
                             const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  std::string error;
  Dim n = MergeEqualDims(a.rows, a.cols, "cholesky: matrix not square",
                         &error);
  if (!error.empty()) return ShapeError(error);
  return Out(ShapeInfo::Matrix(n, n));
}

ShapeRuleResult EigenRule(const OpcodeEffect& effect,
                          const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  ShapeRuleResult r;
  if (!a.is_matrix()) {
    r.outputs = {ShapeInfo::Unknown(), ShapeInfo::Unknown()};
    return r;
  }
  std::string error;
  Dim n = MergeEqualDims(a.rows, a.cols, "eigen: matrix not square", &error);
  if (!error.empty()) return ShapeError(error);
  r.outputs = {ShapeInfo::Matrix(n, Dim::Const(1)),   // eigenvalues
               ShapeInfo::Matrix(n, n)};              // eigenvectors
  return r;
}

ShapeRuleResult TsmmCbindRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  const ShapeInfo& b = ArgShape(args, 1);
  (void)effect;
  if (!a.is_matrix() || !b.is_matrix()) return Out(ShapeInfo::Unknown());
  std::string error;
  MergeEqualDims(a.rows, b.rows, "tsmm_cbind: rows", &error);
  if (!error.empty()) return ShapeError(error);
  Dim k = AddDims(a.cols, b.cols);
  return Out(ShapeInfo::Matrix(k, k));
}

ShapeRuleResult TransposeRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  if (a.is_scalar()) return Out(ShapeInfo::Scalar());
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  return Out(ShapeInfo::Matrix(a.cols, a.rows, a.sparsity));
}

ShapeRuleResult SameShapeRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  (void)effect;
  return Out(ArgShape(args, 0));
}

ShapeRuleResult DiagRule(const OpcodeEffect& effect,
                         const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  (void)effect;
  if (!a.is_matrix()) return Out(ShapeInfo::Unknown());
  // Column vector -> diagonal matrix; square matrix -> diagonal column.
  if (a.cols.is_const() && a.cols.value == 1) {
    double sp = a.rows.is_const() && a.rows.value > 0
                    ? 1.0 / static_cast<double>(a.rows.value)
                    : 1.0;
    return Out(ShapeInfo::Matrix(a.rows, a.rows, sp));
  }
  std::string error;
  Dim n = MergeEqualDims(a.rows, a.cols, "diag: matrix not square", &error);
  if (!error.empty()) return ShapeError(error);
  if (n.known() && a.cols == a.rows) {
    return Out(ShapeInfo::Matrix(n, Dim::Const(1)));
  }
  // Could be either form (unknown cols may be 1) — only the kind is known.
  return Out(ShapeInfo::Matrix(Dim::Unknown(), Dim::Unknown()));
}

ShapeRuleResult ReshapeRule(const OpcodeEffect& effect,
                            const std::vector<ShapeArg>& args) {
  (void)effect;
  const ShapeInfo& a = ArgShape(args, 0);
  Dim rows = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  Dim cols = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  int64_t have = 0;
  int64_t want = 0;
  if (a.is_matrix() && a.rows.is_const() && a.cols.is_const() &&
      rows.is_const() && cols.is_const() &&
      !__builtin_mul_overflow(a.rows.value, a.cols.value, &have) &&
      !__builtin_mul_overflow(rows.value, cols.value, &want) &&
      have != want) {
    return ShapeError("reshape: element count mismatch (" +
                      std::to_string(have) + " vs " + std::to_string(want) +
                      ")");
  }
  return Out(ShapeInfo::Matrix(rows, cols, a.is_matrix() ? a.sparsity : 1.0));
}

ShapeRuleResult AppendRule(const OpcodeEffect& effect,
                           const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  const ShapeInfo& b = ArgShape(args, 1);
  bool cbind = std::string_view(effect.opcode) == "cbind";
  if (!a.is_matrix() || !b.is_matrix()) return Out(ShapeInfo::Unknown());
  std::string error;
  if (cbind) {
    Dim rows = MergeEqualDims(a.rows, b.rows, "cbind: rows", &error);
    if (!error.empty()) return ShapeError(error);
    return Out(ShapeInfo::Matrix(rows, AddDims(a.cols, b.cols)));
  }
  Dim cols = MergeEqualDims(a.cols, b.cols, "rbind: cols", &error);
  if (!error.empty()) return ShapeError(error);
  return Out(ShapeInfo::Matrix(AddDims(a.rows, b.rows), cols));
}

// X[rl:ru, cl:cu] -> (ru - rl + 1, cu - cl + 1); affine Dim arithmetic
// keeps X[2:nrow(X), ] symbolic.
ShapeRuleResult RightIndexRule(const OpcodeEffect& effect,
                               const std::vector<ShapeArg>& args) {
  (void)effect;
  Dim rl = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  Dim ru = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  Dim cl = args.size() > 3 ? args[3].AsDim() : Dim::Unknown();
  Dim cu = args.size() > 4 ? args[4].AsDim() : Dim::Unknown();
  const ShapeInfo& x = ArgShape(args, 0);
  if (x.is_matrix()) {
    if (x.rows.is_const() && ru.is_const() && ru.value > x.rows.value) {
      return ShapeError("rightindex: row upper bound " +
                        std::to_string(ru.value) + " exceeds nrow " +
                        std::to_string(x.rows.value));
    }
    if (x.cols.is_const() && cu.is_const() && cu.value > x.cols.value) {
      return ShapeError("rightindex: col upper bound " +
                        std::to_string(cu.value) + " exceeds ncol " +
                        std::to_string(x.cols.value));
    }
  }
  Dim rows = AddDims(SubDims(ru, rl), Dim::Const(1));
  Dim cols = AddDims(SubDims(cu, cl), Dim::Const(1));
  double sp = x.is_matrix() ? x.sparsity : 1.0;
  return Out(ShapeInfo::Matrix(rows, cols, sp));
}

// out = X with X[rl:ru, cl:cu] = Y: the result has X's shape.
ShapeRuleResult LeftIndexRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  (void)effect;
  const ShapeInfo& x = ArgShape(args, 0);
  const ShapeInfo& y = ArgShape(args, 1);
  Dim rl = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  Dim ru = args.size() > 3 ? args[3].AsDim() : Dim::Unknown();
  Dim cl = args.size() > 4 ? args[4].AsDim() : Dim::Unknown();
  Dim cu = args.size() > 5 ? args[5].AsDim() : Dim::Unknown();
  if (y.is_matrix()) {
    Dim want_rows = AddDims(SubDims(ru, rl), Dim::Const(1));
    Dim want_cols = AddDims(SubDims(cu, cl), Dim::Const(1));
    std::string error;
    MergeEqualDims(want_rows, y.rows, "leftindex: range rows", &error);
    if (error.empty()) {
      MergeEqualDims(want_cols, y.cols, "leftindex: range cols", &error);
    }
    if (!error.empty()) return ShapeError(error);
  }
  if (!x.is_matrix()) return Out(ShapeInfo::Unknown());
  // An update densifies conservatively.
  return Out(ShapeInfo::Matrix(x.rows, x.cols));
}

ShapeRuleResult SelectRule(const OpcodeEffect& effect,
                           const std::vector<ShapeArg>& args) {
  const ShapeInfo& x = ArgShape(args, 0);
  const ShapeInfo& idx = ArgShape(args, 1);
  bool columns = std::string_view(effect.opcode) == "selcols";
  if (!x.is_matrix()) return Out(ShapeInfo::Unknown());
  // Scalar index selects one row/col; a column vector of indices selects
  // one per entry.
  Dim count = Dim::Unknown();
  if (idx.is_scalar() || (args.size() > 1 && args[1].has_number)) {
    count = Dim::Const(1);
  } else if (idx.is_matrix() && idx.cols.is_const() && idx.cols.value == 1) {
    count = idx.rows;
  }
  if (columns) return Out(ShapeInfo::Matrix(x.rows, count, x.sparsity));
  return Out(ShapeInfo::Matrix(count, x.cols, x.sparsity));
}

ShapeRuleResult TableRule(const OpcodeEffect& effect,
                          const std::vector<ShapeArg>& args) {
  (void)effect;
  Dim rows = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  Dim cols = args.size() > 3 ? args[3].AsDim() : Dim::Unknown();
  return Out(ShapeInfo::Matrix(rows, cols));
}

ShapeRuleResult OrderRule(const OpcodeEffect& effect,
                          const std::vector<ShapeArg>& args) {
  (void)effect;
  const ShapeInfo& v = ArgShape(args, 0);
  if (!v.is_matrix()) return Out(ShapeInfo::Unknown());
  if (v.cols.is_const() && v.cols.value != 1) {
    return ShapeError("order: input must be a column vector, got " +
                      v.cols.ToString() + " columns");
  }
  return Out(ShapeInfo::Matrix(v.rows, Dim::Const(1)));
}

ShapeRuleResult MetaScalarRule(const OpcodeEffect& effect,
                               const std::vector<ShapeArg>& args) {
  const ShapeInfo& a = ArgShape(args, 0);
  std::string_view op = effect.opcode;
  if (op == "nrow") {
    if (a.is_matrix()) return Out(ShapeInfo::ScalarValue(a.rows));
    if (a.is_scalar()) return Out(ShapeInfo::ScalarConst(1));
  } else if (op == "ncol") {
    if (a.is_matrix()) return Out(ShapeInfo::ScalarValue(a.cols));
    if (a.is_scalar()) return Out(ShapeInfo::ScalarConst(1));
  } else if (op == "length") {
    if (a.is_matrix()) {
      int64_t cells = 0;
      if (a.rows.is_const() && a.cols.is_const() &&
          !__builtin_mul_overflow(a.rows.value, a.cols.value, &cells)) {
        return Out(ShapeInfo::ScalarConst(cells));
      }
      if (a.cols.is_const() && a.cols.value == 1) {
        return Out(ShapeInfo::ScalarValue(a.rows));
      }
      if (a.rows.is_const() && a.rows.value == 1) {
        return Out(ShapeInfo::ScalarValue(a.cols));
      }
    }
    if (a.is_scalar()) return Out(ShapeInfo::ScalarConst(1));
  }
  return Out(ShapeInfo::Scalar());
}

ShapeRuleResult CastToScalarRule(const OpcodeEffect& effect,
                                 const std::vector<ShapeArg>& args) {
  (void)effect;
  const ShapeInfo& a = ArgShape(args, 0);
  if (a.is_matrix()) {
    std::string error;
    MergeEqualDims(a.rows, Dim::Const(1), "castdts: rows", &error);
    if (error.empty()) {
      MergeEqualDims(a.cols, Dim::Const(1), "castdts: cols", &error);
    }
    if (!error.empty()) return ShapeError(error);
  }
  return Out(ShapeInfo::Scalar());
}

ShapeRuleResult CastToMatrixRule(const OpcodeEffect& effect,
                                 const std::vector<ShapeArg>& args) {
  (void)effect;
  (void)args;
  return Out(ShapeInfo::Matrix(Dim::Const(1), Dim::Const(1)));
}

ShapeRuleResult ScalarResultRule(const OpcodeEffect& effect,
                                 const std::vector<ShapeArg>& args) {
  (void)effect;
  (void)args;
  return Out(ShapeInfo::Scalar());
}

ShapeRuleResult RandRule(const OpcodeEffect& effect,
                         const std::vector<ShapeArg>& args) {
  (void)effect;
  // rand(rows, cols, min, max, sparsity, pdf, seed)
  Dim rows = args.size() > 0 ? args[0].AsDim() : Dim::Unknown();
  Dim cols = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  return Out(ShapeInfo::Matrix(rows, cols));
}

ShapeRuleResult SampleRule(const OpcodeEffect& effect,
                           const std::vector<ShapeArg>& args) {
  (void)effect;
  // sample(range, size, seed) -> (size, 1)
  Dim size = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  return Out(ShapeInfo::Matrix(size, Dim::Const(1)));
}

ShapeRuleResult SeqRule(const OpcodeEffect& effect,
                        const std::vector<ShapeArg>& args) {
  (void)effect;
  Dim from = args.size() > 0 ? args[0].AsDim() : Dim::Unknown();
  Dim to = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  Dim incr = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  Dim rows = Dim::Unknown();
  if (from.is_const() && to.is_const() && incr.is_const()) {
    const bool backwards = incr.value > 0 ? to.value < from.value
                                          : to.value > from.value;
    if (incr.value == 0 || backwards) {
      return ShapeError("seq: invalid range (" + std::to_string(from.value) +
                        ":" + std::to_string(to.value) + " by " +
                        std::to_string(incr.value) + ")");
    }
    // A length outside int64 leaves the row count unknown.
    int64_t span = 0;
    int64_t length = 0;
    if (!__builtin_sub_overflow(to.value, from.value, &span) &&
        !(span == std::numeric_limits<int64_t>::min() && incr.value == -1) &&
        !__builtin_add_overflow(span / incr.value, 1, &length)) {
      rows = Dim::Const(length);
    }
  } else if (incr.is_const() && incr.value == 1) {
    rows = AddDims(SubDims(to, from), Dim::Const(1));
  }
  return Out(ShapeInfo::Matrix(rows, Dim::Const(1)));
}

ShapeRuleResult FillRule(const OpcodeEffect& effect,
                         const std::vector<ShapeArg>& args) {
  (void)effect;
  // fill(value, rows, cols) — matrix(v, rows=, cols=)
  Dim rows = args.size() > 1 ? args[1].AsDim() : Dim::Unknown();
  Dim cols = args.size() > 2 ? args[2].AsDim() : Dim::Unknown();
  double sp = args.size() > 0 && args[0].has_number && args[0].number == 0
                  ? 0.0
                  : 1.0;
  return Out(ShapeInfo::Matrix(rows, cols, sp));
}

ShapeRuleResult ListRule(const OpcodeEffect& effect,
                         const std::vector<ShapeArg>& args) {
  (void)effect;
  (void)args;
  return Out(ShapeInfo::List());
}

ShapeRuleResult ListIndexRule(const OpcodeEffect& effect,
                              const std::vector<ShapeArg>& args) {
  (void)effect;
  (void)args;
  // Element shapes are not tracked per-slot; the kind is unknown.
  return Out(ShapeInfo::Unknown());
}

ShapeRuleResult ReadFileRule(const OpcodeEffect& effect,
                             const std::vector<ShapeArg>& args) {
  (void)effect;
  (void)args;
  // Shape inference seeds literal read() paths from the file header
  // (OpcodeEffect::reads_file) before consulting this fallback.
  return Out(ShapeInfo::Matrix(Dim::Unknown(), Dim::Unknown()));
}

// Builders keep the table below readable; every field deviation from the
// category default is spelled out at the entry.
OpcodeEffect Compute(const char* op, int inputs, bool reusable,
                     ShapeRuleFn rule, int outputs = 1,
                     CostFamily cost = CostFamily::kPerCell) {
  OpcodeEffect e;
  e.opcode = op;
  e.category = Cat::kCompute;
  e.min_inputs = inputs;
  e.max_inputs = inputs;
  e.num_outputs = outputs;
  e.reusable = reusable;
  e.shape_rule = rule;
  e.cost_family = cost;
  return e;
}

OpcodeEffect DataGen(const char* op, int inputs, bool deterministic,
                     ShapeRuleFn rule) {
  OpcodeEffect e;
  e.opcode = op;
  e.category = Cat::kDataGen;
  e.min_inputs = inputs;
  e.max_inputs = inputs;
  e.deterministic = deterministic;
  e.shape_rule = rule;
  return e;
}

OpcodeEffect Bookkeeping(const char* op, int inputs, int outputs,
                         bool frees_inputs) {
  OpcodeEffect e;
  e.opcode = op;
  e.category = Cat::kBookkeeping;
  e.min_inputs = inputs;
  e.max_inputs = inputs;
  e.num_outputs = outputs;
  e.frees_inputs = frees_inputs;
  return e;
}

std::vector<OpcodeEffect> BuildRegistry() {
  std::vector<OpcodeEffect> ops;

  // --- Elementwise binary (BinaryOpName) -------------------------------
  for (const char* op : {"+", "-", "*", "/", "^", "min", "max", "==", "!=",
                         "<", ">", "<=", ">=", "&", "|", "%%", "%/%"}) {
    ops.push_back(Compute(op, 2, /*reusable=*/true, EwiseBinaryRule));
  }
  // Cell-wise ternary; counted with the binaries in the default reusable
  // set (Sec. 4.1).
  ops.push_back(Compute("ifelse", 3, /*reusable=*/true, CellwiseFoldRule));

  // --- Elementwise unary (UnaryOpName) ---------------------------------
  for (const char* op : {"exp", "log", "sqrt", "abs", "round", "floor",
                         "ceil", "sign", "uminus", "!", "sigmoid"}) {
    ops.push_back(Compute(op, 1, /*reusable=*/true, EwiseUnaryRule));
  }

  // --- Aggregates ------------------------------------------------------
  for (const char* op :
       {"sum", "mean", "ua_min", "ua_max", "trace", "colSums", "colMeans",
        "colMins", "colMaxs", "colVars", "rowSums", "rowMeans", "rowMins",
        "rowMaxs", "rowIndexMax"}) {
    ops.push_back(Compute(op, 1, /*reusable=*/true, AggregateRule));
  }

  // --- Matrix multiplications and factorizations -----------------------
  ops.push_back(Compute("mm", 2, /*reusable=*/true, MatMulRule, 1,
                        CostFamily::kMatMul));
  ops.push_back(Compute("tsmm", 1, /*reusable=*/true, TsmmRule, 1,
                        CostFamily::kTsmm));
  // Legacy SystemDS opcode (X %*% t(X)) kept in the reusable set for
  // lineage-log compatibility; replayable via the instruction factory even
  // though no current compiler rewrite emits it.
  ops.push_back(Compute("tmm", 1, /*reusable=*/true, TmmRule, 1,
                        CostFamily::kTmm));
  ops.push_back(Compute("solve", 2, /*reusable=*/true, SolveRule, 1,
                        CostFamily::kCubic));
  ops.push_back(Compute("cholesky", 1, /*reusable=*/true, CholeskyRule, 1,
                        CostFamily::kCubic));
  ops.push_back(Compute("eigen", 1, /*reusable=*/true, EigenRule,
                        /*outputs=*/2, CostFamily::kCubic));
  {
    // Traces as tsmm(cbind(A, B)) — never as a "tsmm_cbind" lineage node.
    OpcodeEffect tsmm_cbind = Compute("tsmm_cbind", 2, /*reusable=*/true,
                                      TsmmCbindRule, 1, CostFamily::kTsmm);
    tsmm_cbind.lineage_transparent = true;
    ops.push_back(tsmm_cbind);
  }

  // --- Reorganizations and indexing ------------------------------------
  ops.push_back(Compute("t", 1, /*reusable=*/true, TransposeRule));
  ops.push_back(Compute("rev", 1, /*reusable=*/true, SameShapeRule));
  ops.push_back(Compute("diag", 1, /*reusable=*/true, DiagRule));
  ops.push_back(Compute("reshape", 3, /*reusable=*/true, ReshapeRule));
  ops.push_back(Compute("cbind", 2, /*reusable=*/true, AppendRule));
  ops.push_back(Compute("rbind", 2, /*reusable=*/true, AppendRule));
  ops.push_back(Compute("rightindex", 5, /*reusable=*/true, RightIndexRule));
  ops.push_back(Compute("leftindex", 6, /*reusable=*/true, LeftIndexRule));
  ops.push_back(Compute("selcols", 2, /*reusable=*/true, SelectRule));
  ops.push_back(Compute("selrows", 2, /*reusable=*/true, SelectRule));
  ops.push_back(Compute("table", 4, /*reusable=*/true, TableRule));
  ops.push_back(Compute("order", 3, /*reusable=*/true, OrderRule));

  // --- Fused operators (Sec. 3.3): variadic operands, one output -------
  {
    OpcodeEffect fused =
        Compute("fused", -1, /*reusable=*/true, CellwiseFoldRule);
    fused.min_inputs = 1;
    fused.max_inputs = -1;
    // Traces as the per-step unfused items — never as a "fused" node.
    fused.lineage_transparent = true;
    ops.push_back(fused);
  }

  // --- Non-reusable compute: metadata, casts, rendering ----------------
  for (const char* op : {"nrow", "ncol", "length"}) {
    ops.push_back(Compute(op, 1, /*reusable=*/false, MetaScalarRule, 1,
                          CostFamily::kMetadata));
  }
  ops.push_back(Compute("castdts", 1, /*reusable=*/false, CastToScalarRule,
                        1, CostFamily::kMetadata));
  ops.push_back(Compute("castsdm", 1, /*reusable=*/false, CastToMatrixRule));
  ops.push_back(Compute("toString", 1, /*reusable=*/false, ScalarResultRule,
                        1, CostFamily::kMetadata));

  // --- Data generators -------------------------------------------------
  // rand/sample may draw a system seed (seed operand -1); instances with a
  // literal seed refine this via Instruction::IsDeterministic.
  ops.push_back(DataGen("rand", 7, /*deterministic=*/false, RandRule));
  ops.push_back(DataGen("sample", 3, /*deterministic=*/false, SampleRule));
  ops.push_back(DataGen("seq", 3, /*deterministic=*/true, SeqRule));
  ops.push_back(DataGen("fill", 3, /*deterministic=*/true, FillRule));

  // --- Lists -----------------------------------------------------------
  {
    OpcodeEffect list;
    list.opcode = "list";
    list.category = Cat::kData;
    list.min_inputs = 0;
    list.max_inputs = -1;
    list.shape_rule = ListRule;
    ops.push_back(list);
  }
  {
    OpcodeEffect listidx;
    listidx.opcode = "listidx";
    listidx.category = Cat::kData;
    listidx.min_inputs = 2;
    listidx.max_inputs = 2;
    listidx.shape_rule = ListIndexRule;
    ops.push_back(listidx);
  }

  // --- Variable bookkeeping --------------------------------------------
  ops.push_back(Bookkeeping("assignvar", 0, 1, /*frees_inputs=*/false));
  ops.push_back(Bookkeeping("cpvar", 1, 1, /*frees_inputs=*/false));
  ops.push_back(Bookkeeping("mvvar", 1, 1, /*frees_inputs=*/true));
  {
    OpcodeEffect rmvar = Bookkeeping("rmvar", -1, 0, /*frees_inputs=*/true);
    rmvar.min_inputs = 1;
    rmvar.max_inputs = -1;
    ops.push_back(rmvar);
  }

  // --- Function invocation ---------------------------------------------
  {
    OpcodeEffect fcall;
    fcall.opcode = "fcall";
    fcall.category = Cat::kCall;
    fcall.min_inputs = 0;
    fcall.max_inputs = -1;
    fcall.num_outputs = -1;
    ops.push_back(fcall);
  }
  {
    OpcodeEffect eval;
    eval.opcode = "eval";
    eval.category = Cat::kCall;
    eval.min_inputs = 2;
    eval.max_inputs = 2;
    eval.num_outputs = 1;
    // The callee is a runtime value; the determinism fixpoint cannot
    // resolve it, so eval is conservatively nondeterministic.
    eval.deterministic = false;
    eval.dynamic_dispatch = true;
    ops.push_back(eval);
  }

  // --- I/O --------------------------------------------------------------
  {
    OpcodeEffect read;
    read.opcode = "readfile";
    read.category = Cat::kIo;
    read.min_inputs = 1;
    read.max_inputs = 1;
    read.shape_rule = ReadFileRule;
    // Files are immutable (Sec. 3.4): reads are pure given the path.
    read.reads_file = true;
    ops.push_back(read);
  }
  {
    OpcodeEffect write;
    write.opcode = "write";
    write.category = Cat::kIo;
    write.min_inputs = 2;
    write.max_inputs = 2;
    write.num_outputs = 0;
    write.lineage_traced = false;
    write.side_effects = true;
    ops.push_back(write);
  }

  // --- Diagnostics ------------------------------------------------------
  {
    OpcodeEffect print;
    print.opcode = "print";
    print.category = Cat::kDiagnostic;
    print.min_inputs = 1;
    print.max_inputs = 1;
    print.num_outputs = 0;
    print.lineage_traced = false;
    print.side_effects = true;
    ops.push_back(print);
  }
  {
    OpcodeEffect stop;
    stop.opcode = "stop";
    stop.category = Cat::kDiagnostic;
    stop.min_inputs = 1;
    stop.max_inputs = 1;
    stop.num_outputs = 0;
    stop.lineage_traced = false;
    stop.side_effects = true;
    ops.push_back(stop);
  }
  {
    OpcodeEffect lineageof;
    lineageof.opcode = "lineageof";
    lineageof.category = Cat::kDiagnostic;
    lineageof.min_inputs = 1;
    lineageof.max_inputs = 1;
    lineageof.shape_rule = ScalarResultRule;
    lineageof.cost_family = CostFamily::kMetadata;
    ops.push_back(lineageof);
  }

  return ops;
}

const std::unordered_map<std::string_view, const OpcodeEffect*>& Index() {
  static const auto* index = [] {
    auto* map = new std::unordered_map<std::string_view, const OpcodeEffect*>;
    for (const OpcodeEffect& effect : AllOpcodeEffects()) {
      (*map)[effect.opcode] = &effect;
    }
    return map;
  }();
  return *index;
}

/// The process-wide intern table. Catalog opcodes are interned eagerly at
/// construction (so catalog opcode i always has id i); everything else is
/// added on demand under the lock. Name storage is a deque: growth never
/// invalidates references to existing strings, so OpcodeName can hand out
/// stable `const std::string&`.
struct InternTable {
  InternTable() {
    for (const OpcodeEffect& effect : AllOpcodeEffects()) {
      names.emplace_back(effect.opcode);
      index.emplace(names.back(), static_cast<int32_t>(names.size()) - 1);
    }
    num_catalog = static_cast<int32_t>(names.size());
  }

  mutable std::shared_mutex mutex;
  std::unordered_map<std::string_view, int32_t> index;  ///< keys into `names`
  std::deque<std::string> names;
  int32_t num_catalog = 0;
};

InternTable& Interns() {
  static auto* table = new InternTable();
  return *table;
}

}  // namespace

OpcodeId InternOpcode(std::string_view name) {
  InternTable& table = Interns();
  {
    std::shared_lock<std::shared_mutex> lock(table.mutex);
    auto it = table.index.find(name);
    if (it != table.index.end()) return OpcodeId(it->second);
  }
  std::unique_lock<std::shared_mutex> lock(table.mutex);
  auto it = table.index.find(name);
  if (it != table.index.end()) return OpcodeId(it->second);
  table.names.emplace_back(name);
  int32_t id = static_cast<int32_t>(table.names.size()) - 1;
  table.index.emplace(table.names.back(), id);
  return OpcodeId(id);
}

const std::string& OpcodeName(OpcodeId id) {
  InternTable& table = Interns();
  // Catalog names are immutable after construction — no lock needed.
  if (id.value() >= 0 && id.value() < table.num_catalog) {
    return table.names[id.value()];
  }
  std::shared_lock<std::shared_mutex> lock(table.mutex);
  LIMA_CHECK(id.value() >= 0 &&
             id.value() < static_cast<int32_t>(table.names.size()))
      << "OpcodeName of uninterned id " << id.value();
  // Safe to return after unlock: deque growth does not move elements and
  // interned names are never mutated.
  return table.names[id.value()];
}

int32_t NumCatalogOpcodes() { return Interns().num_catalog; }

const OpcodeEffect* LookupOpcode(OpcodeId id) {
  if (!id.valid()) return nullptr;
  const std::vector<OpcodeEffect>& effects = AllOpcodeEffects();
  if (id.value() >= static_cast<int32_t>(effects.size())) return nullptr;
  return &effects[id.value()];
}

bool IsReusableOpcode(OpcodeId id) {
  const OpcodeEffect* effect = LookupOpcode(id);
  return effect != nullptr && effect->reusable;
}

const char* OpcodeCategoryName(OpcodeCategory category) {
  switch (category) {
    case Cat::kCompute:
      return "compute";
    case Cat::kDataGen:
      return "datagen";
    case Cat::kBookkeeping:
      return "bookkeeping";
    case Cat::kCall:
      return "call";
    case Cat::kData:
      return "data";
    case Cat::kIo:
      return "io";
    case Cat::kDiagnostic:
      return "diagnostic";
  }
  return "unknown";
}

const std::vector<OpcodeEffect>& AllOpcodeEffects() {
  static const auto* registry = new std::vector<OpcodeEffect>(BuildRegistry());
  return *registry;
}

const OpcodeEffect* LookupOpcode(std::string_view opcode) {
  const auto& index = Index();
  auto it = index.find(opcode);
  return it == index.end() ? nullptr : it->second;
}

std::vector<std::string> VerifyOpcodeEffects(
    const std::vector<OpcodeEffect>& effects) {
  std::vector<std::string> violations;
  auto report = [&violations](const OpcodeEffect& effect, const char* what) {
    violations.push_back(std::string("opcode '") + effect.opcode + "' " +
                         what);
  };
  for (const OpcodeEffect& effect : effects) {
    if (effect.reusable && !effect.deterministic) {
      report(effect, "is reusable but not deterministic");
    }
    if (effect.reusable && !effect.lineage_traced) {
      report(effect, "is reusable but not lineage-traced");
    }
    if (effect.category == Cat::kCompute && effect.num_outputs != 0 &&
        !effect.lineage_traced) {
      report(effect, "is a compute op without lineage tracing");
    }
    if (effect.frees_inputs && effect.category != Cat::kBookkeeping) {
      report(effect, "frees inputs outside the bookkeeping category");
    }
    if (effect.max_inputs != -1 && effect.min_inputs > effect.max_inputs) {
      report(effect, "has min_inputs > max_inputs");
    }
  }
  return violations;
}

std::vector<std::string> VerifyOpcodeRegistry() {
  return VerifyOpcodeEffects(AllOpcodeEffects());
}

std::vector<std::string> VerifyShapeRuleCoverage() {
  std::vector<std::string> missing;
  for (const OpcodeEffect& effect : AllOpcodeEffects()) {
    if (effect.category == Cat::kCall ||
        effect.category == Cat::kBookkeeping) {
      continue;  // handled natively by the inference engine
    }
    if (effect.num_outputs == 0) continue;  // produces no values
    if (effect.shape_rule == nullptr) {
      missing.push_back(std::string("opcode '") + effect.opcode +
                        "' has no shape-transfer rule");
    }
  }
  return missing;
}

}  // namespace lima
