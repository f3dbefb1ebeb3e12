#include "runtime/instructions_compute.h"

#include "matrix/aggregates.h"

namespace lima {

namespace {

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

/// Matrix payload of a kMatrix Data without copying the MatrixPtr (a copy
/// would raise the handle's refcount and defeat the steal census below).
const Matrix& MatrixOf(const DataPtr& data) {
  return *static_cast<const MatrixData*>(data.get())->matrix();
}

/// In-place eligibility gate: the liveness mask must mark operand `index`
/// as its variable's last use, then the refcount census in TryStealBuffer
/// proves the buffer unaliased. Returns the mutable buffer or nullptr.
std::shared_ptr<Matrix> TrySteal(ExecutionContext* ctx,
                                 const std::vector<Operand>& operands,
                                 uint32_t last_use_mask,
                                 const std::vector<DataPtr>& inputs,
                                 size_t index) {
  if (index >= 32 || (last_use_mask & (uint32_t{1} << index)) == 0) {
    return nullptr;
  }
  if (operands[index].is_literal) return nullptr;
  return ctx->TryStealBuffer(operands[index].name, inputs, index);
}

}  // namespace

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
  if (both_int && IsIntPreserving(op)) {
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
      (op == UnaryOp::kNeg || op == UnaryOp::kAbs)) {
    return ScalarValue::Int(static_cast<int64_t>(r));
  }
  return ScalarValue::Double(r);
}

BinaryInstruction::BinaryInstruction(BinaryOp op, Operand lhs, Operand rhs,
                                     std::string output)
    : ComputationInstruction(BinaryOpName(op),
                             {std::move(lhs), std::move(rhs)},
                             {std::move(output)}),
      op_(op) {}

Result<std::vector<DataPtr>> BinaryInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)state;
  const ParallelContext* par = ctx->parallel();
  const DataPtr& a = inputs[0];
  const DataPtr& b = inputs[1];
  bool a_matrix = a->type() == DataType::kMatrix;
  bool b_matrix = b->type() == DataType::kMatrix;

  if (!a_matrix && !b_matrix) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue sa, AsScalar(a));
    LIMA_ASSIGN_OR_RETURN(ScalarValue sb, AsScalar(b));
    LIMA_ASSIGN_OR_RETURN(ScalarValue r, ScalarBinary(op_, sa, sb));
    return std::vector<DataPtr>{MakeScalarData(std::move(r))};
  }
  if (a_matrix && b_matrix) {
    const Matrix& ma = MatrixOf(a);
    const Matrix& mb = MatrixOf(b);
    // In-place path: identical shapes only (a broadcast operand's buffer is
    // smaller than the output). Either operand's buffer qualifies; `mb` may
    // alias the stolen buffer (X + X) — the kernels read each cell before
    // writing its slot.
    if (ma.rows() == mb.rows() && ma.cols() == mb.cols()) {
      if (auto t = TrySteal(ctx, operands_, last_use_mask_, inputs, 0)) {
        EwiseBinaryInPlace(op_, t.get(), mb, /*target_is_left=*/true, par);
        return std::vector<DataPtr>{MakeMatrixData(MatrixPtr(std::move(t)))};
      }
      if (auto t = TrySteal(ctx, operands_, last_use_mask_, inputs, 1)) {
        EwiseBinaryInPlace(op_, t.get(), ma, /*target_is_left=*/false, par);
        return std::vector<DataPtr>{MakeMatrixData(MatrixPtr(std::move(t)))};
      }
    }
    LIMA_ASSIGN_OR_RETURN(Matrix r, EwiseBinary(op_, ma, mb, par));
    return std::vector<DataPtr>{MakeMatrixData(std::move(r))};
  }
  if (a_matrix) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue sb, AsScalar(b));
    if (!sb.is_numeric()) {
      return Status::TypeError("matrix-string operation not supported");
    }
    if (auto t = TrySteal(ctx, operands_, last_use_mask_, inputs, 0)) {
      EwiseBinaryScalarInPlace(op_, t.get(), sb.AsDouble(),
                               /*scalar_is_left=*/false, par);
      return std::vector<DataPtr>{MakeMatrixData(MatrixPtr(std::move(t)))};
    }
    Matrix r = EwiseBinaryScalar(op_, MatrixOf(a), sb.AsDouble(),
                                 /*scalar_is_left=*/false, par);
    return std::vector<DataPtr>{MakeMatrixData(std::move(r))};
  }
  LIMA_ASSIGN_OR_RETURN(ScalarValue sa, AsScalar(a));
  if (!sa.is_numeric()) {
    return Status::TypeError("string-matrix operation not supported");
  }
  if (auto t = TrySteal(ctx, operands_, last_use_mask_, inputs, 1)) {
    EwiseBinaryScalarInPlace(op_, t.get(), sa.AsDouble(),
                             /*scalar_is_left=*/true, par);
    return std::vector<DataPtr>{MakeMatrixData(MatrixPtr(std::move(t)))};
  }
  Matrix r = EwiseBinaryScalar(op_, MatrixOf(b), sa.AsDouble(),
                               /*scalar_is_left=*/true, par);
  return std::vector<DataPtr>{MakeMatrixData(std::move(r))};
}

UnaryInstruction::UnaryInstruction(UnaryOp op, Operand input,
                                   std::string output)
    : ComputationInstruction(UnaryOpName(op), {std::move(input)},
                             {std::move(output)}),
      op_(op) {}

Result<std::vector<DataPtr>> UnaryInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)state;
  if (inputs[0]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(inputs[0]));
    LIMA_ASSIGN_OR_RETURN(ScalarValue r, ScalarUnary(op_, v));
    return std::vector<DataPtr>{MakeScalarData(std::move(r))};
  }
  if (inputs[0]->type() != DataType::kMatrix) {
    return Status::TypeError("unary operator requires a scalar or matrix");
  }
  if (auto t = TrySteal(ctx, operands_, last_use_mask_, inputs, 0)) {
    EwiseUnaryInPlace(op_, t.get(), ctx->parallel());
    return std::vector<DataPtr>{MakeMatrixData(MatrixPtr(std::move(t)))};
  }
  return std::vector<DataPtr>{
      MakeMatrixData(EwiseUnary(op_, MatrixOf(inputs[0]), ctx->parallel()))};
}

AggregateInstruction::AggregateInstruction(std::string opcode, Operand input,
                                           std::string output)
    : ComputationInstruction(std::move(opcode), {std::move(input)},
                             {std::move(output)}) {}

Result<std::vector<DataPtr>> AggregateInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)state;
  const ParallelContext* par = ctx->parallel();
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(inputs[0]));
  const std::string& op = opcode();
  if (op == "sum") return std::vector<DataPtr>{MakeDoubleData(Sum(*m, par))};
  if (op == "mean") return std::vector<DataPtr>{MakeDoubleData(Mean(*m, par))};
  if (op == "ua_min") {
    return std::vector<DataPtr>{MakeDoubleData(MinValue(*m, par))};
  }
  if (op == "ua_max") {
    return std::vector<DataPtr>{MakeDoubleData(MaxValue(*m, par))};
  }
  if (op == "trace") return std::vector<DataPtr>{MakeDoubleData(Trace(*m))};
  Matrix r(0, 0);
  if (op == "colSums") {
    r = ColSums(*m, par);
  } else if (op == "colMeans") {
    r = ColMeans(*m, par);
  } else if (op == "colMins") {
    r = ColMins(*m, par);
  } else if (op == "colMaxs") {
    r = ColMaxs(*m, par);
  } else if (op == "colVars") {
    r = ColVars(*m);
  } else if (op == "rowSums") {
    r = RowSums(*m, par);
  } else if (op == "rowMeans") {
    r = RowMeans(*m, par);
  } else if (op == "rowMins") {
    r = RowMins(*m, par);
  } else if (op == "rowMaxs") {
    r = RowMaxs(*m, par);
  } else if (op == "rowIndexMax") {
    r = RowIndexMax(*m, par);
  } else {
    return Status::NotImplemented("unknown aggregate: " + op);
  }
  return std::vector<DataPtr>{MakeMatrixData(std::move(r))};
}

MetadataInstruction::MetadataInstruction(std::string opcode, Operand input,
                                         std::string output)
    : ComputationInstruction(std::move(opcode), {std::move(input)},
                             {std::move(output)}) {}

Result<std::vector<DataPtr>> MetadataInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)ctx;
  (void)state;
  const DataPtr& in = inputs[0];
  if (in->type() == DataType::kList) {
    if (opcode() != "length") {
      return Status::TypeError(opcode() + " not defined on lists");
    }
    LIMA_ASSIGN_OR_RETURN(auto list, AsList(in));
    return std::vector<DataPtr>{MakeIntData(list->size())};
  }
  LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(in));
  int64_t v = 0;
  if (opcode() == "nrow") {
    v = m->rows();
  } else if (opcode() == "ncol") {
    v = m->cols();
  } else if (opcode() == "length") {
    v = m->size();
  } else {
    return Status::NotImplemented("unknown metadata op: " + opcode());
  }
  return std::vector<DataPtr>{MakeIntData(v)};
}

CastInstruction::CastInstruction(std::string opcode, Operand input,
                                 std::string output)
    : ComputationInstruction(std::move(opcode), {std::move(input)},
                             {std::move(output)}) {}

Result<std::vector<DataPtr>> CastInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)ctx;
  (void)state;
  if (opcode() == "castdts") {
    if (inputs[0]->type() == DataType::kScalar) {
      return std::vector<DataPtr>{inputs[0]};
    }
    LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(inputs[0]));
    if (m->rows() != 1 || m->cols() != 1) {
      return Status::Invalid("as.scalar: matrix is not 1x1");
    }
    return std::vector<DataPtr>{MakeDoubleData(m->At(0, 0))};
  }
  if (opcode() == "castsdm") {
    if (inputs[0]->type() == DataType::kMatrix) {
      return std::vector<DataPtr>{inputs[0]};
    }
    LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(inputs[0]));
    if (!v.is_numeric()) {
      return Status::TypeError("as.matrix: string scalar");
    }
    Matrix m(1, 1, v.AsDouble());
    return std::vector<DataPtr>{MakeMatrixData(std::move(m))};
  }
  return Status::NotImplemented("unknown cast: " + opcode());
}

IfElseInstruction::IfElseInstruction(Operand condition, Operand then_value,
                                     Operand else_value, std::string output)
    : ComputationInstruction(
          "ifelse",
          {std::move(condition), std::move(then_value),
           std::move(else_value)},
          {std::move(output)}) {}

Result<std::vector<DataPtr>> IfElseInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)ctx;
  (void)state;
  // Resolve each operand into (matrix or broadcast scalar) form.
  struct Src {
    const Matrix* matrix = nullptr;
    double scalar = 0.0;
  };
  Src sources[3];
  int64_t rows = 1;
  int64_t cols = 1;
  for (int i = 0; i < 3; ++i) {
    if (inputs[i]->type() == DataType::kMatrix) {
      const Matrix* m =
          static_cast<const MatrixData*>(inputs[i].get())->matrix().get();
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
      LIMA_ASSIGN_OR_RETURN(double v, AsNumber(inputs[i]));
      sources[i].scalar = v;
    }
  }
  auto at = [&](const Src& src, int64_t i, int64_t j) -> double {
    if (src.matrix == nullptr) return src.scalar;
    int64_t r = src.matrix->rows() == 1 ? 0 : i;
    int64_t c = src.matrix->cols() == 1 ? 0 : j;
    return src.matrix->At(r, c);
  };
  if (rows == 1 && cols == 1 && sources[0].matrix == nullptr &&
      sources[1].matrix == nullptr && sources[2].matrix == nullptr) {
    // All-scalar form yields a scalar.
    double v = sources[0].scalar != 0.0 ? sources[1].scalar
                                        : sources[2].scalar;
    return std::vector<DataPtr>{MakeDoubleData(v)};
  }
  Matrix out(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out.At(i, j) = at(sources[0], i, j) != 0.0 ? at(sources[1], i, j)
                                                 : at(sources[2], i, j);
    }
  }
  return std::vector<DataPtr>{MakeMatrixData(std::move(out))};
}

ToStringInstruction::ToStringInstruction(Operand input, std::string output)
    : ComputationInstruction("toString", {std::move(input)},
                             {std::move(output)}) {}

Result<std::vector<DataPtr>> ToStringInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)ctx;
  (void)state;
  if (inputs[0]->type() == DataType::kScalar) {
    LIMA_ASSIGN_OR_RETURN(ScalarValue v, AsScalar(inputs[0]));
    return std::vector<DataPtr>{MakeStringData(v.ToDisplayString())};
  }
  if (inputs[0]->type() == DataType::kMatrix) {
    LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(inputs[0]));
    return std::vector<DataPtr>{MakeStringData(m->ToString())};
  }
  return std::vector<DataPtr>{MakeStringData("<list>")};
}

}  // namespace lima
