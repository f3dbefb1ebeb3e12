#include "runtime/fused_op.h"

#include <algorithm>
#include <vector>

#include "analysis/cost_model.h"
#include "common/parallel.h"

namespace lima {

FusedInstruction::FusedInstruction(std::vector<Operand> operands,
                                   std::vector<FusedStep> steps,
                                   std::string output)
    : ComputationInstruction(InternOpcode("fused"), std::move(operands),
                             {std::move(output)}),
      steps_(std::move(steps)) {
  LIMA_CHECK(!steps_.empty());
}

std::string FusedInstruction::ToString() const {
  std::string out = "fused(" + std::to_string(steps_.size()) + " ops)";
  for (const Operand& op : operands_) {
    out += " ";
    out += op.DebugString();
  }
  out += " -> " + outputs_[0];
  return out;
}

std::vector<LineageItemPtr> FusedInstruction::BuildLineage(
    const std::vector<LineageItemPtr>& input_items,
    const ExecState& state) const {
  (void)state;
  // Expand the compile-time lineage patch: one item per fused step, so the
  // trace equals unfused execution (Sec. 3.3).
  std::vector<LineageItemPtr> step_items(steps_.size());
  auto src_item = [&](const FusedStep::Src& src) -> LineageItemPtr {
    return src.kind == FusedStep::Src::Kind::kOperand
               ? input_items[src.index]
               : step_items[src.index];
  };
  for (size_t i = 0; i < steps_.size(); ++i) {
    const FusedStep& step = steps_[i];
    if (step.is_binary) {
      step_items[i] = LineageItem::Create(
          BinaryOpName(step.bop), {src_item(step.lhs), src_item(step.rhs)});
    } else {
      step_items[i] =
          LineageItem::Create(UnaryOpName(step.uop), {src_item(step.lhs)});
    }
  }
  return {step_items.back()};
}

Result<std::vector<DataPtr>> FusedInstruction::Compute(
    ExecutionContext* ctx, const std::vector<DataPtr>& inputs,
    const ExecState& state) const {
  (void)state;
  const ParallelContext* par = ctx->parallel();
  // Classify operands: the single-pass kernel requires all matrix operands
  // to share one shape (scalars broadcast). Mixed shapes (row/column-vector
  // broadcasting) and all-scalar chains fall back to stepwise evaluation.
  int64_t rows = -1;
  int64_t cols = -1;
  bool uniform = true;
  std::vector<const Matrix*> matrices(inputs.size(), nullptr);
  std::vector<double> scalars(inputs.size(), 0.0);
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i]->type() == DataType::kMatrix) {
      const Matrix* m =
          static_cast<const MatrixData*>(inputs[i].get())->matrix().get();
      if (rows < 0) {
        rows = m->rows();
        cols = m->cols();
      } else if (m->rows() != rows || m->cols() != cols) {
        uniform = false;
      }
      matrices[i] = m;
    } else {
      LIMA_ASSIGN_OR_RETURN(double v, AsNumber(inputs[i]));
      scalars[i] = v;
    }
  }
  if (rows < 0 || !uniform) {
    // Fallback: evaluate the steps as full matrix/scalar operations with
    // R-style broadcasting — semantically identical, just materialized.
    std::vector<DataPtr> step_values(steps_.size());
    auto src_data = [&](const FusedStep::Src& src) -> const DataPtr& {
      return src.kind == FusedStep::Src::Kind::kOperand
                 ? inputs[src.index]
                 : step_values[src.index];
    };
    for (size_t s = 0; s < steps_.size(); ++s) {
      const FusedStep& step = steps_[s];
      const DataPtr& a = src_data(step.lhs);
      if (step.is_binary) {
        const DataPtr& b = src_data(step.rhs);
        bool am = a->type() == DataType::kMatrix;
        bool bm = b->type() == DataType::kMatrix;
        if (am && bm) {
          LIMA_ASSIGN_OR_RETURN(MatrixPtr ma, AsMatrix(a));
          LIMA_ASSIGN_OR_RETURN(MatrixPtr mb, AsMatrix(b));
          LIMA_ASSIGN_OR_RETURN(Matrix r,
                                EwiseBinary(step.bop, *ma, *mb, par));
          step_values[s] = MakeMatrixData(std::move(r));
        } else if (am || bm) {
          LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(am ? a : b));
          LIMA_ASSIGN_OR_RETURN(double v, AsNumber(am ? b : a));
          step_values[s] = MakeMatrixData(
              EwiseBinaryScalar(step.bop, *m, v, /*scalar_is_left=*/!am, par));
        } else {
          LIMA_ASSIGN_OR_RETURN(double va, AsNumber(a));
          LIMA_ASSIGN_OR_RETURN(double vb, AsNumber(b));
          step_values[s] = MakeDoubleData(ApplyBinary(step.bop, va, vb));
        }
      } else {
        if (a->type() == DataType::kMatrix) {
          LIMA_ASSIGN_OR_RETURN(MatrixPtr m, AsMatrix(a));
          step_values[s] = MakeMatrixData(EwiseUnary(step.uop, *m, par));
        } else {
          LIMA_ASSIGN_OR_RETURN(double v, AsNumber(a));
          step_values[s] = MakeDoubleData(ApplyUnary(step.uop, v));
        }
      }
    }
    return std::vector<DataPtr>{step_values.back()};
  }

  Matrix out(rows, cols);
  double* po = out.mutable_data();
  const int64_t n = out.size();
  // Each cell is independent (step_vals is per-cell scratch), so chunks of
  // the cell range run in parallel; results are byte-identical because every
  // cell's value depends only on its own inputs.
  const double steps_cost = static_cast<double>(steps_.size());
  int chunks = PlanParallelChunks(static_cast<double>(n) * steps_cost,
                                  static_cast<double>(n) * 16.0);
  int64_t chunk_cells = (n + chunks - 1) / std::max(chunks, 1);
  int64_t slices = chunks > 1 ? (n + chunk_cells - 1) / chunk_cells : 1;
  RunChunks(par, slices, [&](int64_t c) {
    int64_t begin = slices > 1 ? c * chunk_cells : 0;
    int64_t end = slices > 1 ? std::min(n, begin + chunk_cells) : n;
    std::vector<double> step_vals(steps_.size());
    for (int64_t cell = begin; cell < end; ++cell) {
      auto src_val = [&](const FusedStep::Src& src) -> double {
        if (src.kind == FusedStep::Src::Kind::kStep) {
          return step_vals[src.index];
        }
        const Matrix* m = matrices[src.index];
        return m != nullptr ? m->data()[cell] : scalars[src.index];
      };
      for (size_t s = 0; s < steps_.size(); ++s) {
        const FusedStep& step = steps_[s];
        step_vals[s] = step.is_binary
                           ? ApplyBinary(step.bop, src_val(step.lhs),
                                         src_val(step.rhs))
                           : ApplyUnary(step.uop, src_val(step.lhs));
      }
      po[cell] = step_vals.back();
    }
  });
  return std::vector<DataPtr>{MakeMatrixData(std::move(out))};
}

}  // namespace lima
