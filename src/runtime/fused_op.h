#ifndef LIMA_RUNTIME_FUSED_OP_H_
#define LIMA_RUNTIME_FUSED_OP_H_

#include <string>
#include <vector>

#include "matrix/elementwise.h"
#include "runtime/instruction.h"

namespace lima {

/// One step of a fused cell-wise operator chain. Sources reference either an
/// instruction operand or the result of an earlier step.
struct FusedStep {
  struct Src {
    enum class Kind { kOperand, kStep };
    Kind kind;
    int index;
    static Src OperandRef(int i) { return {Kind::kOperand, i}; }
    static Src StepRef(int i) { return {Kind::kStep, i}; }
  };

  bool is_binary = true;
  BinaryOp bop = BinaryOp::kAdd;
  UnaryOp uop = UnaryOp::kExp;
  Src lhs{Src::Kind::kOperand, 0};
  Src rhs{Src::Kind::kOperand, 0};  ///< unused for unary steps
};

/// A fused operator produced by operator fusion (Sec. 3.3): a chain of
/// cell-wise binary/unary operations executed in a single pass without
/// materialized intermediates. Matrix operands must share one shape; scalar
/// operands broadcast.
///
/// Fusion loses operator semantics, so the instruction expands its
/// compile-time lineage patch at runtime: BuildLineage materializes one
/// lineage item per fused step, making the trace identical to unfused
/// execution (and therefore interchangeable in the reuse cache).
class FusedInstruction : public ComputationInstruction {
 public:
  FusedInstruction(std::vector<Operand> operands, std::vector<FusedStep> steps,
                   std::string output);

  const std::vector<FusedStep>& steps() const { return steps_; }
  std::string ToString() const override;

 protected:
  Result<std::vector<DataPtr>> Compute(ExecutionContext* ctx,
                                       const std::vector<DataPtr>& inputs,
                                       const ExecState& state) const override;

  std::vector<LineageItemPtr> BuildLineage(
      const std::vector<LineageItemPtr>& input_items,
      const ExecState& state) const override;

 private:
  std::vector<FusedStep> steps_;
};

}  // namespace lima

#endif  // LIMA_RUNTIME_FUSED_OP_H_
