#ifndef LIMA_RUNTIME_INSTRUCTIONS_MISC_H_
#define LIMA_RUNTIME_INSTRUCTIONS_MISC_H_

#include <string>
#include <vector>

#include "runtime/instruction.h"

namespace lima {

class Function;

/// assignvar: binds a scalar literal to a variable.
class AssignLiteralInstruction : public Instruction {
 public:
  AssignLiteralInstruction(ScalarValue value, std::string output)
      : Instruction("assignvar"),
        value_(std::move(value)),
        output_(std::move(output)) {}

  Status Execute(ExecutionContext* ctx) const override;
  std::vector<std::string> InputVars() const override { return {}; }
  std::vector<std::string> OutputVars() const override { return {output_}; }
  std::string ToString() const override;

  const ScalarValue& value() const { return value_; }

 private:
  ScalarValue value_;
  std::string output_;
};

/// Variable bookkeeping: cpvar (copy), mvvar (rename), rmvar (remove,
/// possibly several). These only manipulate the symbol table and the
/// lineage map (Sec. 3.1).
class VariableInstruction : public Instruction {
 public:
  enum class Kind { kCopy, kMove, kRemove };

  static std::unique_ptr<VariableInstruction> Copy(std::string from,
                                                   std::string to);
  static std::unique_ptr<VariableInstruction> Move(std::string from,
                                                   std::string to);
  static std::unique_ptr<VariableInstruction> Remove(
      std::vector<std::string> names);

  Status Execute(ExecutionContext* ctx) const override;
  std::vector<std::string> InputVars() const override;
  std::vector<std::string> OutputVars() const override;
  std::string ToString() const override;

  Kind variable_kind() const { return kind_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  VariableInstruction(Kind kind, std::vector<std::string> names);

  Kind kind_;
  std::vector<std::string> names_;
};

/// Invokes a user-defined function with positional arguments. Implements
/// multi-level (function-level) reuse for deterministic functions
/// (Sec. 4.1): a special "fcall" lineage item over the argument lineages
/// keys a bundle of all outputs in the cache.
class FunctionCallInstruction : public Instruction {
 public:
  FunctionCallInstruction(std::string function_name, std::vector<Operand> args,
                          std::vector<std::string> output_vars)
      : Instruction("fcall"),
        function_name_(std::move(function_name)),
        args_(std::move(args)),
        output_vars_(std::move(output_vars)) {}

  Status Execute(ExecutionContext* ctx) const override;
  std::vector<std::string> InputVars() const override {
    return VariableNames(args_);
  }
  std::vector<std::string> OutputVars() const override { return output_vars_; }
  std::string ToString() const override;

  const std::string& function_name() const { return function_name_; }
  const std::vector<Operand>& args() const { return args_; }

 private:
  std::string function_name_;
  std::vector<Operand> args_;
  std::vector<std::string> output_vars_;
};

/// One instruction class for the non-computation opcodes: print, stop,
/// list, listidx, write, readfile, lineageof and eval. Execute runs the
/// opcode's `misc` row (runtime/kernels.h), which binds the outputs and
/// their lineage itself: these ops never probe the lineage cache and do not
/// count as executed instructions. Build instances through MakeInstruction
/// (runtime/instruction_factory.h), which validates arity against the
/// catalog.
class MiscInstruction : public Instruction {
 public:
  MiscInstruction(OpcodeId opcode, std::vector<Operand> operands,
                  std::vector<std::string> outputs)
      : Instruction(opcode),
        run_(KernelRowOf(opcode).misc),
        operands_(std::move(operands)),
        outputs_(std::move(outputs)) {}

  Status Execute(ExecutionContext* ctx) const override {
    return run_(*this, ctx);
  }
  std::vector<std::string> InputVars() const override {
    return VariableNames(operands_);
  }
  std::vector<std::string> OutputVars() const override { return outputs_; }

  const std::vector<Operand>& operands() const { return operands_; }
  const std::vector<std::string>& outputs() const { return outputs_; }

 private:
  MiscFn run_;
  std::vector<Operand> operands_;
  std::vector<std::string> outputs_;
};

/// Shared function-invocation path (fcall + eval): binds arguments in a
/// fresh child context, applies function-level reuse when enabled, executes
/// the body, and copies outputs (values + lineage) back to the caller.
Status CallFunction(ExecutionContext* ctx, const Function& fn,
                    const std::vector<DataPtr>& arg_values,
                    const std::vector<LineageItemPtr>& arg_items,
                    const std::vector<std::string>& output_vars);

}  // namespace lima

#endif  // LIMA_RUNTIME_INSTRUCTIONS_MISC_H_
