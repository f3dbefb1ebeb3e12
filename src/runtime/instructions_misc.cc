#include "runtime/instructions_misc.h"

#include <optional>

#include "common/timer.h"
#include "runtime/program.h"

namespace lima {

Status AssignLiteralInstruction::Execute(ExecutionContext* ctx) const {
  if (ctx->stats() != nullptr) {
    ctx->stats()->instructions_executed.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  LineageItemPtr item;
  if (ctx->lineage_active()) {
    item = ctx->lineage().GetOrCreateLiteral(value_.EncodeLineageLiteral());
  }
  ctx->SetVariable(output_, MakeScalarData(value_), std::move(item));
  return Status::OK();
}

std::string AssignLiteralInstruction::ToString() const {
  return "assignvar " + value_.ToDisplayString() + " -> " + output_;
}

VariableInstruction::VariableInstruction(Kind kind,
                                         std::vector<std::string> names)
    : Instruction(kind == Kind::kCopy ? "cpvar"
                                      : (kind == Kind::kMove ? "mvvar"
                                                             : "rmvar")),
      kind_(kind),
      names_(std::move(names)) {}

std::unique_ptr<VariableInstruction> VariableInstruction::Copy(
    std::string from, std::string to) {
  return std::unique_ptr<VariableInstruction>(new VariableInstruction(
      Kind::kCopy, {std::move(from), std::move(to)}));
}

std::unique_ptr<VariableInstruction> VariableInstruction::Move(
    std::string from, std::string to) {
  return std::unique_ptr<VariableInstruction>(new VariableInstruction(
      Kind::kMove, {std::move(from), std::move(to)}));
}

std::unique_ptr<VariableInstruction> VariableInstruction::Remove(
    std::vector<std::string> names) {
  return std::unique_ptr<VariableInstruction>(
      new VariableInstruction(Kind::kRemove, std::move(names)));
}

Status VariableInstruction::Execute(ExecutionContext* ctx) const {
  switch (kind_) {
    case Kind::kCopy:
      if (!ctx->symbols().Contains(names_[0])) {
        return Status::RuntimeError("cpvar: undefined variable " + names_[0]);
      }
      ctx->symbols().Copy(names_[0], names_[1]);
      ctx->lineage().Copy(names_[0], names_[1]);
      break;
    case Kind::kMove:
      if (!ctx->symbols().Contains(names_[0])) {
        return Status::RuntimeError("mvvar: undefined variable " + names_[0]);
      }
      ctx->symbols().Move(names_[0], names_[1]);
      ctx->lineage().Move(names_[0], names_[1]);
      break;
    case Kind::kRemove:
      for (const std::string& name : names_) {
        ctx->symbols().Remove(name);
        ctx->lineage().Remove(name);
      }
      break;
  }
  return Status::OK();
}

std::vector<std::string> VariableInstruction::InputVars() const {
  if (kind_ == Kind::kRemove) return {};
  return {names_[0]};
}

std::vector<std::string> VariableInstruction::OutputVars() const {
  if (kind_ == Kind::kRemove) return {};
  return {names_[1]};
}

std::string VariableInstruction::ToString() const {
  std::string out = opcode();
  for (const std::string& name : names_) {
    out += " ";
    out += name;
  }
  return out;
}

Status CallFunction(ExecutionContext* ctx, const Function& fn,
                    const std::vector<DataPtr>& arg_values,
                    const std::vector<LineageItemPtr>& arg_items,
                    const std::vector<std::string>& output_vars) {
  if (ctx->call_depth() > 200) {
    return Status::RuntimeError("function call depth exceeded in " +
                                fn.name());
  }
  if (arg_values.size() > fn.params().size()) {
    return Status::Invalid("too many arguments for function " + fn.name());
  }
  if (output_vars.size() > fn.outputs().size()) {
    return Status::Invalid("too many outputs bound for function " + fn.name());
  }

  // Multi-level (function-level) reuse: probe a special "fcall" item that
  // bundles all outputs (Sec. 4.1). Callers may bind fewer outputs than the
  // function has, so a bundle serves any call binding at most its size.
  std::optional<BundleReuse> reuse;
  if (ctx->reuse_active() &&
      ctx->config().reuse_mode == ReuseMode::kMultiLevel &&
      fn.deterministic() && arg_values.size() == arg_items.size()) {
    reuse.emplace(ctx, LineageItem::Create("fcall", arg_items, fn.name()));
    if (reuse->BindHit(output_vars, /*exact_size=*/false,
                       &RuntimeStats::function_reuse_hits)) {
      return Status::OK();
    }
  }

  // Bind arguments (values + lineage) into a fresh function-local context.
  ExecutionContext child = ctx->MakeFunctionContext();
  for (size_t i = 0; i < fn.params().size(); ++i) {
    const Function::Param& param = fn.params()[i];
    if (i < arg_values.size()) {
      child.symbols().Set(param.name, arg_values[i]);
      if (child.tracing_enabled() && i < arg_items.size() &&
          arg_items[i] != nullptr) {
        child.lineage().Set(param.name, arg_items[i]);
      }
    } else if (param.has_default) {
      child.SetVariable(param.name, MakeScalarData(param.default_value),
                        child.tracing_enabled()
                            ? child.lineage().GetOrCreateLiteral(
                                  param.default_value.EncodeLineageLiteral())
                            : nullptr);
    } else {
      return Status::Invalid("missing argument '" + param.name +
                             "' for function " + fn.name());
    }
  }

  StopWatch watch;
  Status status = ExecuteBlocks(fn.body(), &child);
  if (!status.ok()) {
    return Status(status.code(), status.message() + " [in function " +
                                     fn.name() + "]");
  }
  double seconds = watch.ElapsedSeconds();

  // Copy outputs back to the caller, all or none.
  for (const std::string& out_name : fn.outputs()) {
    if (!child.symbols().Contains(out_name)) {
      return Status::RuntimeError("function " + fn.name() +
                                  " did not assign output " + out_name);
    }
  }
  for (size_t i = 0; i < output_vars.size(); ++i) {
    const std::string& out_name = fn.outputs()[i];
    ctx->SetVariable(output_vars[i], child.symbols().GetOrNull(out_name),
                     child.lineage().Get(out_name));
  }
  if (reuse) reuse->Put(child, fn.outputs(), seconds);
  return Status::OK();
}

Status FunctionCallInstruction::Execute(ExecutionContext* ctx) const {
  if (ctx->stats() != nullptr) {
    ctx->stats()->instructions_executed.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  if (ctx->program() == nullptr) {
    return Status::RuntimeError("no program registered for function calls");
  }
  const Function* fn = ctx->program()->GetFunction(function_name_);
  if (fn == nullptr) {
    return Status::RuntimeError("undefined function: " + function_name_);
  }
  std::vector<DataPtr> values;
  std::vector<LineageItemPtr> items;
  values.reserve(args_.size());
  for (const Operand& arg : args_) {
    LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, arg));
    values.push_back(std::move(value));
    items.push_back(ctx->tracing_enabled() ? ResolveOperandLineage(ctx, arg)
                                           : nullptr);
  }
  return CallFunction(ctx, *fn, values, items, output_vars_);
}

std::string FunctionCallInstruction::ToString() const {
  std::string out = "fcall " + function_name_;
  for (const Operand& arg : args_) {
    out += " ";
    out += arg.DebugString();
  }
  out += " ->";
  for (const std::string& o : output_vars_) {
    out += " ";
    out += o;
  }
  return out;
}

}  // namespace lima
