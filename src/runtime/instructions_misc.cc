#include "runtime/instructions_misc.h"

#include <cmath>
#include <ostream>

#include <fstream>
#include <optional>

#include "common/string_util.h"
#include "common/timer.h"
#include "lineage/serialize.h"
#include "matrix/matrix_io.h"
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

Status PrintInstruction::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, input_));
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

std::vector<std::string> PrintInstruction::InputVars() const {
  return input_.is_literal ? std::vector<std::string>{}
                           : std::vector<std::string>{input_.name};
}

Status StopInstruction::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, message_));
  std::string msg = "stop()";
  if (value->type() == DataType::kScalar) {
    msg = static_cast<const ScalarData*>(value.get())
              ->value()
              .ToDisplayString();
  }
  return Status::RuntimeError(msg);
}

std::vector<std::string> StopInstruction::InputVars() const {
  return message_.is_literal ? std::vector<std::string>{}
                             : std::vector<std::string>{message_.name};
}

Status ListInstruction::Execute(ExecutionContext* ctx) const {
  std::vector<DataPtr> values;
  std::vector<LineageItemPtr> items;
  values.reserve(elements_.size());
  items.reserve(elements_.size());
  for (const Operand& op : elements_) {
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
      output_,
      std::make_shared<const ListData>(std::move(values), std::move(items)),
      std::move(list_item));
  return Status::OK();
}

std::vector<std::string> ListInstruction::InputVars() const {
  std::vector<std::string> vars;
  for (const Operand& op : elements_) {
    if (!op.is_literal) vars.push_back(op.name);
  }
  return vars;
}

Status ListIndexInstruction::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr list_data, ResolveOperand(ctx, list_));
  LIMA_ASSIGN_OR_RETURN(auto list, AsList(list_data));
  LIMA_ASSIGN_OR_RETURN(DataPtr index_data, ResolveOperand(ctx, index_));
  LIMA_ASSIGN_OR_RETURN(double index_value, AsNumber(index_data));
  int64_t index = static_cast<int64_t>(std::llround(index_value));
  if (index < 1 || index > list->size()) {
    return Status::OutOfRange("list index " + std::to_string(index) +
                              " out of range [1," +
                              std::to_string(list->size()) + "]");
  }
  ctx->SetVariable(output_, list->elements()[index - 1],
                   ctx->lineage_active()
                       ? list->element_lineage()[index - 1]
                       : nullptr);
  return Status::OK();
}

std::vector<std::string> ListIndexInstruction::InputVars() const {
  std::vector<std::string> vars;
  if (!list_.is_literal) vars.push_back(list_.name);
  if (!index_.is_literal) vars.push_back(index_.name);
  return vars;
}

Status WriteInstruction::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr value, ResolveOperand(ctx, input_));
  LIMA_ASSIGN_OR_RETURN(MatrixPtr matrix, AsMatrix(value));
  LIMA_ASSIGN_OR_RETURN(DataPtr path_data, ResolveOperand(ctx, path_));
  LIMA_ASSIGN_OR_RETURN(ScalarValue path_value, AsScalar(path_data));
  if (!path_value.is_string()) {
    return Status::TypeError("write: path must be a string");
  }
  const std::string& path = path_value.AsString();
  if (EndsWith(path, ".csv")) {
    LIMA_RETURN_NOT_OK(WriteMatrixCsv(path, *matrix));
  } else {
    LIMA_RETURN_NOT_OK(WriteMatrixFile(path, *matrix));
  }
  // Persist the lineage log alongside the data (Sec. 3.1).
  if (ctx->lineage_active() && !input_.is_literal) {
    LineageItemPtr item = ctx->lineage().Get(input_.name);
    if (item != nullptr) {
      std::ofstream log(path + ".lineage");
      if (!log) return Status::IoError("cannot write " + path + ".lineage");
      log << SerializeLineage(item);
    }
  }
  return Status::OK();
}

std::vector<std::string> WriteInstruction::InputVars() const {
  std::vector<std::string> vars;
  if (!input_.is_literal) vars.push_back(input_.name);
  if (!path_.is_literal) vars.push_back(path_.name);
  return vars;
}

Status ReadInstruction::Execute(ExecutionContext* ctx) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr path_data, ResolveOperand(ctx, path_));
  LIMA_ASSIGN_OR_RETURN(ScalarValue path_value, AsScalar(path_data));
  if (!path_value.is_string()) {
    return Status::TypeError("read: path must be a string");
  }
  const std::string& path = path_value.AsString();
  Result<Matrix> matrix = EndsWith(path, ".csv") ? ReadMatrixCsv(path)
                                                 : ReadMatrixFile(path);
  LIMA_RETURN_NOT_OK(matrix.status());
  LineageItemPtr item;
  if (ctx->lineage_active()) {
    item = LineageItem::Create("read", {}, path);
    item->RecordDims(matrix.ValueOrDie().rows(), matrix.ValueOrDie().cols());
  }
  ctx->SetVariable(output_, MakeMatrixData(std::move(matrix).ValueOrDie()),
                   std::move(item));
  return Status::OK();
}

std::vector<std::string> ReadInstruction::InputVars() const {
  return path_.is_literal ? std::vector<std::string>{}
                          : std::vector<std::string>{path_.name};
}

Status LineageOfInstruction::Execute(ExecutionContext* ctx) const {
  if (input_.is_literal) {
    ctx->SetVariable(output_,
                     MakeStringData(LineageItem::CreateLiteral(
                                        input_.literal.EncodeLineageLiteral())
                                        ->ToString()),
                     nullptr);
    return Status::OK();
  }
  LineageItemPtr item = ctx->lineage().Get(input_.name);
  if (item == nullptr) {
    return Status::RuntimeError("lineage(" + input_.name +
                                "): no lineage traced (tracing disabled?)");
  }
  ctx->SetVariable(output_, MakeStringData(SerializeLineage(item)), nullptr);
  return Status::OK();
}

std::vector<std::string> LineageOfInstruction::InputVars() const {
  return input_.is_literal ? std::vector<std::string>{}
                           : std::vector<std::string>{input_.name};
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

std::vector<std::string> FunctionCallInstruction::InputVars() const {
  std::vector<std::string> vars;
  for (const Operand& arg : args_) {
    if (!arg.is_literal) vars.push_back(arg.name);
  }
  return vars;
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

Status EvalInstruction::Execute(ExecutionContext* ctx) const {
  if (ctx->program() == nullptr) {
    return Status::RuntimeError("no program registered for eval()");
  }
  LIMA_ASSIGN_OR_RETURN(DataPtr name_data, ResolveOperand(ctx, function_name_));
  LIMA_ASSIGN_OR_RETURN(ScalarValue name_value, AsScalar(name_data));
  if (!name_value.is_string()) {
    return Status::TypeError("eval: function name must be a string");
  }
  const Function* fn = ctx->program()->GetFunction(name_value.AsString());
  if (fn == nullptr) {
    return Status::RuntimeError("eval: undefined function: " +
                                name_value.AsString());
  }
  LIMA_ASSIGN_OR_RETURN(DataPtr args_data, ResolveOperand(ctx, args_list_));
  LIMA_ASSIGN_OR_RETURN(auto args, AsList(args_data));
  return CallFunction(ctx, *fn, args->elements(), args->element_lineage(),
                      {output_});
}

std::vector<std::string> EvalInstruction::InputVars() const {
  std::vector<std::string> vars;
  if (!function_name_.is_literal) vars.push_back(function_name_.name);
  if (!args_list_.is_literal) vars.push_back(args_list_.name);
  return vars;
}

}  // namespace lima
