#include "lang/compiler.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "analysis/liveness.h"
#include "analysis/parfor_dependency.h"
#include "analysis/redundancy.h"
#include "analysis/shape_inference.h"
#include "lang/fusion_pass.h"
#include "lang/parser.h"
#include "matrix/matrix.h"
#include "reuse/compiler_assist.h"
#include "runtime/analysis.h"
#include "runtime/instruction_factory.h"
#include "runtime/instructions_misc.h"
#include "runtime/kernels.h"

namespace lima {

namespace {

bool IsTemp(const std::string& name) {
  return name.size() >= 2 && name[0] == '_' && name[1] == 't';
}

/// One parameter of a builtin or user function: unbound optional
/// parameters take `default_value`.
struct ArgSpec {
  const char* name;
  bool required;
  Operand default_value;
};

/// A DML builtin that resolves its parameters (positional, named or
/// defaulted) in operand order and emits one opcode. Adding such a builtin
/// means one row here; the forms that do more are compiled in CompileCall.
struct Builtin {
  const char* opcode;
  std::vector<ArgSpec> params;
};

const std::unordered_map<std::string_view, Builtin>& BuiltinTable() {
  static const auto* kTable = [] {
    const ArgSpec x{"x", true, Operand()};
    const ArgSpec a{"a", true, Operand()};
    auto* table = new std::unordered_map<std::string_view, Builtin>{
        {"solve", {"solve", {a, {"b", true, Operand()}}}},
        {"cholesky", {"cholesky", {a}}},
        {"rand",
         {"rand",
          {{"rows", true, Operand()},
           {"cols", true, Operand()},
           {"min", false, Operand::LitDouble(0.0)},
           {"max", false, Operand::LitDouble(1.0)},
           {"sparsity", false, Operand::LitDouble(1.0)},
           {"pdf", false, Operand::LitString("uniform")},
           {"seed", false, Operand::LitInt(-1)}}}},
        {"matrix",
         {"fill",
          {{"data", true, Operand()},
           {"rows", true, Operand()},
           {"cols", true, Operand()}}}},
        {"sample",
         {"sample",
          {{"range", true, Operand()},
           {"size", true, Operand()},
           {"seed", false, Operand::LitInt(-1)}}}},
        {"seq",
         {"seq",
          {{"from", true, Operand()},
           {"to", true, Operand()},
           {"incr", false, Operand::LitDouble(1.0)}}}},
        {"table",
         {"table",
          {a,
           {"b", true, Operand()},
           {"odim1", false, Operand::LitInt(0)},
           {"odim2", false, Operand::LitInt(0)}}}},
        {"order",
         {"order",
          {{"target", true, Operand()},
           {"by", false, Operand::LitInt(1)},
           {"decreasing", false, Operand::LitBool(false)},
           {"index.return", false, Operand::LitBool(false)}}}},
        {"as.scalar", {"castdts", {x}}},
        {"as.matrix", {"castsdm", {x}}},
        {"eval",
         {"eval", {{"fn", true, Operand()}, {"args", true, Operand()}}}},
        {"ifelse",
         {"ifelse",
          {{"test", true, Operand()},
           {"yes", true, Operand()},
           {"no", true, Operand()}}}},
        {"read", {"readfile", {{"path", true, Operand()}}}},
        {"lineage", {"lineageof", {x}}},
    };
    // Builtins named after their single-operand opcode.
    for (const char* name :
         {"exp", "log", "sqrt", "abs", "round", "floor", "ceil", "sign",
          "sigmoid", "sum", "mean", "trace", "colSums", "colMeans", "colMins",
          "colMaxs", "colVars", "rowSums", "rowMeans", "rowMins", "rowMaxs",
          "rowIndexMax", "nrow", "ncol", "length", "t", "rev", "diag",
          "toString"}) {
      table->emplace(name, Builtin{name, {x}});
    }
    return table;
  }();
  return *kTable;
}

/// Signature of a user function collected in the declaration pass.
struct FunctionSignature {
  std::vector<std::string> param_names;
  std::vector<bool> has_default;
  std::vector<ScalarValue> defaults;
  int num_outputs = 0;
};

class Compiler {
 public:
  explicit Compiler(const LimaConfig& config) : config_(config) {}

  Result<std::unique_ptr<Program>> Compile(
      const std::vector<StmtPtr>& statements) {
    program_ = std::make_unique<Program>();

    // Pass 1: collect function signatures and register Function shells.
    for (const StmtPtr& statement : statements) {
      if (statement->kind != StmtKind::kFuncDef) continue;
      LIMA_RETURN_NOT_OK(DeclareFunction(*statement));
    }

    // Pass 2: compile function bodies.
    for (const StmtPtr& statement : statements) {
      if (statement->kind != StmtKind::kFuncDef) continue;
      Function* fn = program_->GetMutableFunction(statement->func_name);
      LIMA_RETURN_NOT_OK(
          CompileInto(fn->mutable_body(), statement->body));
    }

    // Main program.
    LIMA_RETURN_NOT_OK(CompileInto(program_->mutable_main(), statements,
                                   /*skip_funcdefs=*/true));

    AnalyzeProgram(program_.get());
    // The one compile-time analysis (Sec. 4.4 at compile time): shapes and
    // value numbers in one traversal. Its redundancy half stamps probe
    // verdicts and lets operator fusion plan; its shape half proves the
    // parfor constants below. Runs after AnalyzeProgram (function
    // determinism feeds call summaries) and before any rewrite (facts are
    // keyed by the original instruction stream).
    ProgramAnalysis analysis = AnalyzeShapesAndValues(*program_, {});
    if (config_.redundancy_check) {
      AttachStaticPlan(program_.get(), analysis.redundancy);
    }
    if (config_.operator_fusion) {
      // Without the analysis there are no facts: every eligible link fuses.
      FusionPlanningContext fusion_ctx;
      if (config_.redundancy_check) {
        fusion_ctx.analysis = &analysis.redundancy;
        fusion_ctx.plan = program_->mutable_static_plan();
      }
      fusion_ctx.reuse_enabled = config_.reuse_enabled();
      ApplyOperatorFusion(program_.get(), fusion_ctx);
    }
    if (config_.reuse_enabled()) {
      // Unmarking runs whenever reuse is on: loop-carried intermediates are
      // never reusable and only pollute the cache (Sec. 4.4).
      UnmarkLoopCarriedInstructions(program_.get());
    }
    if (config_.compiler_assist) {
      ApplyReuseAwareRewrites(program_.get());
    }
    // Live-range pass: hoists rmvars to the earliest safe point and marks
    // last-use operands for in-place execution. Runs unconditionally so the
    // compiled program is identical whether in-place is enabled at runtime.
    AnnotateLiveness(program_.get());
    // Phase 1 (deferred from statement compilation): shape inference
    // proves loop-invariant integer constants (n = nrow(X) with X of
    // known shape); the dependency tests substitute them to make
    // symbolic subscripts concrete. The rewrites above keep every
    // ParForBlock and the values of the variables a loop reads.
    const auto& parfor_consts = analysis.shapes.parfor_consts;
    for (auto& [parfor, stmt] : pending_parfors_) {
      auto facts = parfor_consts.find(parfor);
      *parfor->mutable_dep_info() =
          facts == parfor_consts.end() || facts->second.empty()
              ? AnalyzeParForStatement(*stmt)
              : AnalyzeParForStatement(*stmt, facts->second);
    }
    // Phase 2 runs after AnalyzeProgram (function determinism fixpoint)
    // and after every instruction rewrite, so the nondeterminism scan
    // sees the instruction streams that will actually execute.
    FinalizeParForAnalysis(program_.get());
    return std::move(program_);
  }

 private:
  // ---- Emission state ----------------------------------------------------

  struct EmitScope {
    std::vector<BlockPtr>* blocks = nullptr;
    BasicBlock* forced = nullptr;  ///< predicate compilation target
    BasicBlock* open = nullptr;
  };

  BasicBlock* EnsureBasic() {
    EmitScope& scope = scopes_.back();
    if (scope.forced != nullptr) return scope.forced;
    if (scope.open == nullptr) {
      auto block = std::make_unique<BasicBlock>();
      scope.open = block.get();
      scope.blocks->push_back(std::move(block));
    }
    return scope.open;
  }

  void CloseBasic() {
    if (!scopes_.empty()) scopes_.back().open = nullptr;
  }

  void Emit(std::unique_ptr<Instruction> instruction) {
    instruction->set_source_line(current_line_);
    EnsureBasic()->Append(std::move(instruction));
  }

  /// Builds a catalog instruction through the factory and appends it; the
  /// catalog validates arity, so the compiler cannot emit an opcode shape
  /// the replay path could not rebuild.
  Status EmitOpInto(std::string_view opcode, std::vector<Operand> operands,
                    std::vector<std::string> outputs) {
    LIMA_ASSIGN_OR_RETURN(std::unique_ptr<Instruction> instruction,
                          MakeInstruction(opcode, std::move(operands),
                                          std::move(outputs)));
    Emit(std::move(instruction));
    return Status::OK();
  }

  /// Single-output EmitOpInto with a fresh temp as the destination.
  Result<Operand> EmitOp(std::string_view opcode,
                         std::vector<Operand> operands) {
    std::string out = NewTemp();
    LIMA_RETURN_NOT_OK(EmitOpInto(opcode, std::move(operands), {out}));
    return Operand::Var(out);
  }

  std::string NewTemp() {
    std::string name = "_t" + std::to_string(temp_counter_++);
    (in_predicate_ ? pred_temps_ : stmt_temps_).push_back(name);
    return name;
  }

  void FlushStatementTemps() {
    if (stmt_temps_.empty()) return;
    Emit(VariableInstruction::Remove(std::move(stmt_temps_)));
    stmt_temps_.clear();
  }

  /// Drops a temp from statement cleanup after a mvvar consumed it: the
  /// move already unbinds the source, so a later rmvar would remove an
  /// undefined variable.
  void ForgetStatementTemp(const std::string& name) {
    stmt_temps_.erase(
        std::remove(stmt_temps_.begin(), stmt_temps_.end(), name),
        stmt_temps_.end());
  }

  /// Frees predicate temporaries after their control block. The removals go
  /// into a dedicated basic block so surrounding blocks keep their
  /// block-reuse eligibility (removing vars a block did not create makes it
  /// ineligible, analysis.cc). For loops this must run after the whole
  /// block: loop predicates are re-evaluated per restart, so the temps stay
  /// live for the entire loop.
  void EmitPredicateCleanup(std::vector<std::string> temps) {
    if (temps.empty()) return;
    auto block = std::make_unique<BasicBlock>();
    auto remove = VariableInstruction::Remove(std::move(temps));
    remove->set_source_line(current_line_);
    block->Append(std::move(remove));
    scopes_.back().blocks->push_back(std::move(block));
  }

  /// Claims the temps created by the preceding CompilePredicate call(s).
  std::vector<std::string> TakePredicateTemps() {
    std::vector<std::string> temps = std::move(pred_temps_);
    pred_temps_.clear();
    return temps;
  }

  // ---- Expressions -------------------------------------------------------

  Result<Operand> CompileExpr(const ExprNode& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        return expr.is_int && FitsInt64(expr.number)
                   ? Operand::LitInt(static_cast<int64_t>(expr.number))
                   : Operand::LitDouble(expr.number);
      case ExprKind::kString:
        return Operand::LitString(expr.text);
      case ExprKind::kBool:
        return Operand::LitBool(expr.number != 0.0);
      case ExprKind::kVar:
        return Operand::Var(expr.text);
      case ExprKind::kUnary:
        return CompileUnary(expr);
      case ExprKind::kBinary:
        return CompileBinary(expr);
      case ExprKind::kCall:
        return CompileCall(expr);
      case ExprKind::kIndex:
        return CompileIndex(expr);
    }
    return Status::CompileError("unknown expression kind");
  }

  Result<Operand> CompileUnary(const ExprNode& expr) {
    LIMA_ASSIGN_OR_RETURN(Operand operand, CompileExpr(*expr.lhs));
    UnaryOp op = expr.text == "!" ? UnaryOp::kNot : UnaryOp::kNeg;
    if (operand.is_literal && operand.literal.is_numeric()) {
      LIMA_ASSIGN_OR_RETURN(ScalarValue folded,
                            ScalarUnary(op, operand.literal));
      return Operand::Lit(std::move(folded));
    }
    return EmitOp(op == UnaryOp::kNot ? "!" : "uminus",
                  {std::move(operand)});
  }

  Result<Operand> CompileBinary(const ExprNode& expr) {
    if (expr.text == ":") {
      return Status::CompileError(
          "range ':' is only valid in indexing and for-loops (line " +
          std::to_string(expr.line) + ")");
    }
    if (expr.text == "%*%") {
      // t(X) %*% X -> tsmm(X) (SystemDS compiler rewrite).
      if (expr.lhs->kind == ExprKind::kCall && expr.lhs->text == "t" &&
          expr.lhs->args.size() == 1 &&
          expr.lhs->args[0].value->kind == ExprKind::kVar &&
          expr.rhs->kind == ExprKind::kVar &&
          expr.lhs->args[0].value->text == expr.rhs->text) {
        return EmitOp("tsmm", {Operand::Var(expr.rhs->text)});
      }
      LIMA_ASSIGN_OR_RETURN(Operand lhs, CompileExpr(*expr.lhs));
      LIMA_ASSIGN_OR_RETURN(Operand rhs, CompileExpr(*expr.rhs));
      return EmitOp("mm", {std::move(lhs), std::move(rhs)});
    }
    BinaryOp op;
    if (!ParseBinaryOp(expr.text, &op)) {
      return Status::CompileError("unknown operator: " + expr.text);
    }
    LIMA_ASSIGN_OR_RETURN(Operand lhs, CompileExpr(*expr.lhs));
    LIMA_ASSIGN_OR_RETURN(Operand rhs, CompileExpr(*expr.rhs));
    // Scalar constant folding.
    if (lhs.is_literal && rhs.is_literal) {
      Result<ScalarValue> folded =
          ScalarBinary(op, lhs.literal, rhs.literal);
      if (folded.ok()) return Operand::Lit(std::move(folded).ValueOrDie());
    }
    // Binary operator spellings are their opcode names.
    return EmitOp(expr.text, {std::move(lhs), std::move(rhs)});
  }

  Result<std::vector<Operand>> ResolveArgs(const ExprNode& call,
                                           const std::vector<ArgSpec>& specs) {
    std::vector<Operand> out(specs.size());
    std::vector<bool> bound(specs.size(), false);
    size_t positional = 0;
    for (const CallArg& arg : call.args) {
      size_t slot = specs.size();
      if (arg.name.empty()) {
        // Positional: next unbound slot.
        while (positional < specs.size() && bound[positional]) ++positional;
        slot = positional;
      } else {
        for (size_t i = 0; i < specs.size(); ++i) {
          if (arg.name == specs[i].name) {
            slot = i;
            break;
          }
        }
      }
      if (slot >= specs.size()) {
        return Status::CompileError("unexpected argument '" + arg.name +
                                    "' in call to " + call.text + " (line " +
                                    std::to_string(call.line) + ")");
      }
      LIMA_ASSIGN_OR_RETURN(out[slot], CompileExpr(*arg.value));
      bound[slot] = true;
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      if (bound[i]) continue;
      if (specs[i].required) {
        return Status::CompileError(std::string("missing argument '") +
                                    specs[i].name + "' in call to " +
                                    call.text);
      }
      out[i] = specs[i].default_value;
    }
    return out;
  }

  Result<Operand> CompileCall(const ExprNode& call) {
    const std::string& name = call.text;
    // min/max: unary aggregate or binary elementwise.
    if (name == "min" || name == "max") {
      if (call.args.size() == 1) {
        LIMA_ASSIGN_OR_RETURN(Operand arg, CompileExpr(*call.args[0].value));
        return EmitOp("ua_" + name, {std::move(arg)});
      }
      if (call.args.size() == 2) {
        LIMA_ASSIGN_OR_RETURN(Operand a, CompileExpr(*call.args[0].value));
        LIMA_ASSIGN_OR_RETURN(Operand b, CompileExpr(*call.args[1].value));
        return EmitOp(name, {std::move(a), std::move(b)});
      }
      return Status::CompileError(name + "() takes 1 or 2 arguments");
    }
    if (name == "cbind" || name == "rbind") {
      if (call.args.size() < 2) {
        return Status::CompileError(name + "() needs at least 2 arguments");
      }
      LIMA_ASSIGN_OR_RETURN(Operand acc, CompileExpr(*call.args[0].value));
      for (size_t i = 1; i < call.args.size(); ++i) {
        LIMA_ASSIGN_OR_RETURN(Operand next, CompileExpr(*call.args[i].value));
        LIMA_ASSIGN_OR_RETURN(
            acc, EmitOp(name, {std::move(acc), std::move(next)}));
      }
      return acc;
    }
    if (name == "list") {
      std::vector<Operand> elements;
      for (const CallArg& arg : call.args) {
        LIMA_ASSIGN_OR_RETURN(Operand element, CompileExpr(*arg.value));
        elements.push_back(std::move(element));
      }
      return EmitOp("list", std::move(elements));
    }
    if (name == "eigen") {
      return Status::CompileError(
          "eigen() has two outputs; use [values, vectors] = eigen(X)");
    }
    if (name == "print" || name == "stop" || name == "write") {
      return Status::CompileError(name + "() is a statement, not an expression");
    }
    auto builtin = BuiltinTable().find(name);
    if (builtin != BuiltinTable().end()) {
      LIMA_ASSIGN_OR_RETURN(std::vector<Operand> args,
                            ResolveArgs(call, builtin->second.params));
      // order's `by` column is accepted but not an operand.
      if (name == "order") args.erase(args.begin() + 1);
      return EmitOp(builtin->second.opcode, std::move(args));
    }

    // User-defined function with a single bound output.
    LIMA_ASSIGN_OR_RETURN(std::vector<Operand> args,
                          ResolveUserArgs(call));
    std::string out = NewTemp();
    Emit(std::make_unique<FunctionCallInstruction>(
        name, std::move(args), std::vector<std::string>{out}));
    return Operand::Var(out);
  }

  Result<std::vector<Operand>> ResolveUserArgs(const ExprNode& call) {
    auto sig_it = signatures_.find(call.text);
    if (sig_it == signatures_.end()) {
      return Status::CompileError("call to undefined function '" + call.text +
                                  "' (line " + std::to_string(call.line) +
                                  ")");
    }
    const FunctionSignature& sig = sig_it->second;
    std::vector<ArgSpec> specs;
    specs.reserve(sig.param_names.size());
    for (size_t i = 0; i < sig.param_names.size(); ++i) {
      specs.push_back({sig.param_names[i].c_str(), !sig.has_default[i],
                       Operand::Lit(sig.defaults[i])});
    }
    return ResolveArgs(call, specs);
  }

  // ---- Indexing ----------------------------------------------------------

  Result<std::string> OperandToVar(Operand operand) {
    if (!operand.is_literal) return operand.name;
    std::string out = NewTemp();
    Emit(std::make_unique<AssignLiteralInstruction>(operand.literal, out));
    return out;
  }

  bool IsFullRange(const IndexDim& dim) const {
    return dim.is_range && dim.lower == nullptr && dim.upper == nullptr;
  }

  Result<Operand> CompileIndex(const ExprNode& expr) {
    LIMA_ASSIGN_OR_RETURN(Operand target, CompileExpr(*expr.target));
    if (target.is_literal) {
      return Status::CompileError("cannot index a literal");
    }
    if (expr.dims.size() == 1) {
      // Single-bracket indexing: list element access.
      LIMA_ASSIGN_OR_RETURN(Operand index, CompileExpr(*expr.dims[0].lower));
      return EmitOp("listidx", {std::move(target), std::move(index)});
    }
    LIMA_CHECK_EQ(expr.dims.size(), 2u);
    const IndexDim& row = expr.dims[0];
    const IndexDim& col = expr.dims[1];
    std::string current = target.name;

    // Row dimension.
    bool row_range = row.is_range;
    if (!row_range && row.lower != nullptr) {
      // Select by (scalar or vector) expression.
      LIMA_ASSIGN_OR_RETURN(Operand rows, CompileExpr(*row.lower));
      LIMA_ASSIGN_OR_RETURN(
          Operand selected,
          EmitOp("selrows", {Operand::Var(current), std::move(rows)}));
      current = selected.name;
    }
    // Column dimension.
    if (!col.is_range && col.lower != nullptr) {
      LIMA_ASSIGN_OR_RETURN(Operand cols, CompileExpr(*col.lower));
      LIMA_ASSIGN_OR_RETURN(
          Operand selected,
          EmitOp("selcols", {Operand::Var(current), std::move(cols)}));
      current = selected.name;
    }
    // Range dimensions (rightindex); skip when both are full ranges.
    bool row_slice = row_range && !IsFullRange(row);
    bool col_slice = col.is_range && !IsFullRange(col);
    if (row_slice || col_slice) {
      Operand rl = Operand::LitInt(1);
      Operand ru;
      Operand cl = Operand::LitInt(1);
      Operand cu;
      if (row_slice) {
        LIMA_ASSIGN_OR_RETURN(rl, CompileExpr(*row.lower));
        if (row.upper != nullptr) {
          LIMA_ASSIGN_OR_RETURN(ru, CompileExpr(*row.upper));
        } else {
          ru = rl;  // X[i, ...] single row via a:a
        }
      } else {
        LIMA_ASSIGN_OR_RETURN(ru, EmitOp("nrow", {Operand::Var(current)}));
      }
      if (col_slice) {
        LIMA_ASSIGN_OR_RETURN(cl, CompileExpr(*col.lower));
        if (col.upper != nullptr) {
          LIMA_ASSIGN_OR_RETURN(cu, CompileExpr(*col.upper));
        } else {
          cu = cl;
        }
      } else {
        LIMA_ASSIGN_OR_RETURN(cu, EmitOp("ncol", {Operand::Var(current)}));
      }
      LIMA_ASSIGN_OR_RETURN(
          Operand sliced,
          EmitOp("rightindex",
                 {Operand::Var(current), std::move(rl), std::move(ru),
                  std::move(cl), std::move(cu)}));
      current = sliced.name;
    }
    return Operand::Var(current);
  }

  // Non-range dims with scalar exprs appear in right-indexing above as a:a
  // ranges only when is_range; parser marks X[i, j] dims as non-range, which
  // the select path handles (runtime scalar select).

  // ---- Statements --------------------------------------------------------

  Result<Predicate> CompilePredicate(const ExprNode& expr) {
    Predicate predicate;
    scopes_.push_back({nullptr, predicate.mutable_block(), nullptr});
    in_predicate_ = true;
    Result<Operand> compiled = CompileExpr(expr);
    in_predicate_ = false;
    scopes_.pop_back();
    LIMA_RETURN_NOT_OK(compiled.status());
    Operand operand = std::move(compiled).ValueOrDie();
    if (operand.is_literal) {
      std::string out = "_p" + std::to_string(temp_counter_++);
      pred_temps_.push_back(out);
      auto assign =
          std::make_unique<AssignLiteralInstruction>(operand.literal, out);
      assign->set_source_line(current_line_);
      predicate.mutable_block()->Append(std::move(assign));
      predicate.set_result_var(out);
    } else {
      predicate.set_result_var(operand.name);
    }
    return predicate;
  }

  Status CompileAssign(const StmtNode& stmt) {
    if (!stmt.target_dims.empty()) return CompileIndexedAssign(stmt);
    LIMA_ASSIGN_OR_RETURN(Operand value, CompileExpr(*stmt.value));
    if (value.is_literal) {
      Emit(std::make_unique<AssignLiteralInstruction>(value.literal,
                                                      stmt.target));
    } else if (IsTemp(value.name)) {
      Emit(VariableInstruction::Move(value.name, stmt.target));
      ForgetStatementTemp(value.name);
    } else if (value.name != stmt.target) {
      Emit(VariableInstruction::Copy(value.name, stmt.target));
    }
    return Status::OK();
  }

  Status CompileIndexedAssign(const StmtNode& stmt) {
    if (stmt.target_dims.size() != 2) {
      return Status::CompileError(
          "left indexing requires X[rows, cols] = value (line " +
          std::to_string(stmt.line) + ")");
    }
    LIMA_ASSIGN_OR_RETURN(Operand src, CompileExpr(*stmt.value));
    auto bounds = [&](const IndexDim& dim, bool rows_dim)
        -> Result<std::pair<Operand, Operand>> {
      if (IsFullRange(dim)) {
        LIMA_ASSIGN_OR_RETURN(
            Operand n,
            EmitOp(rows_dim ? "nrow" : "ncol", {Operand::Var(stmt.target)}));
        return std::make_pair(Operand::LitInt(1), std::move(n));
      }
      LIMA_ASSIGN_OR_RETURN(Operand lo, CompileExpr(*dim.lower));
      Operand hi = lo;
      if (dim.is_range && dim.upper != nullptr) {
        LIMA_ASSIGN_OR_RETURN(hi, CompileExpr(*dim.upper));
      }
      return std::make_pair(std::move(lo), std::move(hi));
    };
    LIMA_ASSIGN_OR_RETURN(auto row_bounds, bounds(stmt.target_dims[0], true));
    LIMA_ASSIGN_OR_RETURN(auto col_bounds, bounds(stmt.target_dims[1], false));
    LIMA_ASSIGN_OR_RETURN(
        Operand out,
        EmitOp("leftindex",
               {Operand::Var(stmt.target), std::move(src), row_bounds.first,
                row_bounds.second, col_bounds.first, col_bounds.second}));
    Emit(VariableInstruction::Move(out.name, stmt.target));
    ForgetStatementTemp(out.name);
    return Status::OK();
  }

  Status CompileMultiAssign(const StmtNode& stmt) {
    const ExprNode& call = *stmt.value;
    if (call.text == "eigen") {
      if (stmt.targets.size() != 2 || call.args.size() != 1) {
        return Status::CompileError(
            "[values, vectors] = eigen(X) expects one input, two outputs");
      }
      LIMA_ASSIGN_OR_RETURN(Operand arg, CompileExpr(*call.args[0].value));
      LIMA_RETURN_NOT_OK(EmitOpInto("eigen", {std::move(arg)},
                                    {stmt.targets[0], stmt.targets[1]}));
      return Status::OK();
    }
    auto sig_it = signatures_.find(call.text);
    if (sig_it == signatures_.end()) {
      return Status::CompileError("call to undefined function '" + call.text +
                                  "'");
    }
    if (static_cast<int>(stmt.targets.size()) > sig_it->second.num_outputs) {
      return Status::CompileError("function " + call.text + " returns only " +
                                  std::to_string(sig_it->second.num_outputs) +
                                  " values");
    }
    LIMA_ASSIGN_OR_RETURN(std::vector<Operand> args, ResolveUserArgs(call));
    Emit(std::make_unique<FunctionCallInstruction>(call.text, std::move(args),
                                                   stmt.targets));
    return Status::OK();
  }

  Status CompileExprStmt(const StmtNode& stmt) {
    const ExprNode& call = *stmt.value;
    if (call.text == "print" || call.text == "stop") {
      if (call.args.size() != 1) {
        return Status::CompileError(call.text + "() takes one argument");
      }
      LIMA_ASSIGN_OR_RETURN(Operand arg, CompileExpr(*call.args[0].value));
      return EmitOpInto(call.text, {std::move(arg)}, {});
    }
    if (call.text == "write") {
      LIMA_ASSIGN_OR_RETURN(
          std::vector<Operand> args,
          ResolveArgs(call, {{"x", true, Operand()},
                             {"path", true, Operand()}}));
      return EmitOpInto("write", std::move(args), {});
    }
    // Side-effecting user call: bind outputs to discarded temps.
    LIMA_ASSIGN_OR_RETURN(Operand ignored, CompileExpr(call));
    (void)ignored;
    return Status::OK();
  }

  Status CompileStatement(const StmtNode& stmt) {
    current_line_ = stmt.line;
    switch (stmt.kind) {
      case StmtKind::kAssign:
        LIMA_RETURN_NOT_OK(CompileAssign(stmt));
        break;
      case StmtKind::kMultiAssign:
        LIMA_RETURN_NOT_OK(CompileMultiAssign(stmt));
        break;
      case StmtKind::kExprStmt:
        LIMA_RETURN_NOT_OK(CompileExprStmt(stmt));
        break;
      case StmtKind::kIf: {
        LIMA_ASSIGN_OR_RETURN(Predicate predicate,
                              CompilePredicate(*stmt.condition));
        std::vector<std::string> pred_temps = TakePredicateTemps();
        FlushStatementTemps();
        CloseBasic();
        auto block = std::make_unique<IfBlock>();
        *block->mutable_predicate() = std::move(predicate);
        LIMA_RETURN_NOT_OK(CompileInto(block->mutable_then_blocks(),
                                       stmt.body));
        LIMA_RETURN_NOT_OK(CompileInto(block->mutable_else_blocks(),
                                       stmt.else_body));
        scopes_.back().blocks->push_back(std::move(block));
        EmitPredicateCleanup(std::move(pred_temps));
        return Status::OK();
      }
      case StmtKind::kFor: {
        LIMA_ASSIGN_OR_RETURN(Predicate from, CompilePredicate(*stmt.from));
        LIMA_ASSIGN_OR_RETURN(Predicate to, CompilePredicate(*stmt.to));
        std::unique_ptr<ForBlock> block =
            stmt.is_parfor ? std::make_unique<ParForBlock>()
                           : std::make_unique<ForBlock>();
        block->set_iter_var(stmt.loop_var);
        *block->mutable_from() = std::move(from);
        *block->mutable_to() = std::move(to);
        if (stmt.step != nullptr) {
          LIMA_ASSIGN_OR_RETURN(Predicate step, CompilePredicate(*stmt.step));
          *block->mutable_incr() = std::move(step);
          block->set_has_incr(true);
        }
        std::vector<std::string> pred_temps = TakePredicateTemps();
        FlushStatementTemps();
        CloseBasic();
        LIMA_RETURN_NOT_OK(CompileInto(block->mutable_body(), stmt.body));
        if (stmt.is_parfor) {
          auto* parfor = static_cast<ParForBlock*>(block.get());
          parfor->set_source_line(stmt.line);
          pending_parfors_.emplace_back(parfor, &stmt);
        }
        scopes_.back().blocks->push_back(std::move(block));
        EmitPredicateCleanup(std::move(pred_temps));
        return Status::OK();
      }
      case StmtKind::kWhile: {
        LIMA_ASSIGN_OR_RETURN(Predicate predicate,
                              CompilePredicate(*stmt.condition));
        std::vector<std::string> pred_temps = TakePredicateTemps();
        FlushStatementTemps();
        CloseBasic();
        auto block = std::make_unique<WhileBlock>();
        *block->mutable_predicate() = std::move(predicate);
        LIMA_RETURN_NOT_OK(CompileInto(block->mutable_body(), stmt.body));
        scopes_.back().blocks->push_back(std::move(block));
        EmitPredicateCleanup(std::move(pred_temps));
        return Status::OK();
      }
      case StmtKind::kFuncDef:
        return Status::CompileError(
            "nested function definitions are not supported (line " +
            std::to_string(stmt.line) + ")");
    }
    FlushStatementTemps();
    return Status::OK();
  }

  Status CompileInto(std::vector<BlockPtr>* blocks,
                     const std::vector<StmtPtr>& statements,
                     bool skip_funcdefs = false) {
    scopes_.push_back({blocks, nullptr, nullptr});
    Status status = Status::OK();
    for (const StmtPtr& statement : statements) {
      if (skip_funcdefs && statement->kind == StmtKind::kFuncDef) continue;
      status = CompileStatement(*statement);
      if (!status.ok()) break;
    }
    scopes_.pop_back();
    return status;
  }

  // ---- Functions ---------------------------------------------------------

  Result<ScalarValue> EvalDefaultLiteral(const ExprNode& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        return expr.is_int && FitsInt64(expr.number)
                   ? ScalarValue::Int(static_cast<int64_t>(expr.number))
                   : ScalarValue::Double(expr.number);
      case ExprKind::kString:
        return ScalarValue::String(expr.text);
      case ExprKind::kBool:
        return ScalarValue::Bool(expr.number != 0.0);
      case ExprKind::kUnary:
        if (expr.text == "-") {
          LIMA_ASSIGN_OR_RETURN(ScalarValue inner,
                                EvalDefaultLiteral(*expr.lhs));
          return ScalarUnary(UnaryOp::kNeg, inner);
        }
        break;
      default:
        break;
    }
    return Status::CompileError("default parameter values must be literals");
  }

  Status DeclareFunction(const StmtNode& stmt) {
    FunctionSignature signature;
    std::vector<Function::Param> params;
    for (const FuncParam& param : stmt.params) {
      Function::Param p;
      p.name = param.name;
      signature.param_names.push_back(param.name);
      if (param.default_value != nullptr) {
        LIMA_ASSIGN_OR_RETURN(ScalarValue value,
                              EvalDefaultLiteral(*param.default_value));
        p.has_default = true;
        p.default_value = value;
        signature.has_default.push_back(true);
        signature.defaults.push_back(std::move(value));
      } else {
        signature.has_default.push_back(false);
        signature.defaults.push_back(ScalarValue());
      }
      params.push_back(std::move(p));
    }
    std::vector<std::string> outputs;
    for (const FuncParam& ret : stmt.returns) {
      outputs.push_back(ret.name);
    }
    signature.num_outputs = static_cast<int>(outputs.size());
    signatures_[stmt.func_name] = std::move(signature);
    program_->AddFunction(std::make_unique<Function>(
        stmt.func_name, std::move(params), std::move(outputs)));
    return Status::OK();
  }

  LimaConfig config_;
  std::unique_ptr<Program> program_;
  std::unordered_map<std::string, FunctionSignature> signatures_;
  /// Parfor blocks awaiting phase-1 dependency analysis, deferred to the
  /// post-pass stage so shape inference can supply a fact environment.
  /// The StmtNodes are owned by the caller of Compile and outlive it.
  std::vector<std::pair<ParForBlock*, const StmtNode*>> pending_parfors_;
  std::vector<EmitScope> scopes_;
  std::vector<std::string> stmt_temps_;
  std::vector<std::string> pred_temps_;
  int temp_counter_ = 0;
  int current_line_ = 0;
  bool in_predicate_ = false;
};

}  // namespace

Result<std::unique_ptr<Program>> CompileStatements(
    const std::vector<StmtPtr>& statements, const LimaConfig& config) {
  Compiler compiler(config);
  return compiler.Compile(statements);
}

Result<std::unique_ptr<Program>> CompileScript(const std::string& source,
                                               const LimaConfig& config) {
  LIMA_ASSIGN_OR_RETURN(std::vector<StmtPtr> statements, ParseScript(source));
  return CompileStatements(statements, config);
}

}  // namespace lima
