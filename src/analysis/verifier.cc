#include "analysis/verifier.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/opcode_registry.h"
#include "analysis/redundancy.h"
#include "analysis/shape_inference.h"
#include "runtime/analysis.h"
#include "runtime/block_visitor.h"
#include "runtime/instruction_factory.h"
#include "runtime/fused_op.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

bool IsTempName(const std::string& name) {
  return name.size() >= 2 && name[0] == '_' &&
         (name[1] == 't' || name[1] == 'p');
}

/// Definedness lattice of one program point: `definite` holds variables
/// defined on every path, `maybe` (a superset) those defined on at least
/// one path.
struct VarState {
  std::unordered_set<std::string> definite;
  std::unordered_set<std::string> maybe;

  void Define(const std::string& var) {
    definite.insert(var);
    maybe.insert(var);
  }
  void Remove(const std::string& var) {
    definite.erase(var);
    maybe.erase(var);
  }
};

/// Collects every variable read in a block tree — instruction inputs and
/// predicate results, but not rmvar names (a removal is not a use). Feeds
/// dead-instruction detection.
struct ReadCollector {
  std::unordered_set<std::string>* reads;
  void Pred(const Predicate& predicate, const std::string&) {
    reads->insert(predicate.result_var());
  }
  void Basic(const BasicBlock& block, const std::string&) {
    for (const auto& instruction : block.instructions()) {
      const auto* var =
          dynamic_cast<const VariableInstruction*>(instruction.get());
      if (var != nullptr &&
          var->variable_kind() == VariableInstruction::Kind::kRemove) {
        continue;
      }
      for (const std::string& name : instruction->InputVars()) {
        reads->insert(name);
      }
    }
  }
};

class Verifier {
 public:
  Verifier(const Program& program, const VerifyOptions& options)
      : program_(program), options_(options) {}

  VerifyReport Run() {
    for (const std::string& msg : VerifyOpcodeRegistry()) {
      Report(Diagnostic::Severity::kError, "registry-unsound", msg, "", 0);
    }
    // Catalog/factory drift: a reusable opcode the instruction factory
    // cannot rebuild would break lineage replay (spill-restore, dedup
    // expansion) at runtime; surface it statically here.
    for (const std::string& msg : VerifyFactoryCoverage()) {
      Report(Diagnostic::Severity::kError, "replay-uncovered", msg, "", 0);
    }

    scope_name_ = "main";
    VerifyScope(program_.main(), options_.assume_defined, nullptr);

    for (const auto& [name, fn] : program_.functions()) {
      scope_name_ = name;
      std::vector<std::string> params;
      params.reserve(fn->params().size());
      for (const Function::Param& param : fn->params()) {
        params.push_back(param.name);
      }
      VerifyScope(fn->body(), params, fn.get());
    }

    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.severity < b.severity;
                     });
    return std::move(report_);
  }

 private:
  // ---- Diagnostics -------------------------------------------------------

  void Report(Diagnostic::Severity severity, std::string code,
              std::string message, std::string location, int line) {
    Diagnostic diag;
    diag.severity = severity;
    diag.code = std::move(code);
    diag.message = std::move(message);
    diag.function = scope_name_;
    diag.location = std::move(location);
    diag.source_line = line;
    if (severity == Diagnostic::Severity::kError) {
      ++report_.num_errors;
    } else {
      ++report_.num_warnings;
    }
    report_.diagnostics.push_back(std::move(diag));
  }

  void Error(std::string code, std::string message, const std::string& loc,
             int line) {
    Report(Diagnostic::Severity::kError, std::move(code), std::move(message),
           loc, line);
  }

  void Warn(std::string code, std::string message, const std::string& loc,
            int line) {
    Report(Diagnostic::Severity::kWarning, std::move(code), std::move(message),
           loc, line);
  }

  // ---- Scope driver ------------------------------------------------------

  void VerifyScope(const std::vector<BlockPtr>& body,
                   const std::vector<std::string>& defined_on_entry,
                   const Function* fn) {
    VarState state;
    for (const std::string& var : defined_on_entry) state.Define(var);

    scope_reads_.clear();
    ReadCollector collector{&scope_reads_};
    lima::WalkBlocks(body, Predicates::kVisit, collector);
    if (fn != nullptr) {
      for (const std::string& out : fn->outputs()) scope_reads_.insert(out);
    }
    loop_seeded_.clear();

    WalkBlocks(body, &state, fn == nullptr ? "main" : "body");

    if (fn != nullptr) {
      for (const std::string& out : fn->outputs()) {
        if (state.maybe.count(out) == 0) {
          Error("missing-output",
                "function output '" + out + "' is never defined", "body", 0);
        } else if (state.definite.count(out) == 0) {
          Warn("maybe-missing-output",
               "function output '" + out + "' is not defined on every path",
               "body", 0);
        }
      }
    }

    if (options_.check_leaks) {
      std::vector<std::string> leaked(state.maybe.begin(), state.maybe.end());
      std::sort(leaked.begin(), leaked.end());
      for (const std::string& var : leaked) {
        if (!IsTempName(var)) continue;
        Warn("leaked-temp",
             "temporary '" + var + "' is still live at scope end", "end", 0);
      }
    }
  }

  // ---- Block walk --------------------------------------------------------

  static std::string Sub(const std::string& path, const std::string& part) {
    return path + "/" + part;
  }

  void WalkBlocks(const std::vector<BlockPtr>& blocks, VarState* state,
                  const std::string& path) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      WalkBlock(*blocks[i], state,
                Sub(path, "block[" + std::to_string(i) + "]"));
    }
  }

  void WalkBlock(const ProgramBlock& block, VarState* state,
                 const std::string& path) {
    switch (block.kind()) {
      case BlockKind::kBasic:
        WalkBasicBlock(static_cast<const BasicBlock&>(block), state, path);
        break;
      case BlockKind::kIf: {
        const auto& if_block = static_cast<const IfBlock&>(block);
        WalkPredicate(if_block.predicate(), state, Sub(path, "pred"));
        VarState then_state = *state;
        VarState else_state = *state;
        WalkBlocks(if_block.then_blocks(), &then_state, Sub(path, "then"));
        WalkBlocks(if_block.else_blocks(), &else_state, Sub(path, "else"));
        // Merge: definitely defined on both paths, maybe on either.
        VarState merged;
        for (const std::string& var : then_state.definite) {
          if (else_state.definite.count(var) > 0) merged.definite.insert(var);
        }
        merged.maybe = then_state.maybe;
        merged.maybe.insert(else_state.maybe.begin(), else_state.maybe.end());
        *state = std::move(merged);
        break;
      }
      case BlockKind::kFor:
      case BlockKind::kParFor: {
        const auto& for_block = static_cast<const ForBlock&>(block);
        WalkPredicate(for_block.from(), state, Sub(path, "from"));
        WalkPredicate(for_block.to(), state, Sub(path, "to"));
        if (!for_block.incr().result_var().empty()) {
          WalkPredicate(for_block.incr(), state, Sub(path, "incr"));
        }
        VarState body_state = *state;
        body_state.Define(for_block.iter_var());
        std::vector<std::string> seeded =
            SeedLoopBody(for_block.body(), &body_state);
        WalkBlocks(for_block.body(), &body_state, Sub(path, "body"));
        UnseedLoopBody(seeded);
        if (block.kind() == BlockKind::kParFor) {
          // Surface the compile-time loop-dependency findings alongside the
          // dataflow diagnostics: a proven carried dependence is an error
          // (fails under VerifyMode::kStrict); everything the analysis
          // merely failed to prove independent is a warning (the runtime
          // serializes the loop).
          const auto& parfor = static_cast<const ParForBlock&>(block);
          if (parfor.dep_info().analyzed) {
            for (const ParForFinding& finding : parfor.dep_info().findings) {
              const int line = finding.source_line != 0
                                   ? finding.source_line
                                   : parfor.source_line();
              Report(finding.blocking ? Diagnostic::Severity::kError
                                      : Diagnostic::Severity::kWarning,
                     "parfor-" + finding.code, finding.message, path, line);
            }
          }
          // Worker-local bindings are discarded; only overwrites of
          // pre-existing variables are merged back, so the enclosing state
          // is unchanged (removals happen in worker tables too).
          break;
        }
        MergeLoopExit(*state, body_state, /*body_definite=*/false, state);
        state->maybe.insert(for_block.iter_var());
        break;
      }
      case BlockKind::kWhile: {
        const auto& while_block = static_cast<const WhileBlock&>(block);
        // The predicate executes at least once, so its writes are definite
        // for everything after the loop.
        WalkPredicate(while_block.predicate(), state, Sub(path, "pred"));
        VarState body_state = *state;
        std::vector<std::string> seeded =
            SeedLoopBody(while_block.body(), &body_state);
        WalkBlocks(while_block.body(), &body_state, Sub(path, "body"));
        UnseedLoopBody(seeded);
        MergeLoopExit(*state, body_state, /*body_definite=*/false, state);
        break;
      }
    }
  }

  /// Pre-seeds loop-carried writes as "maybe defined" so a read at the top
  /// of iteration N of a variable written in iteration N-1 is not a false
  /// use-before-def; such variables are tracked in `loop_seeded_` to mute
  /// the maybe-warnings the seeding would otherwise cause.
  std::vector<std::string> SeedLoopBody(const std::vector<BlockPtr>& body,
                                        VarState* body_state) {
    BodyVars vars = AnalyzeBodyVars(body);
    std::vector<std::string> seeded;
    for (const std::string& var : vars.outputs) {
      // Compiler temps are statement-scoped: they cannot carry across
      // iterations, and seeding them would survive the loop-exit merge and
      // read as leaks at scope end.
      if (IsTempName(var)) continue;
      if (body_state->maybe.insert(var).second &&
          loop_seeded_.insert(var).second) {
        seeded.push_back(var);
      }
    }
    return seeded;
  }

  void UnseedLoopBody(const std::vector<std::string>& seeded) {
    for (const std::string& var : seeded) loop_seeded_.erase(var);
  }

  /// State after a loop that may run zero times: definite only when defined
  /// before and not (possibly) removed by the body; maybe when defined
  /// before or on some body path.
  void MergeLoopExit(const VarState& before, const VarState& after_body,
                     bool body_definite, VarState* out) {
    VarState merged;
    for (const std::string& var : before.definite) {
      if (body_definite || after_body.definite.count(var) > 0) {
        merged.definite.insert(var);
      }
    }
    merged.maybe = before.maybe;
    merged.maybe.insert(after_body.maybe.begin(), after_body.maybe.end());
    *out = std::move(merged);
  }

  void WalkPredicate(const Predicate& predicate, VarState* state,
                     const std::string& path) {
    for (const auto& instruction : predicate.block().instructions()) {
      VisitInstruction(*instruction, state, path);
    }
    CheckRead(*state, predicate.result_var(), path, 0);
  }

  void WalkBasicBlock(const BasicBlock& block, VarState* state,
                      const std::string& path) {
    for (const auto& instruction : block.instructions()) {
      VisitInstruction(*instruction, state, path);
    }
  }

  // ---- Instruction-level checks ------------------------------------------

  void CheckRead(const VarState& state, const std::string& var,
                 const std::string& loc, int line) {
    if (var.empty()) return;
    if (state.definite.count(var) > 0) return;
    if (state.maybe.count(var) > 0) {
      if (loop_seeded_.count(var) == 0) {
        Warn("maybe-use-before-def",
             "variable '" + var + "' may be undefined here", loc, line);
      }
      return;
    }
    Error("use-before-def", "variable '" + var + "' is read before any definition",
          loc, line);
  }

  void VisitInstruction(const Instruction& instruction, VarState* state,
                        const std::string& loc) {
    const int line = instruction.source_line();
    const std::string& op = instruction.opcode();
    const OpcodeEffect* effect = LookupOpcode(instruction.opcode_id());
    if (effect == nullptr) {
      Error("unknown-opcode",
            "opcode '" + op + "' has no effect-registry entry", loc, line);
    }

    const auto* computation =
        dynamic_cast<const ComputationInstruction*>(&instruction);
    if (computation != nullptr && effect != nullptr) {
      const int arity = static_cast<int>(computation->operands().size());
      if (arity < effect->min_inputs ||
          (effect->max_inputs != -1 && arity > effect->max_inputs)) {
        Error("arity-mismatch",
              "opcode '" + op + "' has " + std::to_string(arity) +
                  " operands, registry expects [" +
                  std::to_string(effect->min_inputs) + ", " +
                  (effect->max_inputs == -1
                       ? std::string("inf")
                       : std::to_string(effect->max_inputs)) +
                  "]",
              loc, line);
      }
      const int outs = static_cast<int>(computation->OutputVars().size());
      if (effect->num_outputs != -1 && outs != effect->num_outputs) {
        Error("arity-mismatch",
              "opcode '" + op + "' produces " + std::to_string(outs) +
                  " outputs, registry expects " +
                  std::to_string(effect->num_outputs),
              loc, line);
      }
      if (!effect->lineage_traced) {
        Error("untraced-compute",
              "compute opcode '" + op + "' is not lineage-traced; cached "
              "results would be unkeyable",
              loc, line);
      }
    }

    // Shadowed multi-output bindings: later writes silently win.
    std::vector<std::string> outputs = instruction.OutputVars();
    {
      std::unordered_set<std::string> seen;
      for (const std::string& out : outputs) {
        if (!seen.insert(out).second) {
          Error("shadowed-output",
                "output '" + out + "' is bound more than once by one '" + op +
                    "' instruction",
                loc, line);
        }
      }
    }

    // Variable bookkeeping: removals and renames mutate the state.
    const auto* var_instruction =
        dynamic_cast<const VariableInstruction*>(&instruction);
    if (var_instruction != nullptr &&
        var_instruction->variable_kind() ==
            VariableInstruction::Kind::kRemove) {
      for (const std::string& name : var_instruction->names()) {
        if (state->maybe.count(name) == 0) {
          Error("rmvar-undefined",
                "rmvar of '" + name + "' which is undefined on every path",
                loc, line);
        } else if (state->definite.count(name) == 0 &&
                   loop_seeded_.count(name) == 0) {
          Warn("maybe-rmvar-undefined",
               "rmvar of '" + name + "' which may be undefined here", loc,
               line);
        }
        state->Remove(name);
      }
      return;
    }

    if (op == "fcall") {
      CheckFunctionCall(
          static_cast<const FunctionCallInstruction&>(instruction), loc,
          line);
    }
    const auto* fused = dynamic_cast<const FusedInstruction*>(&instruction);
    if (fused != nullptr) {
      CheckFused(*fused, loc, line);
    }

    for (const std::string& var : instruction.InputVars()) {
      CheckRead(*state, var, loc, line);
    }

    if (var_instruction != nullptr &&
        var_instruction->variable_kind() == VariableInstruction::Kind::kMove) {
      state->Remove(var_instruction->InputVars()[0]);
    }

    if (options_.check_dead_code && computation != nullptr &&
        effect != nullptr && !effect->side_effects && !outputs.empty()) {
      bool all_unused = true;
      for (const std::string& out : outputs) {
        if (!IsTempName(out) || scope_reads_.count(out) > 0) {
          all_unused = false;
          break;
        }
      }
      if (all_unused) {
        Warn("dead-instruction",
             "results of '" + op + "' are never used", loc, line);
      }
    }

    for (const std::string& out : outputs) state->Define(out);
  }

  void CheckFunctionCall(const FunctionCallInstruction& call,
                         const std::string& loc, int line) {
    const Function* fn = program_.GetFunction(call.function_name());
    if (fn == nullptr) {
      Error("undefined-function",
            "call to undefined function '" + call.function_name() + "'", loc,
            line);
      return;
    }
    const size_t num_args = call.args().size();
    const auto& params = fn->params();
    if (num_args > params.size()) {
      Error("fcall-arity",
            "function '" + fn->name() + "' takes " +
                std::to_string(params.size()) + " parameters, got " +
                std::to_string(num_args) + " arguments",
            loc, line);
    } else {
      for (size_t i = num_args; i < params.size(); ++i) {
        if (!params[i].has_default) {
          Error("fcall-arity",
                "call to '" + fn->name() + "' omits required parameter '" +
                    params[i].name + "'",
                loc, line);
        }
      }
    }
    if (call.OutputVars().size() > fn->outputs().size()) {
      Error("fcall-arity",
            "function '" + fn->name() + "' returns " +
                std::to_string(fn->outputs().size()) + " values, call binds " +
                std::to_string(call.OutputVars().size()),
            loc, line);
    }
  }

  /// Fused operators must expand to a lineage trace identical to unfused
  /// execution (fused_op.cc BuildLineage walks the same step chain), so the
  /// step graph itself must be well-formed: every source in range, every
  /// step and operand feeding the final result.
  void CheckFused(const FusedInstruction& fused, const std::string& loc,
                  int line) {
    const int num_operands = static_cast<int>(fused.operands().size());
    const auto& steps = fused.steps();
    const int num_steps = static_cast<int>(steps.size());
    if (num_steps == 0) {
      Error("fused-bad-source", "fused instruction has no steps", loc, line);
      return;
    }
    std::vector<bool> operand_used(num_operands, false);
    std::vector<bool> step_used(num_steps, false);
    auto check_src = [&](const FusedStep::Src& src, int step_index) {
      if (src.kind == FusedStep::Src::Kind::kOperand) {
        if (src.index < 0 || src.index >= num_operands) {
          Error("fused-bad-source",
                "fused step " + std::to_string(step_index) +
                    " references operand " + std::to_string(src.index) +
                    " of " + std::to_string(num_operands),
                loc, line);
          return;
        }
        operand_used[src.index] = true;
      } else {
        if (src.index < 0 || src.index >= step_index) {
          Error("fused-bad-source",
                "fused step " + std::to_string(step_index) +
                    " references step " + std::to_string(src.index) +
                    " which is not an earlier step",
                loc, line);
          return;
        }
        step_used[src.index] = true;
      }
    };
    for (int i = 0; i < num_steps; ++i) {
      check_src(steps[i].lhs, i);
      if (steps[i].is_binary) check_src(steps[i].rhs, i);
    }
    step_used[num_steps - 1] = true;  // the final step is the result
    for (int i = 0; i < num_steps; ++i) {
      if (!step_used[i]) {
        Warn("fused-dead-step",
             "fused step " + std::to_string(i) +
                 " is computed but never consumed",
             loc, line);
      }
    }
    for (int i = 0; i < num_operands; ++i) {
      if (!operand_used[i]) {
        Warn("fused-dead-operand",
             "fused operand " + std::to_string(i) + " is never read", loc,
             line);
      }
    }
  }

  const Program& program_;
  const VerifyOptions& options_;
  VerifyReport report_;
  std::string scope_name_;
  std::unordered_set<std::string> scope_reads_;
  std::unordered_set<std::string> loop_seeded_;
};

}  // namespace

std::string Diagnostic::ToString() const {
  std::string out =
      severity == Severity::kError ? "error[" : "warning[";
  out += code;
  out += "] ";
  out += function;
  if (!location.empty()) {
    out += " at ";
    out += location;
  }
  if (source_line > 0) {
    out += " (line ";
    out += std::to_string(source_line);
    out += ")";
  }
  out += ": ";
  out += message;
  return out;
}

std::string VerifyReport::ToString() const {
  std::string out;
  for (const Diagnostic& diag : diagnostics) {
    out += diag.ToString();
    out += "\n";
  }
  out += "verify: ";
  out += std::to_string(num_errors);
  out += " error(s), ";
  out += std::to_string(num_warnings);
  out += " warning(s)\n";
  return out;
}

VerifyReport VerifyProgram(const Program& program,
                           const VerifyOptions& options) {
  VerifyReport report = Verifier(program, options).Run();
  if (options.check_shapes || options.check_redundancy) {
    ProgramAnalysis analysis =
        AnalyzeShapesAndValues(program, options.assume_shapes);
    auto append = [&report](std::vector<Diagnostic> diags) {
      for (Diagnostic& diag : diags) {
        if (diag.severity == Diagnostic::Severity::kError) {
          ++report.num_errors;
        } else {
          ++report.num_warnings;
        }
        report.diagnostics.push_back(std::move(diag));
      }
    };
    if (options.check_shapes) {
      append(std::move(analysis.shapes.diagnostics));
    }
    if (options.check_redundancy) {
      append(std::move(analysis.redundancy.diagnostics));
    }
    std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.severity < b.severity;
                     });
  }
  return report;
}

VerifyReport VerifyProgram(const Program& program) {
  return VerifyProgram(program, VerifyOptions());
}

}  // namespace lima
