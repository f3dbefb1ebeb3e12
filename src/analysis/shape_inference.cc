#include "analysis/shape_inference.h"

#include <cstdio>
#include <set>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/opcode_registry.h"
#include "matrix/matrix_io.h"
#include "runtime/instructions_misc.h"

namespace lima {

namespace {

using Env = std::unordered_map<std::string, ShapeInfo>;

std::string HumanBytes(int64_t bytes) {
  char buf[48];
  if (bytes >= int64_t{1} << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  static_cast<double>(bytes) / (int64_t{1} << 30));
  } else if (bytes >= int64_t{1} << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MB",
                  static_cast<double>(bytes) / (int64_t{1} << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld B",
                  static_cast<long long>(bytes));
  }
  return buf;
}

const char* BlockKindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kBasic:
      return "basic";
    case BlockKind::kIf:
      return "if";
    case BlockKind::kFor:
      return "for";
    case BlockKind::kWhile:
      return "while";
    case BlockKind::kParFor:
      return "parfor";
  }
  return "block";
}

constexpr int kMaxCallDepth = 16;

/// The shape domain of the forward dataflow driver (analysis/dataflow.h):
/// per-variable ShapeInfo, joined on the dimension lattice. Transfer also
/// observes memory, so the engine records per-block and program peaks.
class ShapeEngine {
 public:
  using State = Env;

  explicit ShapeEngine(const Program& program)
      : program_(program), diags_(&analysis_.diagnostics) {}

  ShapeAnalysis Run(const std::vector<ShapeAssumption>& assumptions) {
    Env env;
    for (const ShapeAssumption& a : assumptions) env[a.name] = a.shape;
    // Main traversal with per-top-level-block memory capture.
    const std::vector<BlockPtr>& blocks = program_.main();
    for (size_t i = 0; i < blocks.size(); ++i) {
      block_peak_ = 0;
      block_exact_ = true;
      std::string loc = BlockPath("main", i);
      ForwardDataflow(*this).RunBlock(*blocks[i], &env, "main", loc);
      ShapeMemBlock mem;
      mem.location = std::move(loc);
      mem.kind = BlockKindName(blocks[i]->kind());
      mem.peak_bytes = block_peak_;
      mem.exact = block_exact_;
      analysis_.block_mem.push_back(std::move(mem));
    }
    analysis_.final_shapes = env;
    analysis_.peak_bytes = peak_bytes_;
    analysis_.exact = exact_;
    for (const auto& [instr, known] : known_) {
      (void)instr;
      ++analysis_.num_instructions;
      if (known) ++analysis_.num_fully_known;
    }
    return std::move(analysis_);
  }

 private:
  friend class ForwardDataflow<ShapeEngine>;

  // --- environment / memory observation ---------------------------------

  /// Dense payload bytes of all matrix bindings, saturating; unknown-shape
  /// matrices contribute 0 and taint exactness.
  int64_t EnvBytes(const Env& env, bool* taint) {
    int64_t total = 0;
    for (const auto& [name, shape] : env) {
      (void)name;
      if (shape.is_matrix()) {
        if (shape.fully_known()) {
          total = SaturatingAdd(total, shape.MatrixBytes());
        } else {
          *taint = true;
        }
      } else if (shape.is_unknown() || shape.is_list()) {
        *taint = true;  // could be a matrix of unknown size
      }
    }
    return total;
  }

  void Observe(const Env& env) {
    bool taint = false;
    int64_t bytes = SaturatingAdd(base_bytes_, EnvBytes(env, &taint));
    if (taint) {
      exact_ = false;
      block_exact_ = false;
    }
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    if (bytes > block_peak_) block_peak_ = bytes;
  }

  // --- instruction application ------------------------------------------

  /// Coverage notion for the known-ratio metric: the engine derived the
  /// value's kind and, for matrices, a complete dimension structure —
  /// constant or symbolic (symbolic dims still prove conformability).
  /// Constant-only sizing is tracked separately by the memory estimator.
  static bool OutputShapeKnown(const ShapeInfo& shape) {
    if (shape.is_unknown()) return false;
    if (shape.is_matrix()) return shape.rows.known() && shape.cols.known();
    return true;
  }

  /// Binds one instruction's abstract outputs, minting stable symbols for
  /// unknown matrix dimensions and updating the known-coverage metric.
  void BindOutputs(const Instruction& instr,
                   const std::vector<std::string>& names,
                   std::vector<ShapeInfo> shapes, Env* env) {
    bool all_known = true;
    for (size_t i = 0; i < names.size(); ++i) {
      ShapeInfo shape = i < shapes.size() ? shapes[i] : ShapeInfo::Unknown();
      shape = syms_.MintSyms(&instr, static_cast<int>(i), std::move(shape));
      all_known &= OutputShapeKnown(shape);
      (*env)[names[i]] = std::move(shape);
    }
    if (!names.empty()) {
      auto [it, inserted] = known_.emplace(&instr, all_known);
      if (!inserted) it->second = it->second && all_known;
    }
  }

  void Transfer(const Instruction& instr, Env* env, const std::string& scope,
                const std::string& loc) {
    // Bookkeeping first: these manipulate the environment directly.
    if (const auto* lit = dynamic_cast<const AssignLiteralInstruction*>(
            &instr)) {
      BindOutputs(instr, instr.OutputVars(), {LiteralShape(lit->value())},
                  env);
      return;
    }
    if (const auto* var = dynamic_cast<const VariableInstruction*>(&instr)) {
      switch (var->variable_kind()) {
        case VariableInstruction::Kind::kCopy:
        case VariableInstruction::Kind::kMove: {
          const std::string& from = var->names()[0];
          const std::string& to = var->names()[1];
          auto it = env->find(from);
          ShapeInfo shape =
              it == env->end() ? ShapeInfo::Unknown() : it->second;
          if (var->variable_kind() == VariableInstruction::Kind::kMove) {
            env->erase(from);
          }
          BindOutputs(instr, {to}, {shape}, env);
          break;
        }
        case VariableInstruction::Kind::kRemove:
          for (const std::string& name : var->names()) env->erase(name);
          break;
      }
      Observe(*env);
      return;
    }
    if (const auto* call = dynamic_cast<const FunctionCallInstruction*>(
            &instr)) {
      ApplyCall(*call, env, scope, loc);
      Observe(*env);
      return;
    }
    if (const auto* comp = dynamic_cast<const ComputationInstruction*>(
            &instr)) {
      ApplyRow(instr, comp->operands(), env, scope, loc);
    } else if (const auto* misc = dynamic_cast<const MiscInstruction*>(
                   &instr)) {
      ApplyRow(instr, misc->operands(), env, scope, loc);
    }
  }

  /// An instruction that runs a catalog row: the row's shape rule maps the
  /// operand shapes to the output shapes.
  void ApplyRow(const Instruction& instr, const std::vector<Operand>& operands,
                Env* env, const std::string& scope, const std::string& loc) {
    const std::vector<std::string> outputs = instr.OutputVars();
    if (outputs.empty()) return;  // print, stop, write bind nothing
    const OpcodeEffect* effect = LookupOpcode(instr.opcode_id());
    std::string degraded;
    if (effect != nullptr && effect->dynamic_dispatch) {
      degraded =
          instr.opcode() + " dispatches at runtime; result shape unknown";
    } else if (effect == nullptr || effect->shape_rule == nullptr) {
      degraded = "no shape-transfer rule for opcode '" + instr.opcode() +
                 "'; shapes degraded to unknown";
    }
    if (!degraded.empty()) {
      diags_.Report(Diagnostic::Severity::kWarning, "shape-unknown-degraded",
                    degraded, scope, loc, instr.source_line());
      BindOutputs(instr, outputs, std::vector<ShapeInfo>(outputs.size()),
                  env);
      Observe(*env);
      return;
    }
    std::vector<ShapeArg> args;
    args.reserve(operands.size());
    for (const Operand& op : operands) args.push_back(BuildArg(op, *env));
    ShapeRuleResult result;
    if (!effect->reads_file || !PeekFileShape(args, &result)) {
      result = effect->shape_rule(*effect, args);
    }
    if (!result.error.empty()) {
      diags_.Report(Diagnostic::Severity::kError, "shape-mismatch",
                    result.error, scope, loc, instr.source_line());
      result.outputs.assign(outputs.size(), ShapeInfo::Unknown());
    }
    BindOutputs(instr, outputs, std::move(result.outputs), env);
    Observe(*env);
  }

  /// The dimensions in the header of a literal matrix-file path, when the
  /// file is readable at compile time.
  static bool PeekFileShape(const std::vector<ShapeArg>& args,
                            ShapeRuleResult* result) {
    if (args.empty() || !args[0].has_text) return false;
    Result<std::pair<int64_t, int64_t>> dims = PeekMatrixDims(args[0].text);
    if (!dims.ok()) return false;
    result->outputs = {ShapeInfo::Matrix(Dim::Const(dims->first),
                                         Dim::Const(dims->second))};
    return true;
  }

  void ApplyCall(const FunctionCallInstruction& call, Env* env,
                 const std::string& scope, const std::string& loc) {
    const Function* fn = program_.GetFunction(call.function_name());
    std::vector<std::string> outputs = call.OutputVars();
    if (fn == nullptr || active_.count(fn) > 0 ||
        call_depth_ >= kMaxCallDepth) {
      if (fn != nullptr) {
        diags_.Report(Diagnostic::Severity::kWarning, "shape-unknown-degraded",
                      "recursive call to '" + call.function_name() +
                          "'; result shapes unknown",
                      scope, loc, call.source_line());
      }
      BindOutputs(call, outputs, std::vector<ShapeInfo>(outputs.size()), env);
      return;
    }
    // Bind arguments positionally; missing trailing args take defaults.
    Env callee;
    const std::vector<Function::Param>& params = fn->params();
    for (size_t i = 0; i < params.size(); ++i) {
      if (i < call.args().size()) {
        callee[params[i].name] = BuildArg(call.args()[i], *env).shape;
      } else if (params[i].has_default) {
        callee[params[i].name] = LiteralShape(params[i].default_value);
      }
    }
    // The callee's live bindings stack on top of the caller's.
    bool taint = false;
    int64_t saved_base = base_bytes_;
    base_bytes_ = SaturatingAdd(base_bytes_, EnvBytes(*env, &taint));
    active_.insert(fn);
    ++call_depth_;
    ForwardDataflow(*this).Run(fn->body(), &callee, fn->name(), fn->name());
    --call_depth_;
    active_.erase(fn);
    base_bytes_ = saved_base;

    std::vector<ShapeInfo> result;
    result.reserve(outputs.size());
    const std::vector<std::string>& fn_outputs = fn->outputs();
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (i < fn_outputs.size()) {
        auto it = callee.find(fn_outputs[i]);
        result.push_back(it == callee.end() ? ShapeInfo::Unknown()
                                            : it->second);
      } else {
        result.push_back(ShapeInfo::Unknown());
      }
    }
    BindOutputs(call, outputs, std::move(result), env);
  }

  // --- dataflow domain hooks --------------------------------------------

  /// Least upper bound over environments: a variable bound on one path
  /// only widens to Unknown.
  Env Join(const std::string&, const Env& a, const Env& b) {
    return JoinEnvs(a, b, [](const std::string&, const ShapeInfo* x,
                             const ShapeInfo* y) {
      return x != nullptr && y != nullptr ? JoinShape(*x, *y)
                                          : ShapeInfo::Unknown();
    });
  }

  bool Equal(const Env& a, const Env& b) { return EnvsEqual(a, b); }

  void Widen(Env* head) {
    for (auto& [name, shape] : *head) {
      (void)name;
      shape = ShapeInfo::Unknown();
    }
    exact_ = false;
    block_exact_ = false;
  }

  /// The loop variable is a scalar in the body and survives DML loops with
  /// its final value.
  void LoopVar(const ForBlock& loop, const std::string&, Env* env) {
    (*env)[loop.iter_var()] = ShapeInfo::Scalar();
  }

  void AfterLoop(const ForBlock& loop, const Env& env) {
    if (loop.kind() == BlockKind::kParFor) {
      RecordParForConsts(static_cast<const ParForBlock&>(loop), env);
    }
  }

  /// Loop-invariant integer constants at the parfor head, intersected
  /// across visits (a function containing the loop may be called with
  /// different arguments).
  void RecordParForConsts(const ParForBlock& block, const Env& head) {
    std::unordered_map<std::string, int64_t> consts;
    for (const auto& [name, shape] : head) {
      if (name == block.iter_var()) continue;
      if (shape.is_scalar() && shape.value.is_const()) {
        consts[name] = shape.value.value;
      }
    }
    auto [it, inserted] =
        analysis_.parfor_consts.emplace(&block, std::move(consts));
    if (!inserted) {
      auto& kept = it->second;
      for (auto kv = kept.begin(); kv != kept.end();) {
        auto found = consts.find(kv->first);
        if (found == consts.end() || found->second != kv->second) {
          kv = kept.erase(kv);
        } else {
          ++kv;
        }
      }
    }
  }

  const Program& program_;
  ShapeAnalysis analysis_;
  DiagnosticSink diags_;
  SymbolMinter syms_;

  std::unordered_map<const Instruction*, bool> known_;
  std::set<const Function*> active_;
  int call_depth_ = 0;

  int64_t base_bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t block_peak_ = 0;
  bool exact_ = true;
  bool block_exact_ = true;
};

}  // namespace

std::string ShapeAnalysis::MemReport() const {
  std::string out = "=== static memory estimate ===\n";
  for (const ShapeMemBlock& block : block_mem) {
    out += block.location + " (" + block.kind + "): peak " +
           HumanBytes(block.peak_bytes) +
           (block.exact ? "" : " (lower bound: unknown shapes)") + "\n";
  }
  out += "program peak: " + HumanBytes(peak_bytes) + " (" +
         std::to_string(peak_bytes) + " bytes" +
         (exact ? ", exact)" : ", lower bound: unknown shapes)") + "\n";
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio),
                "shape coverage: %d/%d instructions fully shaped (%.0f%%)\n",
                num_fully_known, num_instructions, known_ratio() * 100.0);
  out += ratio;
  return out;
}

ShapeAnalysis InferShapes(const Program& program,
                          const std::vector<ShapeAssumption>& assumptions) {
  return ShapeEngine(program).Run(assumptions);
}

ShapeAnalysis InferShapes(const Program& program) {
  return InferShapes(program, {});
}

}  // namespace lima
